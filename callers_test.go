package ganc

// The callers gate: code outside this module cannot import internal/, so an
// exported name under internal/ that no non-test file of the module uses is
// reachable from tests alone — dead code that tests keep alive. The gate
// parses every non-test file of the module (cmd/ and benchmark/ included) and
// fails on each exported package-level function and each exported method
// under internal/ whose name appears as an identifier nowhere but its own
// declaration. It leaves out what a name search cannot judge: methods of a
// type the root package aliases (their callers are outside the module), and
// method names an interface may dispatch to — any interface method declared
// in the module, and the standard library's Error, String, Unwrap and
// ServeHTTP. The names below are kept on purpose, each for the test or
// ROADMAP item that needs it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var internalAllowlist = map[string]string{
	"dataset.FromRatings":               "the ratings fixture of 11 test files in 8 packages",
	"linalg.Dot64":                      "the scalar float64 baseline TestKernelSpeedupGate measures the kernels against",
	"linalg.Block.DotRows32x8":          "the row kernel's checked entry, driven by TestDotRowsBitExact and TestDotRowsRefusesBadInput (DESIGN §12)",
	"mat.NewDenseFrom":                  "the literal-matrix fixture of internal/linalg's QR, eigen and SVD tests",
	"mat.Mul":                           "the product internal/linalg's eigen and SVD tests rebuild a factorized matrix with",
	"persist.Snapshot.Sections":         "the root snapshot tests (persistence_test.go) inspect a snapshot's sections through it",
	"submodular.LocallyGreedy":          "the Appendix B oracle ROADMAP item 10 reserves for the ledger",
	"submodular.NewPartitionMatroid":    "the Appendix B oracle ROADMAP item 10 reserves for the ledger",
	"submodular.PartitionMatroid.Limit": "the Appendix B oracle ROADMAP item 10 reserves for the ledger",
	"submodular.IsMonotone":             "the Appendix B oracle ROADMAP item 10 reserves for the ledger",
	"submodular.IsSubmodular":           "the Appendix B oracle ROADMAP item 10 reserves for the ledger",
}

// dispatchedMethods are the standard library's interface methods that a
// module type implements without any module code naming them.
var dispatchedMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true}

func TestInternalNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg  string // the package clause's name
		dir  string
		node *ast.File
	}
	var files []file
	for _, dir := range collectPackageDirs(t) {
		pkgs, err := parser.ParseDir(fset, dir, nonTestFile, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				files = append(files, file{pkg.Name, filepath.ToSlash(dir), f})
			}
		}
	}

	aliased := map[string]bool{} // "eval.Evaluator": a root alias's target
	interfaceMethods := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f.node, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.TypeSpec:
				if f.dir == "." && d.Assign.IsValid() {
					if sel, ok := typeName(d.Type).(*ast.SelectorExpr); ok {
						if pkg, ok := sel.X.(*ast.Ident); ok {
							aliased[pkg.Name+"."+sel.Sel.Name] = true
						}
					}
				}
			case *ast.InterfaceType:
				for _, m := range d.Methods.List {
					for _, name := range m.Names {
						interfaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}

	// The candidates, keyed by the position of their declaring identifier.
	type candidate struct{ key, name string }
	candidates := map[token.Pos]candidate{}
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.node.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv, ok := typeName(fn.Recv.List[0].Type).(*ast.Ident)
				if !ok || aliased[f.pkg+"."+recv.Name] || interfaceMethods[fn.Name.Name] || dispatchedMethods[fn.Name.Name] {
					continue
				}
				key = f.pkg + "." + recv.Name + "." + fn.Name.Name
			}
			candidates[fn.Name.Pos()] = candidate{key, fn.Name.Name}
		}
	}
	if len(candidates) < 100 {
		t.Fatalf("internal/ yielded %d exported functions and methods; the gate would pass vacuously", len(candidates))
	}

	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, decl := candidates[id.Pos()]; !decl {
					used[id.Name] = true
				}
			}
			return true
		})
	}

	var dead []string
	allowed := map[string]bool{}
	for pos, c := range candidates {
		if _, ok := internalAllowlist[c.key]; ok {
			allowed[c.key] = true
			if used[c.name] {
				t.Errorf("%s: %s is on the allowlist and has a caller outside the tests; drop the entry", position(fset, pos), c.key)
			}
			continue
		}
		if !used[c.name] {
			dead = append(dead, fmt.Sprintf("%s: %s", position(fset, pos), c.key))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported names under internal/ have no caller outside the tests; for each, delete it, or add it to the allowlist with the test that needs it:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
	for key := range internalAllowlist {
		if !allowed[key] {
			t.Errorf("the allowlist names %s, which internal/ no longer declares as a checked function or method; drop the entry", key)
		}
	}
}

// typeName strips a pointer and type arguments from a type expression.
func typeName(e ast.Expr) ast.Expr {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch g := e.(type) {
	case *ast.IndexExpr:
		return g.X
	case *ast.IndexListExpr:
		return g.X
	}
	return e
}
