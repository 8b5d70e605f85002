package ganc

// The docs gate: a golint/revive-style exported-comment check implemented on
// the standard library's go/parser so it runs in plain `go test` (and in CI)
// with no external tooling. It enforces that
//
//   - every package (including the mains under cmd/) has a
//     package comment, and
//   - every exported top-level declaration — functions, methods, types, and
//     const/var specs — in the library packages carries a doc comment,
//
// so `go doc ganc` (and every internal package) reads as a real API
// reference and documentation cannot silently rot.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"ganc/internal/cluster"
	"ganc/internal/synth"
)

// collectPackageDirs walks the module and returns every directory containing
// non-test Go files.
func collectPackageDirs(t *testing.T) []string {
	t.Helper()
	dirSet := map[string]struct{}{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirSet[filepath.Dir(path)] = struct{}{}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(dirSet))
	for dir := range dirSet {
		dirs = append(dirs, dir)
	}
	return dirs
}

// nonTestFile is the parser.ParseDir filter both gates use.
func nonTestFile(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

func TestDocCommentsDoNotRot(t *testing.T) {
	var violations []string
	for _, dir := range collectPackageDirs(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nonTestFile, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			violations = append(violations, lintPackage(fset, dir, pkg)...)
		}
	}
	if len(violations) > 0 {
		t.Errorf("%d documentation violations:\n  %s", len(violations), strings.Join(violations, "\n  "))
	}
}

// lintPackage checks one parsed package and returns its violations.
func lintPackage(fset *token.FileSet, dir string, pkg *ast.Package) []string {
	var out []string
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc {
		out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
	}
	// Exported-symbol docs are enforced in library packages; mains document
	// themselves through their package (command) comment.
	if pkg.Name == "main" {
		return out
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && !exportedRecvOk(d) {
					continue // unexported receiver: method is not reachable API
				}
				if d.Name.IsExported() && d.Doc == nil {
					out = append(out, fmt.Sprintf("%s: exported %s %s is undocumented",
						position(fset, d.Pos()), funcKind(d), d.Name.Name))
				}
			case *ast.GenDecl:
				out = append(out, lintGenDecl(fset, d)...)
			}
		}
	}
	return out
}

// exportedRecvOk reports whether a method's receiver type is exported (doc
// comments on methods of unexported types never surface in go doc).
func exportedRecvOk(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic receiver type parameters if present.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.IsExported()
	}
	return true
}

// lintGenDecl checks type/const/var declarations: a doc comment may sit on
// the grouped declaration or on the individual spec.
func lintGenDecl(fset *token.FileSet, d *ast.GenDecl) []string {
	if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
		return nil
	}
	var out []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				out = append(out, fmt.Sprintf("%s: exported type %s is undocumented", position(fset, s.Pos()), s.Name.Name))
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					out = append(out, fmt.Sprintf("%s: exported %s %s is undocumented",
						position(fset, s.Pos()), strings.ToLower(d.Tok.String()), name.Name))
				}
			}
		}
	}
	return out
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// The names gate: README.md, DESIGN.md and the verify skill may only name
// `With*` options, `ganc`/`gancd`/`loadgen` flags, `-role` values,
// package-qualified exported identifiers (`recommender.SelectTop`), test,
// fuzz, benchmark and example functions (`TestScenario*`: a trailing `*` or
// `_`, or a place in a -run pattern, marks a prefix), `GET /path` and `POST /path` routes and relative `*.md`
// files that exist, and base, re-ranker, coverage and preset names the
// registries resolve (BaseNames, RerankerNames, CoverageNames,
// synth.PresetNames), and README's gancd role matrix lists for each role
// exactly the flags gancd's own table says the role reads, and no document names — and no
// code outside benchmark/ uses — a root name marked `// Deprecated:`. Options and flags are the names a
// reader copies into a program or a shell, and a qualified identifier or a
// file is where a reader opens the code, so a document that keeps one the
// code dropped is wrong in the most expensive way; this keeps a removal or a
// rename and its documentation in the same change.

// modulePackages parses every package of the module, test files and comments
// left out.
func modulePackages(t *testing.T) []*ast.Package {
	t.Helper()
	var out []*ast.Package
	for _, dir := range collectPackageDirs(t) {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nonTestFile, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			out = append(out, pkg)
		}
	}
	return out
}

// declaredOptions collects every exported With* function declared in pkgs.
func declaredOptions(pkgs []*ast.Package) map[string]bool {
	opts := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && optionName.MatchString(fn.Name.Name) {
					opts[fn.Name.Name] = true
				}
			}
		}
	}
	return opts
}

// declaredIdentifiers maps each library package in pkgs, by package name, to
// every name it declares that a document could qualify with it: functions,
// methods (interface methods included), types, constants, variables and
// struct fields.
func declaredIdentifiers(pkgs []*ast.Package) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		names := decls[pkg.Name]
		if names == nil {
			names = map[string]bool{}
			decls[pkg.Name] = names
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
					return false // nothing declared inside a body can be qualified
				case *ast.TypeSpec:
					names[d.Name.Name] = true
				case *ast.ValueSpec:
					for _, name := range d.Names {
						names[name.Name] = true
					}
				case *ast.Field: // struct fields and interface methods
					for _, name := range d.Names {
						names[name.Name] = true
					}
				}
				return true
			})
		}
	}
	return decls
}

// declaredTests collects every Test, Fuzz, Benchmark and Example function of
// the module's test files.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	tests := map[string]bool{}
	for _, dir := range collectPackageDirs(t) {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool { return !nonTestFile(fi) }, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testInDoc.MatchString(fn.Name.Name) {
						tests[fn.Name.Name] = true
					}
				}
			}
		}
	}
	return tests
}

// deprecatedRootNames collects the root package's top-level names whose doc
// comment carries a "Deprecated:" paragraph, each with the file declaring it.
func deprecatedRootNames(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nonTestFile, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	deprecated := func(doc *ast.CommentGroup) bool { return doc != nil && strings.Contains(doc.Text(), "Deprecated:") }
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && deprecated(d.Doc) {
						names[d.Name.Name] = path
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if deprecated(d.Doc) || deprecated(sp.Doc) {
								names[sp.Name.Name] = path
							}
						case *ast.ValueSpec:
							if deprecated(d.Doc) || deprecated(sp.Doc) {
								for _, name := range sp.Names {
									names[name.Name] = path
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}

// checkDeprecatedUnused holds a deprecated root name to what its comment
// says: it is on its way out, so no document may offer it to a reader, and
// nothing in the module may use it outside the file that declares it and
// benchmark/, the directory a PR that retires a name may not edit.
func checkDeprecatedUnused(t *testing.T, deprecated map[string]string, docs []string) {
	t.Helper()
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, word := range strings.FieldsFunc(line, func(r rune) bool { return r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) }) {
				if _, ok := deprecated[word]; ok {
					t.Errorf("%s:%d: names %s, which is deprecated", doc, i+1, word)
				}
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "benchmark" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if declaredIn, ok := deprecated[id.Name]; ok && declaredIn != path {
					t.Errorf("%s: uses %s, which is deprecated", fset.Position(id.Pos()), id.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// commandFlags collects the flags a command under cmd/ defines — every
// flag-package definition call whose name argument is a string literal — and,
// from the usage text of a flag named "role", the role values.
func commandFlags(t *testing.T, cmd string) (flags, roles map[string]bool) {
	t.Helper()
	flags, roles = map[string]bool{}, map[string]bool{}
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("cmd", cmd), nonTestFile, 0)
	if err != nil {
		t.Fatal(err)
	}
	lit := func(e ast.Expr) (string, bool) {
		b, ok := e.(*ast.BasicLit)
		if !ok || b.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(b.Value)
		return s, err == nil
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !flagDefiner.MatchString(sel.Sel.Name) {
					return true
				}
				// fs.Int(name, default, usage) / fs.IntVar(&v, name, default, usage)
				at := 0
				if strings.HasSuffix(sel.Sel.Name, "Var") {
					at = 1
				}
				if len(call.Args) < at+3 {
					return true
				}
				name, ok := lit(call.Args[at])
				if !ok {
					return true
				}
				flags[name] = true
				if usage, ok := lit(call.Args[len(call.Args)-1]); ok && name == "role" {
					for _, r := range strings.Split(usage, "|") {
						roles[strings.TrimSpace(r)] = true
					}
				}
				return true
			})
		}
	}
	if len(flags) == 0 {
		t.Fatalf("cmd/%s: no flag definitions found; the names gate would pass vacuously", cmd)
	}
	return flags, roles
}

// gancdRoleFlags reads cmd/gancd's roleFlags table — a composite literal of
// {"role", "flag flag …"} rows — into role → the set of flags it reads.
func gancdRoleFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("cmd", "gancd"), nonTestFile, 0)
	if err != nil {
		t.Fatal(err)
	}
	str := func(e ast.Expr) string {
		b, ok := e.(*ast.BasicLit)
		if !ok || b.Kind != token.STRING {
			t.Fatal("cmd/gancd: a roleFlags row holds something other than two string literals")
		}
		s, _ := strconv.Unquote(b.Value)
		return s
	}
	table := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.ValueSpec)
				if !ok || spec.Names[0].Name != "roleFlags" || len(spec.Values) != 1 {
					return true
				}
				for _, elt := range spec.Values[0].(*ast.CompositeLit).Elts {
					row := elt.(*ast.CompositeLit).Elts
					flags := map[string]bool{}
					for _, name := range strings.Fields(str(row[1])) {
						flags[name] = true
					}
					table[str(row[0])] = flags
				}
				return false
			})
		}
	}
	if len(table) == 0 {
		t.Fatal("cmd/gancd: no roleFlags table found; the role-matrix check would pass vacuously")
	}
	return table
}

var (
	optionName  = regexp.MustCompile(`^With[A-Z]\w*$`)
	optionInDoc = regexp.MustCompile(`\bWith[A-Z]\w*`)
	flagDefiner = regexp.MustCompile(`^(String|Int|Int64|Uint|Uint64|Float64|Bool|Duration)(Var)?$`)
	flagInDoc   = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	// qualifiedInDoc matches pkg.Ident and pkg.Type.Member; a lower-case
	// member (a metric such as core.sweep_self_us, a file such as simulate.go)
	// ends the match and is not checked.
	qualifiedInDoc = regexp.MustCompile(`\b([a-z][a-z0-9]*)((?:\.[A-Z]\w*)+)`)
	// markdownInDoc matches a relative *.md path that is a whole code span or
	// a link target (an anchor may follow it).
	markdownInDoc = regexp.MustCompile("`([\\w./-]+\\.md)`|\\]\\(([\\w./-]+\\.md)(?:#[^)]*)?\\)")
	// seriesInDoc matches a code span that names a metric series, labels or
	// not.
	seriesInDoc = regexp.MustCompile(`^ganc_[a-z_]+`)
	// testInDoc matches the name of a function `go test` runs, or — ending
	// in `*` or `_` — the prefix of several.
	testInDoc = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_]\w*\*?`)
	// routeInDoc matches a method and the path it is sent to; a query string
	// or a prose full stop ends the path.
	routeInDoc = regexp.MustCompile(`\b(GET|POST|PUT|DELETE) (/[a-z/_-]*[a-z])`)
	// registryFlags, registryCalls and registryShapes say which registry a
	// name in a document is meant for: the flag it is the value of, the
	// constructor it is the first argument of, the family its shape puts it in.
	registryFlags     = map[string]string{"arec": "base", "rerank": "reranker", "crec": "coverage", "preset": "preset"}
	registryCalls     = map[string]string{"WithBaseNamed": "base", "NewBaseScorer": "base", "NewReranker": "reranker", "ParseCoverage": "coverage", "GeneratePreset": "preset"}
	registryCallInDoc = regexp.MustCompile(`\b(WithBaseNamed|NewBaseScorer|NewReranker|ParseCoverage|GeneratePreset)\("([^"]*)"`)
	registryShapes    = map[string]*regexp.Regexp{
		"reranker": regexp.MustCompile(`^(5D|RBT|PRA)-[\w-]+$`),
		"preset":   regexp.MustCompile(`^M[LT]-\d+[KM]$`),
		"base":     regexp.MustCompile(`^PSVD\d+$`),
	}
	// matrixRow matches a row of README's gancd role matrix (the table under
	// matrixHead): the role, then its required-flags and optional-flags cells.
	matrixRow = regexp.MustCompile("^\\| `([a-z]+)` \\| ([^|]*) \\| ([^|]*) \\|")
)

// docSurfaces stands up the HTTP surfaces the documents describe — a primary
// shard node (the serving routes behind the stream routes) and a router, each
// with admission control and a registry, the router with its failure
// detector — and returns the metric families they register and a probe for
// the routes they mount. A family is read back through the strict parser from
// the rendered registry after one request (per-route series appear with
// their first request); a route is mounted when some surface answers the
// method on the path with anything but its mux's 404 or a 405.
func docSurfaces(t *testing.T) (families map[string]bool, mounted func(method, path string) bool) {
	t.Helper()
	families = map[string]bool{}
	var handlers []http.Handler
	collect := func(reg *MetricsRegistry, h http.Handler) {
		t.Helper()
		handlers = append(handlers, h)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/health", nil))
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		scrape, err := ParseMetricsText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for name := range scrape.Types {
			families[name] = true
		}
	}
	admission := AdmissionConfig{RatePerSec: 1000, MaxConcurrent: 8}

	reg := NewMetricsRegistry()
	node, err := OpenShardNode(buildPersistablePipeline(t, persistSplit(t, 3).Train, "Pop"), ShardIdentity{NumShards: 1},
		filepath.Join(t.TempDir(), "node.wal"), "", 0, WithMetrics(reg), WithServerAdmission(admission))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	if err := node.MakePrimary(nil, 0); err != nil {
		t.Fatal(err)
	}
	collect(reg, node.Handler())

	// A ring that declares a replica, so the router starts its detector; the
	// addresses refuse connections, which is all its first probe needs.
	ring, err := cluster.NewRing(1, 0, []cluster.ShardInfo{{ID: 0, Addr: "127.0.0.1:1", Replicas: []string{"127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	reg = NewMetricsRegistry()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Ring: ring, Metrics: reg, Admission: admission})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	collect(reg, rt.Handler())

	mounted = func(method, path string) bool {
		for _, h := range handlers {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
			muxMiss := w.Code == http.StatusNotFound && strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain")
			if !muxMiss && w.Code != http.StatusMethodNotAllowed {
				return true
			}
		}
		return false
	}
	return families, mounted
}

func TestDocsNameOnlyWhatExists(t *testing.T) {
	pkgs := modulePackages(t)
	options, identifiers := declaredOptions(pkgs), declaredIdentifiers(pkgs)
	series, mounted := docSurfaces(t)
	if !mounted("GET", "/health") || mounted("GET", "/no-such-route") || mounted("POST", "/health") {
		t.Fatal("the route probe cannot tell a mounted route from a missing one; the route check would pass or fail for the wrong reason")
	}
	tests := declaredTests(t)
	if !tests["TestDocsNameOnlyWhatExists"] || !tests["Example_quickstart"] {
		t.Fatalf("the module's test files yielded %d functions and not this one; the test-name check would fail for the wrong reason", len(tests))
	}
	if !series["ganc_cache_hits_total"] || !series["ganc_router_fanout_total"] || !series["ganc_admission_admitted_total"] || !series["ganc_detector_probes_total"] {
		t.Fatalf("the rendered registries are missing whole layers (%d families); the series check would pass or fail for the wrong reason", len(series))
	}
	// A code span that is nothing but flags (a cell of a flag matrix) names no
	// command, so it is held to anyFlag: the union of every command's flags
	// plus the go tool flags the documents quote. Invocations are checked for
	// the three commands whose flags this round keeps pruning.
	cmdFlags := map[string]map[string]bool{}
	anyFlag := map[string]bool{"race": true, "tags": true, "short": true}
	var roles map[string]bool
	for _, cmd := range []string{"gancd", "loadgen", "ganc", "experiments", "datagen"} {
		flags, r := commandFlags(t, cmd)
		for name := range flags {
			anyFlag[name] = true
		}
		switch cmd {
		case "gancd":
			cmdFlags[cmd], roles = flags, r
		case "loadgen", "ganc":
			cmdFlags[cmd] = flags
		}
	}
	if len(roles) < 2 {
		t.Fatalf("gancd's -role usage text yielded the roles %v; the names gate reads them from it", roles)
	}

	// checkInvocation vets the words after a command name: every -flag must
	// be one the command defines, every -role value one it runs. It stops at
	// the end of the command (a pipe, a chain, a comment).
	checkInvocation := func(where, cmd string, words []string) {
		for k := 0; k < len(words); k++ {
			w := words[k]
			if w == "|" || w == "&&" || w == "||" || w == ";" || w == "&" || strings.HasPrefix(w, "#") {
				return
			}
			m := flagInDoc.FindStringSubmatch(w)
			if m == nil {
				continue
			}
			if !cmdFlags[cmd][m[1]] {
				t.Errorf("%s: %s has no flag -%s", where, cmd, m[1])
			}
			if m[1] == "role" && cmd == "gancd" && k+1 < len(words) {
				if role := strings.Trim(words[k+1], "`'\".,;:)"); !roles[role] {
					t.Errorf("%s: gancd has no -role %q", where, role)
				}
			}
		}
	}
	// invocations finds each command name in a run of text and checks what
	// follows it.
	invocations := func(where, text string) {
		words := strings.Fields(text)
		for k, w := range words {
			for cmd := range cmdFlags {
				if w == cmd || strings.HasSuffix(w, "/"+cmd) {
					checkInvocation(where, cmd, words[k+1:])
				}
			}
		}
	}

	// checkMatrixRow holds a row of README's role matrix to gancd's table:
	// required and optional cells together name the role's flags, all of them
	// and no others.
	const matrixHead = "| role | required flags | optional flags |"
	roleFlags := gancdRoleFlags(t)
	matrixRows, inMatrix := 0, false
	checkMatrixRow := func(where, role, cells string) {
		matrixRows++
		listed := map[string]bool{}
		for _, w := range strings.Fields(strings.ReplaceAll(cells, "`", " ")) {
			name := strings.TrimPrefix(w, "-")
			listed[name] = true
			if !roleFlags[role][name] {
				t.Errorf("%s: the matrix lists %s for -role %s, which gancd's roleFlags table says the role does not read", where, w, role)
			}
		}
		for name := range roleFlags[role] {
			if !listed[name] {
				t.Errorf("%s: -role %s reads -%s (gancd's roleFlags table), and the matrix leaves it out", where, role, name)
			}
		}
	}

	// checkRun vets what a reader would hand to `go test -run` or send to a
	// node: test-function names and routes, in a code span or a fenced line.
	// A name is a prefix when it ends in `*` or `_`, or stands in a -run or
	// -bench pattern, which matches anywhere in a name.
	checkRun := func(where, text string) {
		pattern := strings.Contains(text, "-run") || strings.Contains(text, "-bench")
		for _, name := range testInDoc.FindAllString(text, -1) {
			prefix := strings.TrimSuffix(name, "*")
			known := tests[name]
			if pattern || prefix != name || strings.HasSuffix(name, "_") {
				for declared := range tests {
					known = known || strings.HasPrefix(declared, prefix)
				}
			}
			if !known {
				t.Errorf("%s: no test file declares %s", where, name)
			}
		}
		for _, m := range routeInDoc.FindAllStringSubmatch(text, -1) {
			if !mounted(m[1], m[2]) {
				t.Errorf("%s: no server, shard node or router answers %s %s", where, m[1], m[2])
			}
		}
	}

	// checkRegistry vets the names a reader passes to a registry — base
	// models, re-rankers, coverage recommenders, dataset presets — wherever a
	// code span or a fenced line shows which registry a name is meant for:
	// the value of a flag that takes one, the string handed to a constructor
	// that resolves one, and a token shaped like a family of names (`PRA-10`,
	// `ML-1M`, `PSVD100`). list says the text is a whole code span: a comma
	// list that opens with a registry's name is a list of that registry.
	registries := map[string]map[string]bool{"base": {}, "reranker": {"none": true}, "coverage": {}, "preset": {}}
	for kind, names := range map[string][]string{
		"base": BaseNames(), "reranker": RerankerNames(), "coverage": CoverageNames(), "preset": synth.PresetNames(),
	} {
		for _, name := range names {
			registries[kind][name] = true
		}
	}
	checkRegistry := func(where, text string, list bool) {
		need := func(kind, name string) {
			if !registries[kind][name] {
				t.Errorf("%s: %q is not a registered %s name (in `%s`)", where, name, kind, text)
			}
		}
		words := strings.Fields(text)
		for k, w := range words[:max(len(words)-1, 0)] {
			m := flagInDoc.FindStringSubmatch(w)
			if m == nil {
				continue
			}
			value := strings.Trim(words[k+1], "`'\".,;:)")
			if kind := registryFlags[m[1]]; kind != "" {
				need(kind, value)
			} else if m[1] == "compare" {
				for _, combo := range strings.Split(value, ",") {
					if at := strings.IndexByte(combo, '@'); at >= 0 {
						need("reranker", combo[:at])
						combo = combo[at+1:]
					}
					need("base", combo)
				}
			}
		}
		for _, m := range registryCallInDoc.FindAllStringSubmatch(text, -1) {
			need(registryCalls[m[1]], m[2])
		}
		for _, tok := range strings.FieldsFunc(text, func(r rune) bool {
			return r != '-' && !unicode.IsLetter(r) && !unicode.IsDigit(r)
		}) {
			for kind, shape := range registryShapes {
				if shape.MatchString(tok) {
					need(kind, tok)
				}
			}
		}
		if entries := strings.Split(text, ", "); list && len(entries) > 1 {
			for _, kind := range []string{"base", "reranker", "coverage", "preset"} {
				if !registries[kind][entries[0]] {
					continue
				}
				for _, name := range entries[1:] {
					if strings.ContainsAny(name, " ()") {
						return // prose or a template, not a list of names
					}
				}
				for _, name := range entries[1:] {
					need(kind, name)
				}
				return
			}
		}
	}

	docs := []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	deprecated := deprecatedRootNames(t)
	// The shim benchmark/inputs.go still calls; ROADMAP item 9(e) deletes the
	// call, the three names and this guard together.
	if _, ok := deprecated["WithScoringPrecision"]; !ok || len(deprecated) != 3 {
		t.Fatalf("the root package's deprecated names read as %v; the deprecated-name check would pass for the wrong reason", deprecated)
	}
	checkDeprecatedUnused(t, deprecated, docs)
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		fenced := false
		for i := 0; i < len(lines); i++ {
			where := fmt.Sprintf("%s:%d", doc, i+1)
			line := lines[i]
			for _, name := range optionInDoc.FindAllString(line, -1) {
				if !options[name] {
					t.Errorf("%s: no option %s is declared anywhere in the module", where, name)
				}
			}
			for _, m := range markdownInDoc.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(m[1] + m[2]); err != nil {
					t.Errorf("%s: names the file %s, which is not in the tree", where, m[1]+m[2])
				}
			}
			inMatrix = strings.HasPrefix(line, matrixHead) || (inMatrix && strings.HasPrefix(line, "|"))
			if m := matrixRow.FindStringSubmatch(line); m != nil && inMatrix {
				checkMatrixRow(where, m[1], m[2]+" "+m[3])
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				// A shell command, with its backslash continuations.
				for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
					i++
					line = strings.TrimSuffix(line, "\\") + " " + lines[i]
				}
				invocations(where, line)
				checkRun(where, line)
				checkRegistry(where, line, false)
				continue
			}
			// Prose: only inline code spans name commands and flags.
			for k, span := range strings.Split(line, "`") {
				if k%2 == 0 {
					continue
				}
				invocations(where, span)
				checkRun(where, span)
				checkRegistry(where, span, true)
				if name := seriesInDoc.FindString(span); name != "" && !series[name] {
					t.Errorf("%s: no server, router or admission controller registers the series %s", where, name)
				}
				for _, m := range qualifiedInDoc.FindAllStringSubmatch(span, -1) {
					names, ours := identifiers[m[1]]
					if !ours {
						continue // a standard-library package, a receiver, a file
					}
					for _, name := range strings.Split(m[2], ".")[1:] {
						if !names[name] {
							t.Errorf("%s: package %s declares no %s (in `%s`)", where, m[1], name, span)
						}
					}
				}
				// (Double-dash spans are benchmark/run.sh's options, not flags.)
				if strings.HasPrefix(span, "-") && !strings.HasPrefix(span, "--") {
					for _, w := range strings.FieldsFunc(span, func(r rune) bool { return r == ' ' || r == '/' }) {
						if m := flagInDoc.FindStringSubmatch(w); m != nil && !anyFlag[m[1]] {
							t.Errorf("%s: no command defines the flag -%s", where, m[1])
						}
					}
				}
			}
		}
	}
	if matrixRows != len(roleFlags) {
		t.Errorf("README's role matrix has %d rows for gancd's %d roles", matrixRows, len(roleFlags))
	}
}
