package ganc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The CI gate check. `go test -run X` passes when X selects nothing — it
// prints "no tests to run" and exits 0 — so a gate whose test was renamed or
// deleted would go on passing having checked nothing. This reads the
// workflow's own commands and fails on any that selects nothing.

const ciWorkflow = ".github/workflows/ci.yml"

// ciCommand is one `go test` invocation of the workflow.
type ciCommand struct {
	line  int
	run   string // the -run pattern, "" when absent
	bench string // the -bench pattern, "" when absent
	fuzz  string // the -fuzz target, "" when absent
	pkgs  []string
}

// ciCommands returns every `go test` command of the workflow's lines.
func ciCommands(t *testing.T, lines []string) []ciCommand {
	t.Helper()
	var out []ciCommand
	for n, line := range lines {
		at := strings.Index(line, "go test ")
		if at < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		cmd := ciCommand{line: n + 1}
		args := shellFields(t, line[at+len("go test "):])
		for k := 0; k < len(args); k++ {
			switch arg := args[k]; {
			case arg == "-run" || arg == "-bench" || arg == "-fuzz":
				if k+1 == len(args) {
					t.Fatalf("%s:%d: %s has no value", ciWorkflow, n+1, arg)
				}
				k++
				switch arg {
				case "-run":
					cmd.run = args[k]
				case "-bench":
					cmd.bench = args[k]
				default:
					cmd.fuzz = args[k]
				}
			case strings.HasPrefix(arg, "."):
				cmd.pkgs = append(cmd.pkgs, arg)
			}
		}
		out = append(out, cmd)
	}
	return out
}

// shellFields splits a command line into words, honouring single and double
// quotes (the workflow quotes its alternations).
func shellFields(t *testing.T, s string) []string {
	t.Helper()
	var words []string
	var word strings.Builder
	inWord := false
	for k := 0; k < len(s); k++ {
		switch c := s[k]; c {
		case ' ', '\t':
			if inWord {
				words, inWord = append(words, word.String()), false
				word.Reset()
			}
		case '\'', '"':
			end := strings.IndexByte(s[k+1:], c)
			if end < 0 {
				t.Fatalf("unterminated quote in %q", s)
			}
			word.WriteString(s[k+1 : k+1+end])
			k, inWord = k+1+end, true
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		words = append(words, word.String())
	}
	return words
}

// testFuncsByDir maps each package directory of the module to the top-level
// functions its test files declare, whatever their build tags.
func testFuncsByDir(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, dir := range collectPackageDirs(t) {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool { return !nonTestFile(fi) }, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
						out[dir] = append(out[dir], fn.Name.Name)
					}
				}
			}
		}
	}
	return out
}

// funcsIn returns the declared test functions, of the given prefix, of the
// packages a command names ("./..." names them all).
func funcsIn(decls map[string][]string, pkgs []string, prefix string) []string {
	var out []string
	for dir, names := range decls {
		for _, pkg := range pkgs {
			if pkg == "./..." || filepath.Clean(pkg) == dir {
				for _, name := range names {
					if strings.HasPrefix(name, prefix) {
						out = append(out, name)
					}
				}
				break
			}
		}
	}
	return out
}

// TestCIGatesSelectTests: every alternative of every -run pattern in the
// workflow matches a Test or Fuzz function of the packages its command
// names, and every -bench alternative a Benchmark of them (a -run beside a
// -bench or a -fuzz is meant to select nothing); every fuzz target in the
// tree is run by the fuzz smoke step, from the package declaring it, and the
// step's name counts them right.
func TestCIGatesSelectTests(t *testing.T) {
	data, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	decls := testFuncsByDir(t)
	matchesAny := func(pattern string, names []string) bool {
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("pattern %q: %v", pattern, err)
		}
		for _, name := range names {
			if re.MatchString(name) {
				return true
			}
		}
		return false
	}

	for _, cmd := range ciCommands(t, lines) {
		if len(cmd.pkgs) == 0 {
			t.Errorf("%s:%d: a go test command names no package", ciWorkflow, cmd.line)
			continue
		}
		if cmd.run != "" && cmd.bench == "" && cmd.fuzz == "" {
			names := append(funcsIn(decls, cmd.pkgs, "Test"), funcsIn(decls, cmd.pkgs, "Fuzz")...)
			for _, alt := range strings.Split(cmd.run, "|") {
				if !matchesAny(alt, names) {
					t.Errorf("%s:%d: -run alternative %q matches no Test or Fuzz function of %v", ciWorkflow, cmd.line, alt, cmd.pkgs)
				}
			}
		}
		if cmd.bench != "" {
			for _, alt := range strings.Split(cmd.bench, "|") {
				if !matchesAny(alt, funcsIn(decls, cmd.pkgs, "Benchmark")) {
					t.Errorf("%s:%d: -bench alternative %q matches no Benchmark function of %v", ciWorkflow, cmd.line, alt, cmd.pkgs)
				}
			}
		}
	}

	// The fuzz smoke step: from its name line to the next step.
	start := -1
	for n, line := range lines {
		if strings.Contains(line, "name: Fuzz smoke") {
			start = n
			break
		}
	}
	if start < 0 {
		t.Fatalf("%s has no fuzz smoke step", ciWorkflow)
	}
	end := len(lines)
	nextStep := regexp.MustCompile(`^\s*- (name|uses):`)
	for n := start + 1; n < len(lines); n++ {
		if nextStep.MatchString(lines[n]) {
			end = n
			break
		}
	}
	smoked := map[string]bool{}
	for _, cmd := range ciCommands(t, lines[start:end]) {
		if cmd.fuzz == "" {
			continue
		}
		smoked[cmd.fuzz] = true
		if len(cmd.pkgs) != 1 || !matchesAny("^"+cmd.fuzz+"$", funcsIn(decls, cmd.pkgs, "Fuzz")) {
			t.Errorf("%s:%d: fuzz target %s is not declared in %v", ciWorkflow, start+cmd.line, cmd.fuzz, cmd.pkgs)
		}
	}
	var targets []string
	for _, names := range decls {
		for _, name := range names {
			if strings.HasPrefix(name, "Fuzz") {
				targets = append(targets, name)
				if !smoked[name] {
					t.Errorf("fuzz target %s is not run by the fuzz smoke step", name)
				}
			}
		}
	}
	sort.Strings(targets)
	count := regexp.MustCompile(`all (\d+) targets`).FindStringSubmatch(lines[start])
	if count == nil {
		t.Fatalf("%s:%d: the fuzz smoke step's name does not say \"all N targets\"", ciWorkflow, start+1)
	}
	if n, _ := strconv.Atoi(count[1]); n != len(targets) {
		t.Errorf("%s:%d: the fuzz smoke step says all %d targets; the tree has %d: %v", ciWorkflow, start+1, n, len(targets), targets)
	}
}
