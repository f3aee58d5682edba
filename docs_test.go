package warehouse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testName matches what the docs cite as a test: a Test, Fuzz, Benchmark or
// Example function name.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*`)

// TestDocsNameTestsThatExist: every test, fuzz target, benchmark and example
// the docs and the verify skill cite by name is a function of some _test.go
// file in the repository (bench/ included). A doc that points at a deleted
// or renamed test sends its reader to a claim nothing checks. docs/PERF.md
// and CHANGES.md are history and are not checked.
func TestDocsNameTestsThatExist(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !funcs["TestDocsNameTestsThatExist"] {
		t.Fatalf("the walk over _test.go files missed this test's own file: it is looking in the wrong place")
	}
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md", "docs/TUTORIAL.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, name := range testName.FindAllString(line, -1) {
				if !funcs[name] {
					t.Errorf("%s:%d names %s, which no _test.go file defines", doc, i+1, name)
				}
			}
		}
	}
}

// goCommand matches a `go run` or `go build` of a directory of this module.
var goCommand = regexp.MustCompile(`go (?:run|build)(?: -o \S+)? (\./[A-Za-z0-9_./-]*)`)

// TestDocsRunCommandsThatExist: every `go run ./<dir>` and `go build ./<dir>`
// the docs and the verify skill show names a directory that holds Go files,
// so a deleted command cannot stay cited as a way to run something.
// docs/PERF.md and CHANGES.md are history and are not checked.
func TestDocsRunCommandsThatExist(t *testing.T) {
	cited := 0
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md", "docs/TUTORIAL.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range goCommand.FindAllStringSubmatch(line, -1) {
				cited++
				dir := strings.TrimSuffix(strings.TrimRight(m[1], "."), "/...")
				if gos, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gos) == 0 {
					t.Errorf("%s:%d runs %s, which holds no Go files", doc, i+1, m[1])
				}
			}
		}
	}
	if cited < 5 {
		t.Fatalf("found %d go run/build commands in the docs: the check is looking in the wrong place", cited)
	}
}
