package warehouse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// testName matches what the docs cite as a test: a Test, Fuzz, Benchmark or
// Example function name.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z_][A-Za-z0-9_]*`)

// TestDocsNameTestsThatExist: every test, fuzz target, benchmark and example
// the docs and the verify skill cite by name is a function of some _test.go
// file in the repository (bench/ included). A doc that points at a deleted
// or renamed test sends its reader to a claim nothing checks.
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
	eachDocLine(t, func(doc string, n int, line string) {
		for _, name := range testName.FindAllString(line, -1) {
			if !funcs[name] {
				t.Errorf("%s:%d names %s, which no _test.go file defines", doc, n, name)
			}
		}
	})
}

// eachDocLine calls f with every line, numbered from 1, of the docs and the
// verify skill, which the docs checks hold to the code. docs/PERF.md and
// CHANGES.md are history and are not checked.
func eachDocLine(t *testing.T, f func(doc string, n int, line string)) {
	t.Helper()
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md", "docs/TUTORIAL.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			f(doc, i+1, line)
		}
	}
}

// facadeCall matches what the docs show as a call of a facade method: w.Name(.
var facadeCall = regexp.MustCompile(`\bw\.([A-Z][A-Za-z0-9_]*)\(`)

// TestDocsCallWarehouseMethodsThatExist: every w.Name( the docs and the
// verify skill show is an exported method of *Warehouse, read from the
// package's non-test files, so a deleted or renamed facade method cannot stay
// in a doc as the way to do something.
func TestDocsCallWarehouseMethodsThatExist(t *testing.T) {
	methods, _ := facade(t)
	cited := 0
	eachDocLine(t, func(doc string, n int, line string) {
		for _, m := range facadeCall.FindAllStringSubmatch(line, -1) {
			cited++
			if !slices.Contains(methods, m[1]) {
				t.Errorf("%s:%d calls w.%s, which is no method of *Warehouse", doc, n, m[1])
			}
		}
	})
	if cited < 20 {
		t.Fatalf("found %d facade calls in the docs: the check is looking in the wrong place", cited)
	}
}

// facade parses the package's non-test files and returns the exported
// methods of *Warehouse and the Warehouse type's doc comment.
func facade(t *testing.T) (methods []string, doc string) {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil || !d.Name.IsExported() {
					continue
				}
				if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Warehouse" {
						methods = append(methods, d.Name.Name)
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Warehouse" {
						doc = d.Doc.Text()
					}
				}
			}
		}
	}
	if !slices.Contains(methods, "RunWindowOpts") || doc == "" {
		t.Fatalf("found %d methods and no RunWindowOpts, or no Warehouse doc: the parse is looking in the wrong place", len(methods))
	}
	return methods, doc
}

// TestThreadSafetyContractNamesEveryMethod: the Warehouse doc comment's
// thread-safety contract puts every exported *Warehouse method in exactly one
// of its classes, so a method added without a place in the contract fails
// here.
func TestThreadSafetyContractNamesEveryMethod(t *testing.T) {
	methods, doc := facade(t)
	_, contract, _ := strings.Cut(doc, "# Thread safety")
	// A class is one bullet of the contract: a line opening with "  - " and
	// the indented lines that continue it.
	var classes []map[string]bool
	word := regexp.MustCompile(`\b[A-Z][A-Za-z]*\b`)
	for _, line := range strings.Split(contract, "\n") {
		if strings.HasPrefix(line, "  - ") {
			classes = append(classes, map[string]bool{})
		} else if !strings.HasPrefix(line, "    ") || len(classes) == 0 {
			continue
		}
		for _, name := range word.FindAllString(line, -1) {
			classes[len(classes)-1][name] = true
		}
	}
	if len(classes) == 0 {
		t.Fatalf("the Warehouse doc has no thread-safety classes:\n%s", doc)
	}
	for _, m := range methods {
		n := 0
		for _, class := range classes {
			if class[m] {
				n++
			}
		}
		switch {
		case n == 0:
			t.Errorf("the thread-safety contract puts %s in no class", m)
		case n > 1:
			t.Errorf("the thread-safety contract puts %s in %d classes", m, n)
		}
	}
}

// goCommand matches a `go run` or `go build` of a directory of this module.
var goCommand = regexp.MustCompile(`go (?:run|build)(?: -o \S+)? (\./[A-Za-z0-9_./-]*)`)

// TestDocsRunCommandsThatExist: every `go run ./<dir>` and `go build ./<dir>`
// the docs and the verify skill show names a directory that holds Go files,
// so a deleted command cannot stay cited as a way to run something.
func TestDocsRunCommandsThatExist(t *testing.T) {
	cited := 0
	eachDocLine(t, func(doc string, n int, line string) {
		for _, m := range goCommand.FindAllStringSubmatch(line, -1) {
			cited++
			dir := strings.TrimSuffix(strings.TrimRight(m[1], "."), "/...")
			if gos, _ := filepath.Glob(filepath.Join(dir, "*.go")); len(gos) == 0 {
				t.Errorf("%s:%d runs %s, which holds no Go files", doc, n, m[1])
			}
		}
	})
	if cited < 5 {
		t.Fatalf("found %d go run/build commands in the docs: the check is looking in the wrong place", cited)
	}
}
