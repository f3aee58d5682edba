package warehouse_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoUncancellablePauses: a pause in product code waits on a timer and its
// context in one select, so a draining process or a cancelled window never
// sits it out. A non-test file under internal/ or cmd/ that calls time.Sleep
// has a pause nothing can end early. The test-support internal/check/... is
// exempt: its pacing runs inside tests only.
func TestNoUncancellablePauses(t *testing.T) {
	files := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if filepath.ToSlash(path) == "internal/check" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files++
			timeName := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
					timeName = "time"
					if imp.Name != nil {
						timeName = imp.Name.Name
					}
				}
			}
			if timeName == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName {
						pos := fset.Position(call.Pos())
						t.Errorf("%s:%d calls time.Sleep: wait on a timer and the context in one select", filepath.ToSlash(pos.Filename), pos.Line)
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
	if files < 60 {
		t.Fatalf("parsed %d files under internal/ and cmd/: the guard is looking in the wrong place", files)
	}
}
