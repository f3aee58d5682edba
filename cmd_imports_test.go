package warehouse_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCommandsEnterWindowsThroughTheFacade: RunWindowOpts, Recover and
// OpenJournal are how a command runs, resumes and journals a window. A
// command that imports internal/recovery or internal/journal is growing a
// window path of its own beside them — the drift PR 20 removed from
// cmd/whupdate (its own planner switch, journal open, torn-tail cut, spill
// sweep and in-place branch, planning with a model the facade does not use).
func TestCommandsEnterWindowsThroughTheFacade(t *testing.T) {
	banned := map[string]bool{"repro/internal/recovery": true, "repro/internal/journal": true}
	checked := 0
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); banned[p] {
				t.Errorf("%s imports %s: run windows through the warehouse facade", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 3 {
		t.Fatalf("parsed %d command files under cmd/: the guard is looking in the wrong place", checked)
	}
}
