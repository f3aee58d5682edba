package warehouse_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// nonTestImports calls fn with every import of every non-test Go file under
// the roots and returns how many files it parsed.
func nonTestImports(t *testing.T, roots []string, fn func(path, imported string)) int {
	t.Helper()
	files := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				if d != nil && d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bench") {
					return filepath.SkipDir // bench/ is a module of its own
				}
				return err
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				imported, _ := strconv.Unquote(imp.Path.Value)
				fn(filepath.ToSlash(path), imported)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestCommandsEnterWindowsThroughTheFacade: RunWindowOpts, Recover and
// OpenJournal are how a command or an experiment runs, resumes and journals
// a window. One that imports internal/recovery or internal/journal is growing
// a window path of its own beside them — the drift PR 20 removed from
// cmd/whupdate (since deleted) and PR 23 from the fault-tolerance experiment.
func TestCommandsEnterWindowsThroughTheFacade(t *testing.T) {
	banned := map[string]bool{"repro/internal/recovery": true, "repro/internal/journal": true}
	checked := nonTestImports(t, []string{"cmd", "internal/experiments"}, func(path, imported string) {
		if banned[imported] {
			t.Errorf("%s imports %s: run windows through the warehouse facade", path, imported)
		}
	})
	if checked < 7 {
		t.Fatalf("parsed %d files under cmd/ and internal/experiments: the guard is looking in the wrong place", checked)
	}
}

// TestOnlyTheJournalFramesRecords: the record format — its frames, their
// CRC64, the scan over them, the cut of a torn tail, the cursor that reads a
// payload — is internal/journal's, and the replication log, snapshots, spill
// files and accumulator states are written and read through it. A file
// outside it that imports hash/crc64 is checking or framing records on its
// own again: the second copy a durability fix does not reach. The packages
// listed keep row digests of their own. And the format is a leaf: a journal
// that imported the warehouse's runtime could not be imported by it.
func TestOnlyTheJournalFramesRecords(t *testing.T) {
	own := []string{"internal/journal/", "internal/cowmap/", "internal/delta/"}
	runtime := map[string]bool{}
	for _, pkg := range []string{"core", "delta", "storage", "exec", "recovery"} {
		runtime["repro/internal/"+pkg] = true
	}
	through := map[string]bool{"internal/ingest": false, "internal/replicate": false, "internal/snapshot": false, "internal/storage": false, "internal/delta": false}
	nonTestImports(t, []string{"."}, func(path, imported string) {
		dir := filepath.ToSlash(filepath.Dir(path))
		switch {
		case imported == "repro/internal/journal":
			if _, ok := through[dir]; ok {
				through[dir] = true
			}
		case imported == "hash/crc64" && !slices.ContainsFunc(own, func(p string) bool { return strings.HasPrefix(path, p) }):
			t.Errorf("%s imports hash/crc64: records are framed and checked by internal/journal", path)
		case runtime[imported] && strings.HasPrefix(path, "internal/journal/"):
			t.Errorf("%s imports %s: the record format imports none of the warehouse's runtime", path, imported)
		}
	})
	for dir, ok := range through {
		if !ok {
			t.Errorf("no file of %s imports internal/journal: the guard is looking in the wrong place", dir)
		}
	}
}

// TestEveryInternalPackageHasAProductImporter: every package under internal/
// is reached from the facade or a command through the imports of non-test
// files. A package that only a test, an Example or the benchmark reaches is a
// mechanism nothing ships, kept in step with the product for no user. The
// exceptions are the packages that exist for tests, one reason each; an
// exception that is gone, or that product code now reaches, fails too.
func TestEveryInternalPackageHasAProductImporter(t *testing.T) {
	testOnly := map[string]string{
		"internal/check":               "the differential harness's generator and oracle",
		"internal/check/trial":         "the harness's runner, which drives the packages above the facade",
		"internal/journal/journaltest": "the power-loss disk the journal tests and the runner write through",
		"internal/sqlparse/legacy":     "the reference parser FuzzParseDifferential compares the parser against",
	}
	packages := map[string]bool{} // directories under internal/ holding a non-test Go file
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			packages[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string][]string{} // package directory → directories of the module packages it imports
	nonTestImports(t, []string{"."}, func(path, imported string) {
		dep, ok := strings.CutPrefix(imported, "repro/")
		if imported == "repro" {
			dep, ok = ".", true
		}
		if ok {
			dir := filepath.ToSlash(filepath.Dir(path))
			imports[dir] = append(imports[dir], dep)
		}
	})
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		if !reached[dir] {
			reached[dir] = true
			for _, dep := range imports[dir] {
				visit(dep)
			}
		}
	}
	visit(".")
	for dir := range imports {
		if strings.HasPrefix(dir, "cmd/") {
			visit(dir)
		}
	}
	for dir := range packages {
		switch _, exempt := testOnly[dir]; {
		case !reached[dir] && !exempt:
			t.Errorf("%s is imported by no non-test file the facade or a command reaches (tests, Examples and bench/ do not count): delete it, or list why tests need it", dir)
		case reached[dir] && exempt:
			t.Errorf("%s is listed as test support but product code imports it: drop it from the list", dir)
		}
	}
	for dir := range testOnly {
		if !packages[dir] {
			t.Errorf("%s is listed as test support but no longer exists: drop it from the list", dir)
		}
	}
	if len(packages) < 25 || len(reached) < 25 {
		t.Fatalf("found %d packages under internal/, reached %d: the guard is looking in the wrong place", len(packages), len(reached))
	}
}

// TestOracleImportRules: only tests import internal/check and its runner —
// product code that did would link the generator and the testing package into
// a binary — and the non-test files of internal/check itself import only the
// facade and what the facade's own files import, so that in-package tests of
// the packages above the facade (internal/replicate, internal/ingest,
// internal/recovery) can import it without a cycle. The runner,
// internal/check/trial, drives those packages: external test packages only.
func TestOracleImportRules(t *testing.T) {
	facade := map[string]bool{"repro": true}
	var oracle [][2]string // file, import
	checked := nonTestImports(t, []string{"."}, func(path, imported string) {
		switch {
		case !strings.Contains(path, "/"):
			facade[imported] = true
		case strings.HasPrefix(path, "internal/check/trial/"):
		case strings.HasPrefix(path, "internal/check/"):
			oracle = append(oracle, [2]string{path, imported})
		case strings.HasPrefix(imported, "repro/internal/check"):
			t.Errorf("%s imports %s outside a test", path, imported)
		}
	})
	for _, imp := range oracle {
		if strings.HasPrefix(imp[1], "repro") && !facade[imp[1]] {
			t.Errorf("%s imports %s, which the facade does not: a test of that package could no longer import internal/check", imp[0], imp[1])
		}
	}
	if checked < 80 || len(oracle) == 0 {
		t.Fatalf("parsed %d files of the module, %d imports of internal/check: the guard is looking in the wrong place", checked, len(oracle))
	}
}
