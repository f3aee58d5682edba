package warehouse_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
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
// payload — is internal/journal's, and the replication log, snapshots and
// accumulator states are written and read through it. A file
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
	through := map[string]bool{"internal/ingest": false, "internal/replicate": false, "internal/snapshot": false, "internal/delta": false}
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

// testSupport lists the packages under internal/ that exist for tests, one
// reason each. Both product rules read it: such a package needs no product
// importer, and neither its declarations nor its calls count for the
// per-declaration rule.
var testSupport = map[string]string{
	"internal/check":               "the differential harness's generator and oracle",
	"internal/check/trial":         "the harness's runner, which drives the packages above the facade",
	"internal/journal/journaltest": "the power-loss disk the journal tests and the runner write through",
	"internal/sqlparse/legacy":     "the reference parser FuzzParseDifferential compares the parser against",
}

// TestEveryInternalPackageHasAProductImporter: every package under internal/
// is reached from the facade or a command through the imports of non-test
// files. A package that only a test, an Example or the benchmark reaches is a
// mechanism nothing ships, kept in step with the product for no user. The
// exceptions are the packages that exist for tests, one reason each; an
// exception that is gone, or that product code now reaches, fails too.
func TestEveryInternalPackageHasAProductImporter(t *testing.T) {
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
		switch _, exempt := testSupport[dir]; {
		case !reached[dir] && !exempt:
			t.Errorf("%s is imported by no non-test file the facade or a command reaches (tests, Examples and bench/ do not count): delete it, or list why tests need it", dir)
		case reached[dir] && exempt:
			t.Errorf("%s is listed as test support but product code imports it: drop it from the list", dir)
		}
	}
	for dir := range testSupport {
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
	var oracle [][2]string      // file, import
	walked := map[string]bool{} // the directories of the files the walk parsed
	nonTestImports(t, []string{"."}, func(path, imported string) {
		walked[filepath.ToSlash(filepath.Dir(path))] = true
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
	// The walk must reach the facade's own files, a command and a package
	// under internal/ beside the oracle, or it is looking in the wrong place.
	for _, dir := range []string{".", "cmd/whshell", "internal/core"} {
		if !walked[dir] {
			t.Errorf("the walk parsed no file of %s: the guard is looking in the wrong place", dir)
		}
	}
	if len(oracle) == 0 {
		t.Errorf("the walk found no import of internal/check's files: the guard is looking in the wrong place")
	}
}

// checkedPackage is one package of the module, type-checked from its non-test
// files.
type checkedPackage struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// moduleChecker type-checks the module's packages from source. A repro/...
// import resolves to the module's own directory; the standard library comes
// through the source importer, so nothing is built or downloaded.
type moduleChecker struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPackage // by directory; nil while being checked
}

func newModuleChecker() *moduleChecker {
	fset := token.NewFileSet()
	return &moduleChecker{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checkedPackage{}}
}

func (m *moduleChecker) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "repro/")
	if path == "repro" {
		dir, ok = ".", true
	}
	if !ok {
		return m.std.Import(path)
	}
	p, err := m.check(dir)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (m *moduleChecker) check(dir string) (*checkedPackage, error) {
	if p, ok := m.pkgs[dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p, nil
	}
	m.pkgs[dir] = nil
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &checkedPackage{dir: dir, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	path := "repro"
	if dir != "." {
		path += "/" + dir
	}
	p.types, err = (&types.Config{Importer: m}).Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[dir] = p
	return p, nil
}

// Why a function or method no product path reaches stays.
const (
	reasonModel    = "the paper's model (C1–C8, Appendix B's graphs, the strategy space), which the planners' output is checked against"
	reasonHarness  = "test support: the differential harness (internal/check) and the package tests hold the product to it"
	reasonFailover = "the failover the harness rehearses (internal/check/trial): elect a follower, promote it, redirect and catch up the rest"
	reasonFixture  = "the VDAG and reference-count literals the planner, strategy and exec tests are written in"
	reasonItem1    = "ROADMAP item 1's fixed-size batches: the batch-seq workload is to stage them"
	reasonItem25   = "ROADMAP item 25: only bench/, a module of its own, calls it; item 25 deletes it with that call"
	reasonReadLog  = "a journal read whole, every window kept: bench/'s follower replay and internal/check/trial read a shipped log through it; the product folds a journal as it reads it (journal.Fold)"
)

// unreachedBecause lists the functions and methods under internal/ that no
// product path reaches and that stay, one reason each (see
// TestEveryInternalFunctionHasAProductCaller).
var unreachedBecause = map[string]string{
	"core.Warehouse.ShareTuner":              reasonItem25,
	"cost.UniformRefs":                       reasonFixture,
	"delta.GroupPartials.Accumulate":         reasonHarness,
	"exec.PairsOf":                           reasonItem25,
	"exec.RefsOf":                            reasonItem25,
	"exec.WidthOf":                           reasonItem25,
	"faults.Injector.CrashAt":                reasonHarness,
	"faults.Injector.FailAt":                 reasonHarness,
	"faults.Injector.FailTimes":              reasonHarness,
	"faults.Injector.PanicAt":                reasonHarness,
	"faults.Injector.PanicCrashAt":           reasonHarness,
	"faults.Injector.SetProbability":         reasonHarness,
	"faults.Injector.add":                    reasonHarness,
	"journal.Fold.LastAccept":                reasonHarness,
	"journal.Log.InFlight":                   reasonReadLog,
	"journal.ReadLog":                        reasonReadLog,
	"planner.ConstructSEG":                   reasonModel,
	"planner.ExprGraph.IsAcyclic":            reasonModel,
	"planner.PruneShared":                    reasonItem25,
	"relation.Tuple.Clone":                   reasonItem25,
	"replicate.Elect":                        reasonFailover,
	"replicate.Follower.CatchUp":             reasonFailover,
	"replicate.Follower.Promote":             reasonFailover,
	"replicate.Follower.Redirect":            reasonFailover,
	"replicate.Follower.Warehouse":           reasonHarness,
	"replicate.Leader.Warehouse":             reasonHarness,
	"replicate.NewLeaderFrom":                reasonFailover,
	"serve.Server.Warehouse":                 reasonHarness,
	"storage.Table.CheckGroups":              reasonHarness,
	"storage.Table.CheckIndexes":             reasonHarness,
	"storage.Table.Delete":                   reasonHarness,
	"storage.Table.Equal":                    reasonHarness,
	"storage.Table.Insert":                   reasonHarness,
	"strategy.EnumerateOneWayViewStrategies": reasonModel,
	"strategy.EnumerateVDAGStrategies":       reasonModel,
	"strategy.EnumerateViewStrategies":       reasonModel,
	"strategy.IsConsistent":                  reasonModel,
	"strategy.IsStronglyConsistent":          reasonModel,
	"strategy.Permutations":                  reasonModel,
	"strategy.Strategy.InstOrder":            reasonModel,
	"strategy.Strategy.IsOneWay":             reasonModel,
	"strategy.UsedViewStrategy":              reasonModel,
	"strategy.ValidateViewStrategy":          reasonModel,
	"strategy.VisitPermutations":             reasonModel,
	"strategy.interleave":                    reasonModel,
	"strategy.orderingPos":                   reasonModel,
	"strategy.visitPermutations":             reasonModel,
	"tpcd.MixedRows":                         reasonItem1,
	"vdag.Graph.DerivedViews":                reasonModel,
	"vdag.MustBuild":                         reasonFixture,
}

// TestEveryInternalFunctionHasAProductCaller is the package rule per
// declaration: every function and method declared in a non-test file under
// internal/ is reached from the product. The roots are the facade's exported
// functions and methods, each command's main, and every init function and
// package-level initialiser; reach follows the references in the bodies of
// what is reached. Tests, the test-support packages and bench/ call nothing.
// A generic method counts as its origin, and a method that satisfies an
// interface the product names counts as reached, so the rule can miss dead
// code but never fails on live code. An unreached name fails unless
// unreachedBecause gives it a reason; a listed name that is gone, or that the
// product now reaches, fails too.
func TestEveryInternalFunctionHasAProductCaller(t *testing.T) {
	m := newModuleChecker()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		dir := filepath.ToSlash(path)
		if _, support := testSupport[dir]; dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "bench" || d.Name() == "testdata" || support) {
			return filepath.SkipDir
		}
		if files, _ := filepath.Glob(filepath.Join(path, "*.go")); !slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
			return nil
		}
		_, err = m.check(dir)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	pkgOf := map[*types.Func]*checkedPackage{}
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	reach := func(f *types.Func) {
		if f = f.Origin(); !reached[f] {
			reached[f] = true
			queue = append(queue, f)
		}
	}
	// callees calls reach on every function or method the node refers to.
	callees := func(p *checkedPackage, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := p.info.Uses[id].(*types.Func); ok {
					reach(f)
				}
			}
			return true
		})
	}
	var named []*types.TypeName // the module's defined types
	interfaces := map[*types.Interface]bool{}
	addInterface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			interfaces[it] = true
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					decls[fn], pkgOf[fn] = d, p
					switch {
					case d.Name.Name == "init" && d.Recv == nil,
						d.Name.Name == "main" && d.Recv == nil && p.types.Name() == "main",
						p.dir == "." && d.Name.IsExported():
						reach(fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						callees(p, d) // package-level initialisers run at start
					}
				}
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn)
			}
		}
		for _, tv := range p.info.Types { // every type the package writes, interface literals included
			if tv.IsType() {
				addInterface(tv.Type)
			}
		}
		for _, imp := range p.types.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					addInterface(tn.Type())
				}
			}
		}
	}
	// A method that satisfies an interface the product names may be called
	// through it.
	for _, tn := range named {
		if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			ms := types.NewMethodSet(typ)
			if ms.Len() == 0 {
				continue
			}
			for it := range interfaces {
				if !types.Implements(typ, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
						reach(sel.Obj().(*types.Func))
					}
				}
			}
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		if d, ok := decls[f]; ok {
			callees(pkgOf[f], d)
		}
	}

	declared := map[string]bool{}
	for fn, d := range decls {
		dir := pkgOf[fn].dir
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		name := strings.TrimPrefix(dir, "internal/") + "." + fn.Name()
		if d.Recv != nil {
			recv := fn.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			name = strings.TrimPrefix(dir, "internal/") + "." + recv.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		declared[name] = true
		switch _, listed := unreachedBecause[name]; {
		case !reached[fn] && !listed:
			t.Errorf("%s (%s) is reached by no product path (tests, test support and bench/ do not count): delete it, or list why it stays", name, m.fset.Position(d.Pos()))
		case reached[fn] && listed:
			t.Errorf("%s is listed as unreached but the product reaches it: drop it from the list", name)
		}
	}
	for name := range unreachedBecause {
		if !declared[name] {
			t.Errorf("%s is listed as unreached but no longer exists: drop it from the list", name)
		}
	}
	if len(m.pkgs) < 25 || len(declared) < 300 {
		t.Fatalf("checked %d packages, resolved %d declarations under internal/: the rule is looking in the wrong place", len(m.pkgs), len(declared))
	}
}
