package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/faults"
	"repro/internal/relation"
)

// newOneToOneWarehouse builds base R(a,b), S(b,c) with n rows each, joined
// 1:1 on b (row i of R matches exactly row i of S), and V = R ⋈ S. The 1:1
// shape keeps join fanout linear so large n stays fast — what the peak test
// needs to push a build table past a realistic budget.
func newOneToOneWarehouse(t *testing.T, n int, opts Options) *Warehouse {
	t.Helper()
	w := New(opts)
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	if err := w.DefineBase("S", schemaS); err != nil {
		t.Fatal(err)
	}
	b := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
	b.Join("r.b", "s.b").SelectCol("r.a").SelectCol("s.c")
	cq, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("V", cq); err != nil {
		t.Fatal(err)
	}
	var rRows, sRows []relation.Tuple
	for i := int64(0); i < int64(n); i++ {
		rRows = append(rRows, intRow(i, i))
		sRows = append(sRows, intRow(i, i))
	}
	if err := w.LoadBase("R", rRows); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("S", sRows); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"R", "S"} {
		d := delta.New(w.MustView(base).Schema())
		d.Add(intRow(1_000_000, 3), 1)
		d.Add(intRow(3, 55), 1)
		if err := w.StageDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// stageBulk stages n more rows — (k, k) for n keys no loaded row carries —
// on each of the named two-column integer base views. State tables are read
// through resident indexes and build nothing, so what the budget tests make
// too large for the budget is a delta: a term over two of these views has
// one of the deltas on its build side, and a delta carries no index.
func stageBulk(t *testing.T, w *Warehouse, n int, bases ...string) {
	t.Helper()
	for _, base := range bases {
		d := delta.New(w.MustView(base).Schema())
		for i := int64(0); i < int64(n); i++ {
			d.Add(intRow(2_000_000+i, 2_000_000+i), 1)
		}
		if err := w.StageDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
}

// runJoinWindow computes and installs V over {R, S}, returning the CompReport
// — one full update window for the single-view warehouses in this file.
func runJoinWindow(t *testing.T, w *Warehouse) CompReport {
	t.Helper()
	rep, err := w.Compute("V", []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R", "S", "V"} {
		if _, err := w.Install(name); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

// bagOf renders a view's sorted bag for exact comparison.
func bagOf(t *testing.T, w *Warehouse, view string) []string {
	t.Helper()
	var out []string
	for _, r := range w.MustView(view).SortedRows() {
		out = append(out, fmt.Sprintf("%v x%d", r.Tuple, r.Count))
	}
	return out
}

func requireSameBag(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s row %d: %s, want %s", name, i, got[i], want[i])
		}
	}
}

// TestSpilledBuildMatchesUnbounded: a tiny budget forces the delta build of
// the two-delta term to spill; the window's results, work metric, and
// verification must be indistinguishable from the unbounded run — only the
// spill counters move. Runs the term engine at width 1 and 2.
func TestSpilledBuildMatchesUnbounded(t *testing.T) {
	for _, par := range []bool{false, true} {
		name := "width=1"
		if par {
			name = "width=2"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{ParallelTerms: par, Workers: 2}
			plain := newOneToOneWarehouse(t, 120, opts)
			stageBulk(t, plain, 120, "R", "S")
			plainRep := runJoinWindow(t, plain)

			opts.MemoryBudgetBytes = 4096
			bounded := newOneToOneWarehouse(t, 120, opts)
			stageBulk(t, bounded, 120, "R", "S")
			if !bounded.AttachMemory("", nil) {
				t.Fatal("AttachMemory = false")
			}
			rep := runJoinWindow(t, bounded)
			ms := bounded.DetachMemory()

			if rep.SpillCount == 0 || rep.SpilledBytes == 0 || rep.SpillReReadBytes == 0 {
				t.Fatalf("4 KiB budget never spilled: %+v", rep)
			}
			if plainRep.SpillCount != 0 || plainRep.SpilledBytes != 0 {
				t.Fatalf("unbounded run reports spills: %+v", plainRep)
			}
			if rep.OperandTuples != plainRep.OperandTuples {
				t.Errorf("work moved under spilling: %d vs %d", rep.OperandTuples, plainRep.OperandTuples)
			}
			if ms.SpillCount == 0 || ms.PeakReservedBytes == 0 {
				t.Errorf("window MemStats empty: %+v", ms)
			}
			requireSameBag(t, "V", bagOf(t, bounded, "V"), bagOf(t, plain, "V"))
			if err := bounded.VerifyAll(); err != nil {
				t.Fatalf("spilled run corrupted state: %v", err)
			}
		})
	}
}

// TestSpilledCrossProduct: a term with no equi-join keys routes spill rows
// round-robin (hashing a keyless row would put every row in one partition);
// results still match the unbounded run exactly.
func TestSpilledCrossProduct(t *testing.T) {
	build := func(opts Options) *Warehouse {
		w := New(opts)
		if err := w.DefineBase("R", schemaR); err != nil {
			t.Fatal(err)
		}
		if err := w.DefineBase("S", schemaS); err != nil {
			t.Fatal(err)
		}
		b := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
		b.Where(&algebra.Binary{Op: algebra.OpGt, L: b.Col("r.a"), R: b.Col("s.c")}).
			SelectCol("r.a").SelectCol("s.c")
		cq, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DefineDerived("V", cq); err != nil {
			t.Fatal(err)
		}
		var rRows, sRows []relation.Tuple
		for i := int64(0); i < 120; i++ {
			rRows = append(rRows, intRow(i, i%10))
			sRows = append(sRows, intRow(i%10, i))
		}
		if err := w.LoadBase("R", rRows); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadBase("S", sRows); err != nil {
			t.Fatal(err)
		}
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		for _, base := range []string{"R", "S"} {
			d := delta.New(w.MustView(base).Schema())
			d.Add(intRow(60, 2), 1)
			if err := w.StageDelta(base, d); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	plain := build(Options{})
	runJoinWindow(t, plain)

	bounded := build(Options{MemoryBudgetBytes: 4096})
	if !bounded.AttachMemory("", nil) {
		t.Fatal("AttachMemory = false")
	}
	rep := runJoinWindow(t, bounded)
	bounded.DetachMemory()
	if rep.SpillCount == 0 {
		t.Fatal("cross-product build never spilled")
	}
	requireSameBag(t, "V", bagOf(t, bounded, "V"), bagOf(t, plain, "V"))
}

// TestSpilledMultiStepOdometer: a three-way join where several build sides
// spill at once exercises the pass odometer over the cross product of each
// spilled step's partitions — the two delta builds of the three-delta term —
// and the two-delta terms put a spilled step and an index step in one
// pipeline, whose every pass repeats the index probes.
func TestSpilledMultiStepOdometer(t *testing.T) {
	schemaT := relation.Schema{{Name: "c", Kind: relation.KindInt}, {Name: "d", Kind: relation.KindInt}}
	build := func(opts Options) *Warehouse {
		w := New(opts)
		for _, def := range []struct {
			name   string
			schema relation.Schema
		}{{"R", schemaR}, {"S", schemaS}, {"T", schemaT}} {
			if err := w.DefineBase(def.name, def.schema); err != nil {
				t.Fatal(err)
			}
		}
		b := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS).From("t", "T", schemaT)
		b.Join("r.b", "s.b").Join("s.c", "t.c").SelectCol("r.a").SelectCol("t.d")
		cq, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DefineDerived("V", cq); err != nil {
			t.Fatal(err)
		}
		var rRows, sRows, tRows []relation.Tuple
		for i := int64(0); i < 150; i++ {
			rRows = append(rRows, intRow(i, i))
			sRows = append(sRows, intRow(i, i))
			tRows = append(tRows, intRow(i, i*2))
		}
		for view, rows := range map[string][]relation.Tuple{"R": rRows, "S": sRows, "T": tRows} {
			if err := w.LoadBase(view, rows); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		for _, base := range []string{"R", "S", "T"} {
			d := delta.New(w.MustView(base).Schema())
			d.Add(intRow(7, 7), 1)
			d.Add(intRow(1_000_000+3, 3), 1)
			if err := w.StageDelta(base, d); err != nil {
				t.Fatal(err)
			}
		}
		stageBulk(t, w, 150, "R", "S", "T")
		return w
	}
	window := func(w *Warehouse) CompReport {
		rep, err := w.Compute("V", []string{"R", "S", "T"})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"R", "S", "T", "V"} {
			if _, err := w.Install(name); err != nil {
				t.Fatal(err)
			}
		}
		return rep
	}

	plain := build(Options{})
	plainRep := window(plain)

	bounded := build(Options{MemoryBudgetBytes: 4096})
	if !bounded.AttachMemory("", nil) {
		t.Fatal("AttachMemory = false")
	}
	rep := window(bounded)
	bounded.DetachMemory()
	// The δR ⋈ δS ⋈ δT term alone must spill both of its delta builds.
	if rep.SpillCount < 2 {
		t.Fatalf("expected at least two spilled builds, got %d", rep.SpillCount)
	}
	if plainRep.IndexProbes == 0 || rep.IndexProbes <= plainRep.IndexProbes || rep.IndexTuplesSaved != plainRep.IndexTuplesSaved {
		t.Errorf("index probes/saved %d/%d under spilling, %d/%d without: want more probes (one set a pass) and the same saving",
			rep.IndexProbes, rep.IndexTuplesSaved, plainRep.IndexProbes, plainRep.IndexTuplesSaved)
	}
	if rep.OperandTuples != plainRep.OperandTuples {
		t.Errorf("work moved under spilling: %d vs %d", rep.OperandTuples, plainRep.OperandTuples)
	}
	requireSameBag(t, "V", bagOf(t, bounded, "V"), bagOf(t, plain, "V"))
	if err := bounded.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedPeakStaysUnderBudget: at a realistic budget the resident
// head-room scheme keeps the window's true peak (including loaded spill
// partitions) under the configured budget, while the same window unbounded
// provably needs more.
func TestBoundedPeakStaysUnderBudget(t *testing.T) {
	const n = 20000
	const budget = 1 << 20

	// Accounting-only leg: a huge budget admits everything resident, so its
	// peak is the window's unbounded footprint.
	unbounded := newOneToOneWarehouse(t, n, Options{MemoryBudgetBytes: 1 << 40})
	stageBulk(t, unbounded, n, "R", "S")
	if !unbounded.AttachMemory("", nil) {
		t.Fatal("AttachMemory = false")
	}
	uRep := runJoinWindow(t, unbounded)
	uStats := unbounded.DetachMemory()
	if uRep.SpillCount != 0 {
		t.Fatalf("unbounded leg spilled %d builds", uRep.SpillCount)
	}
	if uStats.PeakReservedBytes <= budget {
		t.Fatalf("workload too small to prove anything: unbounded peak %d <= budget %d",
			uStats.PeakReservedBytes, budget)
	}

	bounded := newOneToOneWarehouse(t, n, Options{MemoryBudgetBytes: budget})
	stageBulk(t, bounded, n, "R", "S")
	if !bounded.AttachMemory("", nil) {
		t.Fatal("AttachMemory = false")
	}
	bRep := runJoinWindow(t, bounded)
	bStats := bounded.DetachMemory()
	if bRep.SpillCount == 0 {
		t.Fatal("bounded leg never spilled")
	}
	if bStats.PeakReservedBytes > budget {
		t.Fatalf("bounded peak %d exceeds budget %d", bStats.PeakReservedBytes, budget)
	}
	requireSameBag(t, "V", bagOf(t, bounded, "V"), bagOf(t, unbounded, "V"))
}

// TestSharedEntrySpillsBeforeRecompute: a build of the window's cache that
// does not fit the memory budget is spilled once, kept, and probed
// partition-wise by every later consumer — it is NOT rebuilt (and re-spilled)
// per consumer — and the window's peak stays under the budget. A spill that
// fails fails its Compute and leaves nothing behind in the cache: the same
// Compute, run again, builds afresh and the window completes with the same
// results.
func TestSharedEntrySpillsBeforeRecompute(t *testing.T) {
	const nViews = 3
	// Less than the delta build needs, more than one of its two partitions.
	const budget = 8192
	attach := func(inj *faults.Injector) *Warehouse {
		w := newSiblingWarehouse(t, nViews, Options{ShareComputation: true, MemoryBudgetBytes: budget})
		loadSiblingData(t, w)
		stageBulk(t, w, 120, "R", "S")
		if !w.AttachMemory("", inj) {
			t.Fatal("AttachMemory = false")
		}
		if !w.AttachSharing() {
			t.Fatal("AttachSharing refused")
		}
		return w
	}

	w := attach(nil)
	reps := runSiblingWindow(t, w, nViews)
	stats := w.DetachSharing()
	mem := w.DetachMemory()
	if reps[0].SpillCount != 1 || mem.SpillCount != 1 {
		t.Fatalf("first Compute spilled %d builds, the window %d; want the one delta build spilled once", reps[0].SpillCount, mem.SpillCount)
	}
	for i, rep := range reps[1:] {
		if rep.SharedHits != 1 || rep.SpillCount != 0 || rep.SpillReReadBytes == 0 {
			t.Errorf("V%d: %+v, want the spilled build found and its partitions re-read", i+2, rep.EngineCounters)
		}
	}
	if mem.PeakReservedBytes > budget {
		t.Errorf("peak %d exceeds the %d-byte budget", mem.PeakReservedBytes, budget)
	}
	if len(stats.Detail) != 1 || stats.Detail[0].Hits != nViews-1 {
		t.Errorf("cache detail %+v, want one build hit by the %d later consumers", stats.Detail, nViews-1)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// Spill failure: the first build's spill dies with its Compute.
	inj := faults.New(42)
	inj.FailAt("spill-write", 1)
	w2 := attach(inj)
	if _, err := w2.Compute("V1", []string{"R", "S"}); err == nil {
		t.Fatal("spill fault did not fail the compute")
	}
	if held := len(w2.cache.tables); held != 0 {
		t.Fatalf("the failed build stayed in the cache (%d slots)", held)
	}
	// The failed Compute left part of δV1 behind; a real window would be
	// rerun on a fresh clone (see recovery), here it is enough that the
	// other views, computed after the failure, come out right.
	for i := 2; i <= nViews; i++ {
		if _, err := w2.Compute(fmt.Sprintf("V%d", i), []string{"R", "S"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"R", "S", "V2", "V3"} {
		if _, err := w2.Install(name); err != nil {
			t.Fatal(err)
		}
	}
	w2.DetachSharing()
	w2.DetachMemory()
	requireSameBag(t, "V2", bagOf(t, w2, "V2"), bagOf(t, w, "V2"))
	requireSameBag(t, "V3", bagOf(t, w2, "V3"), bagOf(t, w, "V3"))
}

// TestSpillENOSPCSurfacesWithStateIntact: a full disk during spilling fails
// the Compute with an error satisfying errors.Is(err, ENOSPC), and the
// installed state is untouched — the degradation ladder above can rerun.
func TestSpillENOSPCSurfacesWithStateIntact(t *testing.T) {
	w := newOneToOneWarehouse(t, 120, Options{MemoryBudgetBytes: 4096})
	stageBulk(t, w, 120, "R", "S")
	inj := faults.New(7)
	inj.FailAt("spill-enospc", 1)
	if !w.AttachMemory("", inj) {
		t.Fatal("AttachMemory = false")
	}
	defer w.DetachMemory()
	before := bagOf(t, w, "V")
	_, err := w.Compute("V", []string{"R", "S"})
	if err == nil {
		t.Fatal("ENOSPC fault did not fail the compute")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("error does not report ENOSPC: %v", err)
	}
	requireSameBag(t, "V (installed)", bagOf(t, w, "V"), before)
	if err := w.VerifyAll(); err != nil {
		t.Fatalf("failed spill corrupted installed state: %v", err)
	}
}

// TestCrashMidSpillLeavesDirectory: a crash-class fault during spill I/O must
// leave the spill directory behind (a killed process removes nothing) so the
// stale-dir sweep on the next open is exercised by authentic debris; a clean
// detach removes it, and a window that does not spill never makes it.
func TestCrashMidSpillLeavesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "w1")
	w := newOneToOneWarehouse(t, 120, Options{MemoryBudgetBytes: 4096})
	stageBulk(t, w, 120, "R", "S")
	inj := faults.New(9)
	inj.CrashAt("spill-write", 1)
	if !w.AttachMemory(dir, inj) {
		t.Fatal("AttachMemory = false")
	}
	if _, err := w.Compute("V", []string{"R", "S"}); err == nil {
		t.Fatal("crash fault did not fire")
	}
	w.DetachMemory()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("crashed window left no spill debris (err=%v, %d entries)", err, len(ents))
	}

	dir2 := filepath.Join(t.TempDir(), "w2")
	w2 := newOneToOneWarehouse(t, 120, Options{MemoryBudgetBytes: 4096})
	stageBulk(t, w2, 120, "R", "S")
	if !w2.AttachMemory(dir2, nil) {
		t.Fatal("AttachMemory = false")
	}
	if rep := runJoinWindow(t, w2); rep.SpillCount == 0 {
		t.Fatal("the clean window spilled nothing")
	}
	w2.DetachMemory()
	if _, err := os.Stat(dir2); !os.IsNotExist(err) {
		t.Fatalf("clean detach left the spill dir: %v", err)
	}

	// A window that spills nothing never creates the directory.
	dir3 := filepath.Join(t.TempDir(), "w3")
	w3 := newOneToOneWarehouse(t, 120, Options{MemoryBudgetBytes: 1 << 30})
	stageBulk(t, w3, 120, "R", "S")
	if !w3.AttachMemory(dir3, nil) {
		t.Fatal("AttachMemory = false")
	}
	if rep := runJoinWindow(t, w3); rep.SpillCount != 0 {
		t.Fatalf("a 1 GiB budget spilled %d builds", rep.SpillCount)
	}
	if _, err := os.Stat(dir3); !os.IsNotExist(err) {
		t.Fatalf("a window that spilled nothing created the spill dir: %v", err)
	}
	w3.DetachMemory()
}

// TestAttachMemoryRefusals: no budget or a double attach refuse; DetachMemory with nothing attached is a safe no-op.
func TestAttachMemoryRefusals(t *testing.T) {
	w := newOneToOneWarehouse(t, 10, Options{})
	if w.AttachMemory("", nil) {
		t.Fatal("attach with no budget = true")
	}
	if ms := w.DetachMemory(); ms != (MemStats{}) {
		t.Fatalf("detach with nothing attached: %+v", ms)
	}

	wb := newOneToOneWarehouse(t, 10, Options{MemoryBudgetBytes: 1 << 20})
	if !wb.AttachMemory("", nil) {
		t.Fatal("first attach = false")
	}
	if wb.AttachMemory("", nil) {
		t.Fatal("second attach = true")
	}
	wb.DetachMemory()
}
