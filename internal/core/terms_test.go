package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

var schemaT = relation.Schema{{Name: "c", Kind: relation.KindInt}, {Name: "d", Kind: relation.KindInt}}

// newThreeWayWarehouse builds base R(a,b), S(b,c), T(c,d), the SPJ view
// V3 = R ⋈ S ⋈ T (on b and c, selecting a, d) and the summary view
// A3 = SELECT a, COUNT(*), SUM(d) over the same join — both three-ref
// views, so Comp over all three children evaluates 2^3−1 = 7 terms and the
// build cache has real sharing to find.
func newThreeWayWarehouse(t *testing.T, opts Options) *Warehouse {
	t.Helper()
	w := New(opts)
	for _, base := range []struct {
		name   string
		schema relation.Schema
	}{{"R", schemaR}, {"S", schemaS}, {"T", schemaT}} {
		if err := w.DefineBase(base.name, base.schema); err != nil {
			t.Fatal(err)
		}
	}
	vb := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS).From("tt", "T", schemaT)
	vb.Join("r.b", "s.b").Join("s.c", "tt.c").SelectCol("r.a").SelectCol("tt.d")
	v3, err := vb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("V3", v3); err != nil {
		t.Fatal(err)
	}
	ab := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS).From("tt", "T", schemaT)
	ab.Join("r.b", "s.b").Join("s.c", "tt.c").GroupByCol("r.a")
	ab.Agg("n", delta.AggCount, nil).Agg("total", delta.AggSum, ab.Col("tt.d"))
	a3, err := ab.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("A3", a3); err != nil {
		t.Fatal(err)
	}
	return w
}

// stageRandomChanges loads random base data, refreshes, and stages a mixed
// change batch per base view: deletes of loaded rows plus fresh inserts,
// with multiplicities > 1 so bag semantics are exercised.
func stageRandomChanges(t *testing.T, w *Warehouse, rng *rand.Rand) {
	t.Helper()
	loaded := map[string][]relation.Tuple{}
	gen := func(name string, n int, mk func() relation.Tuple) {
		rows := make([]relation.Tuple, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, mk())
		}
		if err := w.LoadBase(name, rows); err != nil {
			t.Fatal(err)
		}
		loaded[name] = rows
	}
	gen("R", 40+rng.Intn(40), func() relation.Tuple { return intRow(rng.Int63n(10), rng.Int63n(5)) })
	gen("S", 30+rng.Intn(30), func() relation.Tuple { return intRow(rng.Int63n(5), rng.Int63n(5)) })
	gen("T", 30+rng.Intn(30), func() relation.Tuple { return intRow(rng.Int63n(5), rng.Int63n(100)) })
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	schemas := map[string]relation.Schema{"R": schemaR, "S": schemaS, "T": schemaT}
	for name, rows := range loaded {
		d := delta.New(schemas[name])
		for _, tup := range rows {
			if rng.Intn(4) == 0 {
				d.Add(tup, -1)
			}
		}
		for i := 0; i < 5+rng.Intn(10); i++ {
			d.Add(intRow(rng.Int63n(10), rng.Int63n(5)), 1+rng.Int63n(3))
		}
		if err := w.StageDelta(name, d); err != nil {
			t.Fatal(err)
		}
	}
}

// refWork is the linear work metric of Comp(view, over) computed from
// operand cardinalities alone, independently of the engine: each of the
// 2^r − 1 terms scans every reference once — its pending delta where the
// term's subset selects it, its state otherwise. Valid for definitions that
// reference each view once.
func refWork(t *testing.T, w *Warehouse, view string, over []string) int64 {
	t.Helper()
	refs := w.MustView(view).Def().Refs
	var work int64
	for subset := 1; subset < 1<<len(over); subset++ {
		for _, ref := range refs {
			card := w.MustView(ref.View).Cardinality()
			for i, o := range over {
				if o == ref.View && subset&(1<<i) != 0 {
					n, err := w.DeltaSize(o)
					if err != nil {
						t.Fatal(err)
					}
					card = n
				}
			}
			work += card
		}
	}
	return work
}

// TestThreeWayCompWorkAndCounters runs the seven terms of a three-way Comp
// for an SPJ and a summary view on random staged changes: the work must
// equal the cardinality-derived refWork, the multi-delta terms must share
// build tables through the run's cache, the state sides must be index steps,
// and the installed states must survive the recomputation oracle. Both
// states of the join indexes are run: not there yet, so that the terms build
// them at their first probes, and resident beforehand, as every window after
// a warehouse's first finds them.
func TestThreeWayCompWorkAndCounters(t *testing.T) {
	for _, resident := range []bool{false, true} {
		threeWayCompWorkAndCounters(t, resident)
	}
}

func threeWayCompWorkAndCounters(t *testing.T, resident bool) {
	over := []string{"R", "S", "T"}
	rng := rand.New(rand.NewSource(7))
	w := newThreeWayWarehouse(t, Options{})
	stageRandomChanges(t, w, rng)
	if resident {
		for view, cols := range map[string][][]int{"R": {{1}}, "S": {{0}, {1}}, "T": {{0}}} {
			for _, c := range cols {
				w.MustView(view).Table().JoinIndex(c)
			}
		}
	}

	for _, view := range []string{"V3", "A3"} {
		ref := refWork(t, w, view, over)
		rep, err := w.Compute(view, over)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Terms != 7 {
			t.Fatalf("%s: %d terms, want 2^3−1", view, rep.Terms)
		}
		if rep.OperandTuples != ref {
			t.Fatalf("%s: OperandTuples %d, cardinalities give %d — neither the build cache nor an index may change the linear work metric",
				view, rep.OperandTuples, ref)
		}
		// 7 terms over 3 deltas: the terms with two or three of them
		// build the same delta sides, so the cache must fire; every
		// state side is an index step.
		if rep.CacheHits == 0 || rep.CacheMisses == 0 || rep.CacheTuplesSaved <= 0 {
			t.Fatalf("%s: expected build-cache traffic, got hits=%d misses=%d saved=%d",
				view, rep.CacheHits, rep.CacheMisses, rep.CacheTuplesSaved)
		}
		if rep.IndexProbes == 0 {
			t.Fatalf("%s: no index probes", view)
		}
	}
	for view, n := range map[string]int{"R": 1, "S": 2, "T": 1} {
		if st := w.MustView(view).IndexStats(); len(st) != n {
			t.Fatalf("resident=%v: %s ends with %d indexes, want %d: %v", resident, view, len(st), n, st)
		}
	}
	for _, view := range []string{"V3", "A3", "R", "S", "T"} {
		if _, err := w.Install(view); err != nil {
			t.Fatalf("install %s: %v", view, err)
		}
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatalf("resident=%v: diverged from recomputation: %v", resident, err)
	}
}

// TestSingleRefCompute checks the degenerate cases: a one-ref view (single
// term, no cache sharing) and an empty change batch.
func TestSingleRefCompute(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)

	d := delta.New(schemaR)
	d.Add(intRow(7, 10), 2)
	d.Add(intRow(1, 10), -1)
	if err := w.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	rep, err := w.Compute("J", []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terms != 1 || rep.CacheHits != 0 {
		t.Fatalf("single-ref compute: terms=%d hits=%d", rep.Terms, rep.CacheHits)
	}
	if _, err := w.Compute("A", []string{"J"}); err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"R", "J", "A"} {
		if _, err := w.Install(view); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}

	// Nothing staged: Compute must produce an empty delta.
	if _, err := w.Compute("J", []string{"R"}); err != nil {
		t.Fatal(err)
	}
	dj, err := w.DeltaOf("J")
	if err != nil {
		t.Fatal(err)
	}
	if !dj.IsEmpty() {
		t.Fatalf("expected empty delta, got %d changes", dj.Size())
	}
}

// newSiblingWarehouse builds base R(a,b), S(b,c) and n sibling join views
// V1..Vn = R ⋈ S on b with distinct selection thresholds — the cross-view
// sibling case: every view's Comp over {R, S} reads the same four operands
// (δR, δS, and the states of R and S), and builds one of the deltas (the
// term over both joins them; the states are read through their indexes).
func newSiblingWarehouse(t *testing.T, n int, opts Options) *Warehouse {
	t.Helper()
	w := New(opts)
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	if err := w.DefineBase("S", schemaS); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		b := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
		b.Join("r.b", "s.b").
			Where(&algebra.Binary{Op: algebra.OpGt, L: b.Col("s.c"), R: &algebra.Const{Value: relation.NewInt(int64(i * 10))}}).
			SelectCol("r.a").SelectCol("s.c")
		cq, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DefineDerived(fmt.Sprintf("V%d", i), cq); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func loadSiblingData(t *testing.T, w *Warehouse) {
	t.Helper()
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
		d.Add(intRow(1000, 3), 1)
		d.Add(intRow(3, 55), 1)
		if err := w.StageDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
}

// runSiblingWindow computes and installs every view dual-stage, returning
// the per-view CompReports.
func runSiblingWindow(t *testing.T, w *Warehouse, n int) []CompReport {
	t.Helper()
	reps := make([]CompReport, n)
	for i := 1; i <= n; i++ {
		rep, err := w.Compute(fmt.Sprintf("V%d", i), []string{"R", "S"})
		if err != nil {
			t.Fatal(err)
		}
		reps[i-1] = rep
	}
	for _, name := range []string{"R", "S", "V1", "V2", "V3"}[:n+2] {
		if _, err := w.Install(name); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// stageBulk stages n more rows — (k, k) for n keys no loaded row carries —
// on each of the named two-column integer base views. State tables are read
// through resident indexes and build nothing, so what a term over two of
// these views builds is a delta: one of the deltas is on its build side, and
// a delta carries no index.
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

// TestSiblingComputesBuildTheirOwn: a build lives and dies inside the
// Compute that made it. Three sibling views read the same operands, and each
// of their Computes builds δS afresh — the same misses, no hits across
// Computes, and the inert shared counters at 0 — while the reported work is
// the cardinalities' and the installed state verifies against recomputation.
func TestSiblingComputesBuildTheirOwn(t *testing.T) {
	const n = 3
	w := newSiblingWarehouse(t, n, Options{})
	loadSiblingData(t, w)
	stageBulk(t, w, 120, "R", "S")
	reps := runSiblingWindow(t, w, n)
	for i, rep := range reps {
		if rep.CacheMisses == 0 || rep.CacheMisses != reps[0].CacheMisses || rep.CacheHits != reps[0].CacheHits {
			t.Errorf("V%d: cache %d hits / %d misses, V1 %d / %d: every sibling builds its own",
				i+1, rep.CacheHits, rep.CacheMisses, reps[0].CacheHits, reps[0].CacheMisses)
		}
		if rep.OperandTuples != reps[0].OperandTuples {
			t.Errorf("V%d: work %d, V1 %d: the siblings read the same operands", i+1, rep.OperandTuples, reps[0].OperandTuples)
		}
		if rep.SharedHits != 0 || rep.SharedMisses != 0 || rep.SharedTuplesSaved != 0 {
			t.Errorf("V%d: shared counters %+v, want 0", i+1, rep.EngineCounters)
		}
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}
