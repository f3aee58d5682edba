package core

import (
	"fmt"
	"math/rand"
	"sync"
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

func sameDelta(t *testing.T, label string, a, b *delta.Delta) {
	t.Helper()
	sa, sb := a.Sorted(), b.Sorted()
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d vs %d distinct changes", label, len(sa), len(sb))
	}
	for i := range sa {
		if relation.CompareTuples(sa[i].Tuple, sb[i].Tuple) != 0 || sa[i].Count != sb[i].Count {
			t.Fatalf("%s: change %d differs: %v×%d vs %v×%d",
				label, i, sa[i].Tuple, sa[i].Count, sb[i].Tuple, sb[i].Count)
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

// TestTermEngineWidthInvariant runs the one term engine at width 1 (the
// default) and across worker counts and morsel sizes (including degenerate
// one-row morsels) on the same staged changes: the produced delta bags,
// Terms, OperandTuples, the build-cache accounting and the index counters
// must not depend on the width, the work must equal the cardinality-derived
// refWork, and the installed states must survive the recomputation oracle.
// Both states of the join indexes are run: not there yet, so that the terms
// and morsels of each width build them at their first probes, and resident
// beforehand, as every window after a warehouse's first finds them. (This
// replaces the sequential-vs-parallel differential: there is no second
// evaluator left to compare against.)
func TestTermEngineWidthInvariant(t *testing.T) {
	for _, resident := range []bool{false, true} {
		termEngineWidthInvariant(t, resident)
	}
}

func termEngineWidthInvariant(t *testing.T, resident bool) {
	over := []string{"R", "S", "T"}
	views := []string{"V3", "A3"}
	rng := rand.New(rand.NewSource(7))
	base := newThreeWayWarehouse(t, Options{})
	stageRandomChanges(t, base, rng)
	if resident {
		for view, cols := range map[string][][]int{"R": {{1}}, "S": {{0}, {1}}, "T": {{0}}} {
			for _, c := range cols {
				base.MustView(view).Table().JoinIndex(c)
			}
		}
	}

	one := base.Clone()
	want := make(map[string]CompReport)
	for _, view := range views {
		ref := refWork(t, one, view, over)
		rep, err := one.Compute(view, over)
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
		want[view] = rep
	}
	for view, n := range map[string]int{"R": 1, "S": 2, "T": 1} {
		if st := one.MustView(view).IndexStats(); len(st) != n {
			t.Fatalf("resident=%v: %s ends with %d indexes, want %d: %v", resident, view, len(st), n, st)
		}
	}

	for _, cfg := range []struct{ workers, morsel int }{
		{1, 1}, {1, 1024}, {2, 1}, {4, 4}, {4, 1024}, {8, 16},
	} {
		name := fmt.Sprintf("indexes=%v/workers=%d/morsel=%d", resident, cfg.workers, cfg.morsel)
		t.Run(name, func(t *testing.T) {
			wide := base.Clone()
			wide.SetOptions(Options{
				ParallelTerms: true,
				Workers:       cfg.workers,
				morselSize:    cfg.morsel,
			})
			for _, view := range views {
				rep, err := wide.Compute(view, over)
				if err != nil {
					t.Fatal(err)
				}
				w1 := want[view]
				if rep.Terms != w1.Terms || rep.OperandTuples != w1.OperandTuples || rep.OutputTuples != w1.OutputTuples {
					t.Fatalf("%s: terms/work/output %d/%d/%d, width 1 gives %d/%d/%d", view,
						rep.Terms, rep.OperandTuples, rep.OutputTuples, w1.Terms, w1.OperandTuples, w1.OutputTuples)
				}
				if rep.CacheHits != w1.CacheHits || rep.CacheMisses != w1.CacheMisses || rep.CacheTuplesSaved != w1.CacheTuplesSaved {
					t.Fatalf("%s: cache hits/misses/saved %d/%d/%d, width 1 gives %d/%d/%d", view,
						rep.CacheHits, rep.CacheMisses, rep.CacheTuplesSaved,
						w1.CacheHits, w1.CacheMisses, w1.CacheTuplesSaved)
				}
				if rep.IndexProbes != w1.IndexProbes || rep.IndexTuplesSaved != w1.IndexTuplesSaved {
					t.Fatalf("%s: index probes/saved %d/%d, width 1 gives %d/%d", view,
						rep.IndexProbes, rep.IndexTuplesSaved, w1.IndexProbes, w1.IndexTuplesSaved)
				}
				d1, err := one.DeltaOf(view)
				if err != nil {
					t.Fatal(err)
				}
				dw, err := wide.DeltaOf(view)
				if err != nil {
					t.Fatal(err)
				}
				sameDelta(t, view, dw, d1)
			}
			for _, view := range []string{"V3", "A3", "R", "S", "T"} {
				if _, err := wide.Install(view); err != nil {
					t.Fatalf("install %s: %v", view, err)
				}
			}
			if err := wide.VerifyAll(); err != nil {
				t.Fatalf("width %d diverged from recomputation: %v", cfg.workers, err)
			}
		})
	}

	for _, view := range []string{"V3", "A3", "R", "S", "T"} {
		if _, err := one.Install(view); err != nil {
			t.Fatalf("install %s: %v", view, err)
		}
	}
	if err := one.VerifyAll(); err != nil {
		t.Fatalf("width 1 diverged from recomputation: %v", err)
	}
}

// TestParallelTermsSingleRef checks the degenerate cases: a one-ref view
// (single term, no cache sharing) and an empty change batch.
func TestParallelTermsSingleRef(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	w.SetOptions(Options{ParallelTerms: true, Workers: 4, morselSize: 1})

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

	// Nothing staged: Compute must produce an empty delta without deadlock.
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

// TestWorkerPoolInlineFallback pins the budget semantics: a pool of one
// worker admits zero background goroutines, so every task runs inline on
// the submitter, strictly serially.
func TestWorkerPoolInlineFallback(t *testing.T) {
	p := newWorkerPool(1)
	if cap(p.sem) != 0 {
		t.Fatalf("one-worker pool admits %d background goroutines, want 0", cap(p.sem))
	}
	var wg sync.WaitGroup
	ran := 0
	for i := 0; i < 10; i++ {
		p.do(&wg, func() { ran++ }) // inline: no synchronization needed
	}
	wg.Wait()
	if ran != 10 {
		t.Fatalf("ran %d of 10 tasks", ran)
	}
}
