package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

// TestIndexedTermsMatchRecompute runs random update windows one after
// another on one warehouse, so that the join indexes the first window builds
// are the ones every later install maintains and every later term probes,
// and checks each window against recomputation.
func TestIndexedTermsMatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		w := newJoinWarehouse(t)
		var rRows, sRows []relation.Tuple
		for i := 0; i < 25; i++ {
			rRows = append(rRows, intRow(rng.Int63n(6), rng.Int63n(4)*10))
			sRows = append(sRows, intRow(rng.Int63n(4)*10, rng.Int63n(5)*100))
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
		var probes int64
		for window := 0; window < 4; window++ {
			for _, base := range []string{"R", "S"} {
				d := delta.New(w.MustView(base).Schema())
				for _, row := range w.MustView(base).SortedRows() {
					if rng.Intn(3) == 0 {
						d.Add(row.Tuple, -1)
					}
				}
				for i := 0; i < rng.Intn(5); i++ {
					d.Add(intRow(rng.Int63n(6), rng.Int63n(4)*10), 1)
				}
				if err := w.StageDelta(base, d); err != nil {
					t.Fatal(err)
				}
			}
			for _, step := range [][2]string{{"J", "R"}, {"J", "S"}} {
				rep, err := w.Compute(step[0], []string{step[1]})
				if err != nil {
					t.Fatal(err)
				}
				probes += rep.IndexProbes
				applyStep(t, w, "i"+step[1])
			}
			for _, step := range []string{"cA.J", "iJ", "iA"} {
				applyStep(t, w, step)
			}
			if err := w.VerifyAll(); err != nil {
				t.Fatalf("trial %d window %d: %v", trial, window, err)
			}
		}
		if probes == 0 {
			t.Fatalf("trial %d: four windows made no index probe", trial)
		}
		for _, base := range []string{"R", "S"} {
			if st := w.MustView(base).Table().IndexStats(); len(st) != 1 || st[0].Probes == 0 || st[0].Upkeep == 0 {
				t.Fatalf("trial %d: indexes of %s after four windows: %v", trial, base, st)
			}
		}
	}
}

// TestIndexWorkAccounting: a small delta against a large state operand is
// charged the operand's cardinality, as the linear metric has it, while the
// machine makes one probe; the counters beside OperandTuples say so.
func TestIndexWorkAccounting(t *testing.T) {
	w := newJoinWarehouse(t)
	var sRows []relation.Tuple
	for i := int64(0); i < 500; i++ {
		sRows = append(sRows, intRow(i%7*10, i))
	}
	if err := w.LoadBase("R", []relation.Tuple{intRow(1, 10)}); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("S", sRows); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if st := w.MustView("S").Table().IndexStats(); len(st) != 0 {
		t.Fatalf("refresh — a recompute term — built indexes: %v", st)
	}
	stageOne := func(k int64) {
		d := delta.New(schemaR)
		d.Add(intRow(k, 20), 1)
		if err := w.StageDelta("R", d); err != nil {
			t.Fatal(err)
		}
	}
	// First window: |δR| + |S| = 1 + 500 modelled; one probe made, and the
	// 500 rows read were read to build the index, so nothing was saved yet.
	stageOne(2)
	rep, err := w.Compute("J", []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OperandTuples != 501 || rep.IndexProbes != 1 || rep.IndexTuplesSaved != 0 {
		t.Errorf("first window: work %d, probes %d, saved %d; want 501, 1, 0", rep.OperandTuples, rep.IndexProbes, rep.IndexTuplesSaved)
	}
	applyStep(t, w, "iR")
	// Second window: the index is resident; the whole operand is saved.
	stageOne(3)
	rep, err = w.Compute("J", []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OperandTuples != 501 || rep.IndexProbes != 1 || rep.IndexTuplesSaved != 500 {
		t.Errorf("second window: work %d, probes %d, saved %d; want 501, 1, 500", rep.OperandTuples, rep.IndexProbes, rep.IndexTuplesSaved)
	}
	if st := w.MustView("S").Table().IndexStats(); len(st) != 1 || st[0].Probes != 2 || st[0].Rows != 500 || st[0].Keys != 7 {
		t.Errorf("S's indexes: %v", st)
	}
}

// TestEmptyDeltaBuildsNoIndex: a Comp over a view whose delta is empty is
// charged its state operand by the metric, and the machine does nothing for
// it: no index is built, none is probed.
func TestEmptyDeltaBuildsNoIndex(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	rep, err := w.Compute("J", []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OperandTuples != 3 || rep.IndexProbes != 0 || rep.IndexTuplesSaved != 3 {
		t.Errorf("work %d, probes %d, saved %d; want |R| = 3 charged, no probe, 3 saved", rep.OperandTuples, rep.IndexProbes, rep.IndexTuplesSaved)
	}
	for _, base := range []string{"R", "S"} {
		if st := w.MustView(base).IndexStats(); len(st) != 0 {
			t.Errorf("%s has indexes after an empty-δ Comp: %v", base, st)
		}
	}
}

// TestIndexCreatedOnceAtFirstProbe: the seven terms of a three-way Comp, and
// at width 2 their one-row morsels, all arrive at steps that read the same
// tables; each (table, key) index is built once — the saving of a second,
// warm Comp exceeds the cold one's by one scan of each indexed table per
// index — and nothing is built before a probe needs it.
func TestIndexCreatedOnceAtFirstProbe(t *testing.T) {
	for _, width := range []int{1, 2} {
		w := newThreeWayWarehouse(t, Options{ParallelTerms: width > 1, Workers: width, MorselSize: 1})
		stageRandomChanges(t, w, rand.New(rand.NewSource(11)))
		for _, base := range []string{"R", "S", "T"} {
			if st := w.MustView(base).IndexStats(); len(st) != 0 {
				t.Fatalf("width %d: %s has indexes before any Comp: %v", width, base, st)
			}
		}
		over := []string{"R", "S", "T"}
		cold, err := w.Compute("V3", over)
		if err != nil {
			t.Fatal(err)
		}
		var built int64
		for base, want := range map[string]int{"R": 1, "S": 2, "T": 1} { // S is joined on b and on c
			st := w.MustView(base).IndexStats()
			if len(st) != want {
				t.Fatalf("width %d: %s has %d indexes after the Comp, want %d: %v", width, base, len(st), want, st)
			}
			for _, ix := range st {
				built += ix.Rows
			}
		}
		warm, err := w.Compute("A3", over) // the same join, the indexes now resident
		if err != nil {
			t.Fatal(err)
		}
		if warm.IndexProbes != cold.IndexProbes || warm.IndexTuplesSaved-cold.IndexTuplesSaved != built {
			t.Errorf("width %d: cold probes/saved %d/%d, warm %d/%d: want the same probes and %d more tuples saved",
				width, cold.IndexProbes, cold.IndexTuplesSaved, warm.IndexProbes, warm.IndexTuplesSaved, built)
		}
	}
}

// TestTwoDeltasOneState: in the two-delta term of a Comp over {R, S} on the
// three-way join, one delta drives, the other is a transient build and T's
// state is an index step, all in one pipeline.
func TestTwoDeltasOneState(t *testing.T) {
	w := newThreeWayWarehouse(t, Options{})
	stageRandomChanges(t, w, rand.New(rand.NewSource(5)))
	over := []string{"R", "S"}
	want := refWork(t, w, "V3", over)
	rep, err := w.Compute("V3", over)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terms != 3 || rep.OperandTuples != want {
		t.Fatalf("%d terms, work %d; want 3 terms and the cardinalities' %d", rep.Terms, rep.OperandTuples, want)
	}
	if rep.CacheMisses != 1 || rep.IndexProbes == 0 {
		t.Fatalf("builds %d, index probes %d; want the one delta build and some probes", rep.CacheMisses, rep.IndexProbes)
	}
	if _, err := w.Compute("A3", over); err != nil {
		t.Fatal(err)
	}
	for _, view := range []string{"R", "S", "V3", "A3"} {
		if _, err := w.Install(view); err != nil {
			t.Fatal(err)
		}
	}
	// T's delta is still pending: bring it in the one-way, then verify.
	for _, view := range []string{"V3", "A3"} {
		if _, err := w.Compute(view, []string{"T"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, view := range []string{"T", "V3", "A3"} {
		if _, err := w.Install(view); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

var (
	schemaD = relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "x", Kind: relation.KindInt}}
	schemaA = relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "y", Kind: relation.KindInt}}
	schemaB = relation.Schema{{Name: "y", Kind: relation.KindInt}, {Name: "z", Kind: relation.KindInt}}
)

// newChainWarehouse builds base D(k,x), A(k,y), B(y,z) — nD, nA and nB rows —
// and two sibling views Vi = D ⋈ A ⋈ B (d.k = a.k, a.y = b.y) with distinct
// selections, refreshed, with a δD of nDelta new rows staged: under
// Comp(Vi, {D}) both views join the same δD with the same two plain-table
// states.
func newChainWarehouse(t *testing.T, opts Options, nD, nA, nB, nDelta int64) *Warehouse {
	t.Helper()
	w := New(opts)
	for _, b := range []struct {
		name string
		sch  relation.Schema
	}{{"D", schemaD}, {"A", schemaA}, {"B", schemaB}} {
		if err := w.DefineBase(b.name, b.sch); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 2; i++ {
		b := algebra.NewBuilder().From("d", "D", schemaD).From("a", "A", schemaA).From("b", "B", schemaB)
		b.Join("d.k", "a.k").Join("a.y", "b.y").
			Where(&algebra.Binary{Op: algebra.OpGt, L: b.Col("b.z"), R: &algebra.Const{Value: relation.NewInt(i)}}).
			SelectCol("d.x").SelectCol("b.z")
		cq, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DefineDerived(fmt.Sprintf("V%d", i), cq); err != nil {
			t.Fatal(err)
		}
	}
	rows := func(n int64, row func(i int64) relation.Tuple) []relation.Tuple {
		out := make([]relation.Tuple, n)
		for i := range out {
			out[i] = row(int64(i))
		}
		return out
	}
	for name, r := range map[string][]relation.Tuple{
		"D": rows(nD, func(i int64) relation.Tuple { return intRow(i, i*3) }),
		"A": rows(nA, func(i int64) relation.Tuple { return intRow(i, i%nB) }),
		"B": rows(nB, func(j int64) relation.Tuple { return intRow(j, j*2) }),
	} {
		if err := w.LoadBase(name, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	d := delta.New(schemaD)
	for i := int64(0); i < nDelta; i++ {
		d.Add(intRow(i*(nA/nDelta), -i), 1)
	}
	if err := w.StageDelta("D", d); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSiblingCompsProbeIndexes: two sibling Comps that join one delta with
// the same pair of plain-table states go through the tables' resident
// indexes — no build, no scan of either state once the indexes exist —
// whether or not the build cache is kept for the window, at width 1 and 2;
// and with the cache kept, at the size where it used to matter (sharing
// turned this window 30× slower: an elected A⋈B join intermediate took
// precedence over the index steps and scanned both states to materialize
// their join).
func TestSiblingCompsProbeIndexes(t *testing.T) {
	for _, c := range []struct {
		share, parallel    bool
		nD, nA, nB, nDelta int64
	}{
		{false, false, 2000, 2000, 250, 20},
		{false, true, 2000, 2000, 250, 20},
		{true, false, 2000, 2000, 250, 20},
		{true, true, 2000, 2000, 250, 20},
		{true, false, 40000, 40000, 5000, 400},
	} {
		t.Run(fmt.Sprintf("share=%v/parallel=%v/rows=%d", c.share, c.parallel, c.nA), func(t *testing.T) {
			w := newChainWarehouse(t, Options{ShareComputation: c.share, ParallelTerms: c.parallel, Workers: 2}, c.nD, c.nA, c.nB, c.nDelta)
			if attached := w.AttachSharing(); attached != c.share {
				t.Fatalf("AttachSharing = %v, want %v", attached, c.share)
			}
			for i := 1; i <= 2; i++ {
				rep, err := w.Compute(fmt.Sprintf("V%d", i), []string{"D"})
				if err != nil {
					t.Fatal(err)
				}
				if want := c.nDelta + c.nA + c.nB; rep.OperandTuples != want {
					t.Errorf("V%d: work %d, want |δD|+|A|+|B| = %d", i, rep.OperandTuples, want)
				}
				if rep.IndexProbes < c.nDelta || rep.CacheMisses != 0 || rep.SharedHits+rep.SharedMisses != 0 {
					t.Errorf("V%d: %+v, want both join steps served by indexes and nothing built", i, rep.EngineCounters)
				}
				// V1 scans A and B once to create the indexes; V2 finds them.
				if want := int64(i-1) * (c.nA + c.nB); rep.IndexTuplesSaved != want {
					t.Errorf("V%d: IndexTuplesSaved %d, want %d", i, rep.IndexTuplesSaved, want)
				}
			}
			if stats := w.DetachSharing(); len(stats.Detail) != 0 || stats.BytesPeak != 0 {
				t.Errorf("the window's cache held %+v", stats)
			}
			for _, name := range []string{"D", "V1", "V2"} {
				if _, err := w.Install(name); err != nil {
					t.Fatal(err)
				}
			}
			if c.nA > 2000 {
				return // the counters are the point at this size; the small legs verify
			}
			if err := w.VerifyAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
