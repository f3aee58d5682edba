package tpcd

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/strategy"
)

// TestMultiWindow drives several consecutive update windows over the same
// TPC-D warehouse with alternating change mixes, verifying state after each
// — the steady-state operation the paper's periodic-update model assumes.
func TestMultiWindow(t *testing.T) {
	tw, err := NewWarehouse(Config{SF: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	specs := []ChangeSpec{
		UniformDecrease(0.05),
		Mixed(0.03, 0.08), // net growth
		COLDecrease(0.04),
		Mixed(0.06, 0.02), // net shrink
	}
	for i, spec := range specs {
		spec.Seed = int64(100 + i)
		if _, err := tw.StageChanges(spec); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		stats, err := exec.PlanningStats(tw.W)
		if err != nil {
			t.Fatal(err)
		}
		res, err := planner.MinWork(tw.Graph, stats)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Execute(tw.W, res.Strategy, exec.Options{Validate: true}); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if err := tw.W.VerifyAll(); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		if pv := tw.W.PendingViews(); len(pv) != 0 {
			t.Fatalf("window %d left pending: %v", i, pv)
		}
	}
	// Sizes evolved across windows but stayed positive.
	for _, v := range BaseViews {
		if tw.W.MustView(v).Cardinality() <= 0 && v != Region {
			t.Errorf("%s emptied out", v)
		}
	}
}

// TestScaleSF01 runs a full update window at SF 0.01 (~75k LINEITEM rows
// after capping) — an order of magnitude above the unit tests — to check
// the engine, planner and verifier at scale. Skipped with -short.
func TestScaleSF01(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	tw, err := NewWarehouse(Config{SF: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	li := tw.W.MustView(LineItem).Cardinality()
	if li < 50_000 {
		t.Fatalf("|LINEITEM| = %d, expected ≥50k at SF 0.01", li)
	}
	if _, err := tw.StageChanges(Mixed(0.05, 0.05)); err != nil {
		t.Fatal(err)
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		t.Fatal(err)
	}
	res, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exec.Execute(tw.W, res.Strategy, exec.Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalWork() == 0 {
		t.Fatal("no work measured")
	}
	if err := tw.W.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	t.Logf("SF 0.01 window: %s", rep)
}

// TestOneWayWindowsBuildNothing pins what made the window-wide build cache,
// the join intermediates and the share tuner unnecessary: under a 1-way
// strategy every Comp has one term, its delta drives, and every state it
// joins is a plain table read through a resident index — so a TPC-D window
// asks the build cache for nothing, whichever planner chose the strategy. A change that brings state builds back fails here, not only in the
// benchmark; so does one that changes which join indexes stay resident.
func TestOneWayWindowsBuildNothing(t *testing.T) {
	for _, prune := range []bool{false, true} {
		tw, err := NewWarehouse(Config{SF: 0.001, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for win := 0; win < 3; win++ {
			spec := Mixed(0.03, 0.04)
			spec.Seed = int64(200 + win)
			if _, err := tw.StageChanges(spec); err != nil {
				t.Fatal(err)
			}
			stats, err := exec.PlanningStats(tw.W)
			if err != nil {
				t.Fatal(err)
			}
			var s strategy.Strategy
			if prune {
				res, err := planner.Prune(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W))
				if err != nil {
					t.Fatal(err)
				}
				s = res.Strategy
			} else {
				res, err := planner.MinWork(tw.Graph, stats)
				if err != nil {
					t.Fatal(err)
				}
				s = res.Strategy
			}
			rep, err := exec.Execute(tw.W, s, exec.Options{Validate: true})
			if err != nil {
				t.Fatal(err)
			}
			var c core.EngineCounters
			for _, step := range rep.Steps {
				c.Add(step.EngineCounters)
			}
			if c.CacheMisses != 0 || c.CacheHits != 0 {
				t.Errorf("prune %v, window %d: %+v, want no build asked for", prune, win, c)
			}
			// From the second window on the indexes are resident: what the
			// metric charges for the states, no scan reads.
			if c.IndexProbes == 0 || (win > 0 && c.IndexTuplesSaved == 0) {
				t.Errorf("prune %v, window %d: %d index probes, %d tuples saved", prune, win, c.IndexProbes, c.IndexTuplesSaved)
			}
		}
		if err := tw.W.VerifyAll(); err != nil {
			t.Fatal(err)
		}
		// Whichever planner ran, every step a delta drives looks up a key
		// (column 0) where the join graph has one: seven indexes in all, each
		// on one column, one of them not a key (ORDER[1], the δCUSTOMER
		// terms' O_CUSTKEY). The δLINEITEM term that reaches SUPPLIER after
		// CUSTOMER binds its key and nation, probes SUPPLIER[0] and checks
		// the nation on the row it yields.
		var got []string
		for _, name := range tw.W.ViewNames() {
			for _, st := range tw.W.MustView(name).IndexStats() {
				got = append(got, fmt.Sprint(name, st.Cols))
			}
		}
		slices.Sort(got)
		if want := "CUSTOMER[0] LINEITEM[0] NATION[0] ORDER[0] ORDER[1] REGION[0] SUPPLIER[0]"; strings.Join(got, " ") != want {
			t.Errorf("prune %v: resident indexes %v, want %s", prune, got, want)
		}
	}
}

// gateRows is the scale gate's batch: the rows deleted from each of
// CUSTOMER, ORDER and LINEITEM, and as many fresh ones inserted, at every
// scale factor.
var gateRows = map[string]int64{Customer: 20, Order: 100, LineItem: 200}

// TestMixedRowsStagesItsCounts: the absolute form of a ChangeSpec stages the
// rows it asks for whatever the warehouse's size.
func TestMixedRowsStagesItsCounts(t *testing.T) {
	for _, sf := range []float64{0.001, 0.01} {
		tw, err := NewWarehouse(Config{SF: sf, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := tw.StageChanges(MixedRows(gateRows))
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{}
		for v, n := range gateRows {
			want[v] = 2 * n
		}
		if !maps.Equal(sizes, want) {
			t.Errorf("SF %v: staged %v, want %v", sf, sizes, want)
		}
	}
	tw, err := NewWarehouse(Config{SF: 0.001, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ChangeSpec{
		{DeleteRows: map[string]int64{Region: 6}},
		{DeleteRows: map[string]int64{Order: -1}},
		{DeleteFrac: map[string]float64{Order: 0.1}, DeleteRows: map[string]int64{Order: 1}},
	} {
		if _, err := tw.StageChanges(spec); err == nil {
			t.Errorf("%+v staged", spec)
		}
	}
}

// tiled returns the SF 0.001 warehouse of seed 7 at ten times its size: its
// SUPPLIER, CUSTOMER, ORDER and LINEITEM rows, and nine copies of them whose
// keys — and the foreign keys that point at them — are shifted past the
// ones before, beside the same 25 nations and 5 regions. That is SF 0.01's
// row counts and per-key fan-outs (10 orders a customer, 4 lines an order,
// 60 customers and 4 suppliers a nation), and its first tenth is the SF
// 0.001 warehouse row for row. Fresh keys start past the tenth copy, in it
// and in the SF 0.001 warehouse alike, so that a batch staged on one
// applies to the other.
func tiled(t *testing.T) (small, large *Warehouse) {
	t.Helper()
	const copies = 10
	for _, w := range []**Warehouse{&small, &large} {
		tw, err := NewWarehouse(Config{SF: 0.001, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []string{Supplier, Customer, Order} {
			tw.gen.nextKey[v] *= copies
		}
		*w = tw
	}
	n := RowCounts(0.001)
	shift := map[string]map[int]int64{ // view → column → key range of a copy
		Supplier: {0: int64(n[Supplier])},
		Customer: {0: int64(n[Customer])},
		Order:    {0: int64(n[Order]), 1: int64(n[Customer])},
		LineItem: {0: int64(n[Order]), 2: int64(n[Supplier])},
	}
	for view, cols := range shift {
		var rows []relation.Tuple
		for c := int64(1); c < copies; c++ {
			for _, r := range small.W.MustView(view).SortedRows() {
				row := slices.Clone(r.Tuple)
				for col, width := range cols {
					row[col] = relation.NewInt(row[col].Int() + c*width)
				}
				rows = append(rows, row)
			}
		}
		if err := large.W.LoadBase(view, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := large.W.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	return small, large
}

// TestWindowWorkFollowsTheBatch is the paper's title as a counted check: a
// window's machine work follows its batch, not the warehouse. The same
// batch (gateRows, drawn on the SF 0.001 warehouse) runs at SF 0.001 and at
// SF 0.01 (tiled: the SF 0.001 rows are its first tenth, so scale is the
// only variable, not the draw of the data), under one MinWork strategy on
// the default engine, after one warm window that makes the join indexes
// resident and places the written tables' rows. Across the 10× scale every
// Comp step's index probes and the rows those probes yield, and every Inst
// step's rows installed, must stay within gateBound: each join step a
// delta drives looks up a key. A step that joins on a column shared by a
// tenth of a table — CUSTOMER on its nation — yields ten times the rows
// at SF 0.01. Allocated bytes per window are logged beside them, not
// bounded.
func TestWindowWorkFollowsTheBatch(t *testing.T) {
	const gateBound = 1.25
	small, large := tiled(t)
	var s strategy.Strategy
	var reps [2]exec.Report
	var bytes [2]uint64
	for seed := int64(1); seed <= 2; seed++ {
		spec := MixedRows(gateRows)
		spec.Seed = seed
		if _, err := small.StageChanges(spec); err != nil {
			t.Fatal(err)
		}
		for _, view := range BaseViews {
			d, err := small.W.DeltaOf(view)
			if err != nil {
				t.Fatal(err)
			}
			if err := large.W.StageDelta(view, d.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		if s == nil {
			stats, err := exec.PlanningStats(small.W)
			if err != nil {
				t.Fatal(err)
			}
			res, err := planner.MinWork(small.Graph, stats)
			if err != nil {
				t.Fatal(err)
			}
			s = res.Strategy
		}
		for i, tw := range []*Warehouse{small, large} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := exec.Execute(tw.W, s, exec.Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			reps[i], bytes[i] = rep, after.TotalAlloc-before.TotalAlloc
		}
	}
	for _, tw := range []*Warehouse{small, large} {
		if err := tw.W.VerifyAll(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("allocated by the window: %d KB at SF 0.001, %d KB at SF 0.01", bytes[0]>>10, bytes[1]>>10)
	within := func(a, b int64) bool {
		return float64(max(a, b)) <= gateBound*float64(min(a, b))
	}
	for i, a := range reps[0].Steps {
		b := reps[1].Steps[i]
		counts := [][3]any{{"rows installed", a.Work, b.Work}}
		if _, comp := a.Expr.(strategy.Comp); comp {
			counts = [][3]any{{"index probes", a.IndexProbes, b.IndexProbes}, {"index rows", a.IndexRows, b.IndexRows}}
		}
		for _, c := range counts {
			x, y := c[1].(int64), c[2].(int64)
			t.Logf("%-24s %-14s %6d → %6d", a.Expr, c[0], x, y)
			if !within(x, y) {
				t.Errorf("%s: %s %d at SF 0.001 and %d at SF 0.01, beyond %v× across the scale", a.Expr, c[0], x, y, gateBound)
			}
		}
	}
}
