package tpcd

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
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

// TestOneWayWindowsBuildNothing pins what made the window-wide registry, the
// join intermediates and the share tuner unnecessary: under a 1-way strategy
// every Comp has one term, its delta drives, and every state it joins is a
// plain table read through a resident index — so a TPC-D window asks the
// build cache for nothing, shares nothing and spills nothing, whichever
// planner chose the strategy and whether or not the cache is kept for the
// window. A change that brings state builds back fails here, not only in the
// benchmark; so does one that changes which join indexes stay resident.
func TestOneWayWindowsBuildNothing(t *testing.T) {
	for _, shared := range []bool{false, true} {
		for _, share := range []bool{false, true} {
			tw, err := NewWarehouse(Config{SF: 0.001, Seed: 7, Options: core.Options{ShareComputation: share, MemoryBudgetBytes: 4 << 20}})
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
				if shared {
					res, err := planner.PruneShared(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W), planner.SharedSearchOptions{
						Refs:    exec.RefsOf(tw.W),
						Sharing: planner.SharingOptions{Width: exec.WidthOf(tw.W)},
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.DualStage {
						t.Fatalf("PruneShared chose the dual-stage strategy: the fixture no longer pins a 1-way window")
					}
					s = res.Strategy
				} else {
					res, err := planner.MinWork(tw.Graph, stats)
					if err != nil {
						t.Fatal(err)
					}
					s = res.Strategy
				}
				rep, err := exec.Execute(tw.W, s, exec.Options{Validate: true, SpillDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				var c core.EngineCounters
				for _, step := range rep.Steps {
					c.Add(step.EngineCounters)
				}
				if c.CacheMisses != 0 || c.CacheHits != 0 || c.SharedHits != 0 || c.SharedMisses != 0 || c.SpillCount != 0 ||
					rep.SharedBytesPeak != 0 || rep.PeakReservedBytes != 0 || len(rep.SharedDetail) != 0 {
					t.Errorf("shared planner %v, sharing %v, window %d: %+v (cache peak %d, reserved peak %d), want no build asked for",
						shared, share, win, c, rep.SharedBytesPeak, rep.PeakReservedBytes)
				}
				// From the second window on the indexes are resident: what the
				// metric charges for the states, no scan reads.
				if c.IndexProbes == 0 || (win > 0 && c.IndexTuplesSaved == 0) {
					t.Errorf("shared planner %v, sharing %v, window %d: %d index probes, %d tuples saved", shared, share, win, c.IndexProbes, c.IndexTuplesSaved)
				}
			}
			if err := tw.W.VerifyAll(); err != nil {
				t.Fatal(err)
			}
			// Whichever planner ran, LINEITEM's index on L_ORDERKEY also serves
			// the joins on (L_ORDERKEY, L_SUPPKEY): nine indexes in all.
			var got []string
			for _, name := range tw.W.ViewNames() {
				for _, st := range tw.W.MustView(name).IndexStats() {
					got = append(got, fmt.Sprint(name, st.Cols))
				}
			}
			slices.Sort(got)
			if want := "CUSTOMER[0] CUSTOMER[2] LINEITEM[0] NATION[0] ORDER[0] ORDER[1] REGION[0] SUPPLIER[0] SUPPLIER[2]"; strings.Join(got, " ") != want {
				t.Errorf("shared planner %v, sharing %v: resident indexes %v, want %s", shared, share, got, want)
			}
		}
	}
}
