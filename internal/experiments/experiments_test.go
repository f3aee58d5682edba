package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// tiny keeps experiment tests fast.
var tiny = Config{SF: 0.0008, Seed: 7, ChangeFrac: 0.10}

func TestTable1(t *testing.T) {
	res := Table1()
	want := []int64{1, 3, 13, 75, 541, 4683}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, w := range want {
		if res.Rows[i].Work != w {
			t.Errorf("n=%d: %d, want %d", i+1, res.Rows[i].Work, w)
		}
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "mismatch") {
			t.Errorf("enumeration cross-check failed: %s", n)
		}
	}
	if !strings.Contains(res.Format(), "table1") {
		t.Errorf("Format missing id")
	}
}

// TestFig12Shape asserts the paper's Experiment 1 claims on measured work:
// every 1-way strategy beats every 2-way and the dual-stage strategy, and
// MinWorkSingle is optimal in measured work (the engine matches the linear
// metric exactly, so unlike the paper's SQL Server run there is no gap).
func TestFig12Shape(t *testing.T) {
	res, err := Fig12(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(res.Rows))
	}
	var oneWayMax, twoWayMin, dualWork int64
	var sawMWS bool
	for _, row := range res.Rows {
		oneWay := !strings.Contains(row.Label, "{")
		switch {
		case strings.Contains(row.Label, "{C,O,L}") || strings.Contains(row.Label, "{O,C,L}"), strings.Count(row.Label, ",") == 2 && strings.Contains(row.Label, "{"):
			dualWork = row.Work
		case oneWay:
			if row.Work > oneWayMax {
				oneWayMax = row.Work
			}
		default: // 2-way
			if twoWayMin == 0 || row.Work < twoWayMin {
				twoWayMin = row.Work
			}
		}
		if row.Marker == "MinWorkSingle" {
			sawMWS = true
			// MinWorkSingle must match the best measured work.
			for _, other := range res.Rows {
				if other.Work < row.Work {
					t.Errorf("MinWorkSingle (%d) beaten by %s (%d)", row.Work, other.Label, other.Work)
				}
			}
		}
	}
	if !sawMWS {
		t.Errorf("MinWorkSingle row missing")
	}
	if oneWayMax == 0 || twoWayMin == 0 || dualWork == 0 {
		t.Fatalf("row classification failed: %v", res.Rows)
	}
	if oneWayMax >= twoWayMin {
		t.Errorf("worst 1-way (%d) should beat best 2-way (%d)", oneWayMax, twoWayMin)
	}
	if twoWayMin >= dualWork {
		t.Errorf("best 2-way (%d) should beat dual-stage (%d)", twoWayMin, dualWork)
	}
	// Predicted work (from *estimated* derived-delta statistics) tracks
	// measured work closely — the engine itself matches the metric exactly,
	// so the only gap is the Section 5.5 size estimation.
	for _, row := range res.Rows {
		if row.Predicted < 0 {
			continue
		}
		diff := row.Predicted - float64(row.Work)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05*float64(row.Work) {
			t.Errorf("%s: predicted %v deviates >5%% from measured %d", row.Label, row.Predicted, row.Work)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	res, err := Fig13(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mws, dual := res.Rows[0], res.Rows[1]
	ratio := float64(dual.Work) / float64(mws.Work)
	// The paper reports >6×; the work ratio is driven by the 63-vs-6 term
	// counts and must be large.
	if ratio < 3 {
		t.Errorf("dual/MWS ratio = %.2f, expected ≫1", ratio)
	}
}

func TestFig14Shape(t *testing.T) {
	res, err := Fig14(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 { // 5 fractions × 3 strategies
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 0; i < 15; i += 3 {
		mws, two, dual := res.Rows[i], res.Rows[i+1], res.Rows[i+2]
		if mws.Work > two.Work {
			t.Errorf("%s (%d) worse than %s (%d)", mws.Label, mws.Work, two.Label, two.Work)
		}
		if two.Work > dual.Work {
			t.Errorf("%s (%d) worse than %s (%d)", two.Label, two.Work, dual.Label, dual.Work)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	res, err := Fig15(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mw, prune, rev, dual := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	// MinWork is optimal on the uniform TPC-D VDAG: Prune cannot beat it.
	if prune.Work < mw.Work {
		t.Errorf("Prune (%d) beat MinWork (%d) on a uniform VDAG", prune.Work, mw.Work)
	}
	if mw.Work > rev.Work {
		t.Errorf("MinWork (%d) worse than reverse ordering (%d)", mw.Work, rev.Work)
	}
	if rev.Work >= dual.Work {
		t.Errorf("reverse (%d) should still beat dual-stage (%d)", rev.Work, dual.Work)
	}
	if float64(dual.Work)/float64(mw.Work) < 2 {
		t.Errorf("dual/MinWork = %.2f, expected a large factor", float64(dual.Work)/float64(mw.Work))
	}
}

func TestParallelShape(t *testing.T) {
	res, err := Parallel(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	oneWay, dual := res.Rows[0], res.Rows[1]
	// Section 9's tradeoff: dual-stage reaches maximal parallelism (two
	// stages) but incurs more total work.
	if dual.Work <= oneWay.Work {
		t.Errorf("dual-stage total work (%d) should exceed 1-way (%d)", dual.Work, oneWay.Work)
	}
	if !strings.Contains(dual.Label, "stages=2") {
		t.Errorf("dual-stage should parallelize to two stages: %s", dual.Label)
	}
	if !strings.Contains(oneWay.Label, "stages=") || strings.Contains(oneWay.Label, "stages=2") {
		t.Errorf("1-way plan should need more than two stages: %s", oneWay.Label)
	}
	if dual.Predicted <= 0 || oneWay.Predicted <= 0 {
		t.Errorf("span work missing: %v / %v", oneWay.Predicted, dual.Predicted)
	}
}

// TestStagedVsDAGShape asserts the barrier-free scheduler's accounting on
// the staged-vs-DAG experiment: per (SF, strategy) pair the two modes
// measure the same total work, and each row's window bound is consistent —
// critical path ≤ span ≤ total, with the DAG row bounded by the staged
// row's span. Wall-clock is reported but not asserted (best-of-3 still
// jitters at test scale).
func TestStagedVsDAGShape(t *testing.T) {
	res, err := StagedVsDAG(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 { // 2 SFs × 2 strategies × 2 modes
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		staged, dag := res.Rows[i], res.Rows[i+1]
		if !strings.Contains(staged.Label, "staged") || !strings.Contains(dag.Label, "dag") {
			t.Fatalf("row order wrong: %q, %q", staged.Label, dag.Label)
		}
		if staged.Work != dag.Work {
			t.Errorf("%s: staged work %d != dag work %d", staged.Label, staged.Work, dag.Work)
		}
		if staged.Predicted <= 0 || dag.Predicted <= 0 {
			t.Errorf("%s: window bounds missing: %v / %v", staged.Label, staged.Predicted, dag.Predicted)
		}
		// Critical path (dag bound) never exceeds span (staged bound), and
		// neither exceeds total work.
		if dag.Predicted > staged.Predicted {
			t.Errorf("%s: critical path %v exceeds span %v", dag.Label, dag.Predicted, staged.Predicted)
		}
		if staged.Predicted > float64(staged.Work) {
			t.Errorf("%s: span %v exceeds total work %d", staged.Label, staged.Predicted, staged.Work)
		}
	}
}

// TestMetricAblation certifies the Discussion-section argument: the variant
// metric inverts the MinWork-vs-dual-stage comparison that measurement (and
// the real metric) gives.
func TestMetricAblation(t *testing.T) {
	res, err := MetricAblation(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mw, dual := res.Rows[0], res.Rows[1]
	// Measurement: MinWork wins.
	if mw.Work >= dual.Work {
		t.Errorf("measured: MinWork %d should beat dual-stage %d", mw.Work, dual.Work)
	}
	// Real metric predictions agree with measurement direction.
	if mw.Predicted >= dual.Predicted {
		t.Errorf("linear metric: %v should be below %v", mw.Predicted, dual.Predicted)
	}
	// The variant metric inverts the ranking (paper's point).
	variant := func(marker string) float64 {
		var v float64
		if _, err := fmt.Sscanf(marker, "variant metric predicts %f", &v); err != nil {
			t.Fatalf("bad marker %q", marker)
		}
		return v
	}
	if variant(mw.Marker) <= variant(dual.Marker) {
		t.Errorf("variant metric should (wrongly) favor dual-stage: %v vs %v",
			variant(mw.Marker), variant(dual.Marker))
	}
}

// TestEstimation certifies the Section 5.5 claim at this scale: estimated
// derived deltas may be rough, but the desired view ordering they produce
// matches the one exact statistics give.
func TestEstimation(t *testing.T) {
	res, err := Estimation(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 { // 3 specs × 3 summary views
		t.Fatalf("rows = %d", len(res.Rows))
	}
	matches := 0
	for _, n := range res.Notes {
		if strings.Contains(n, "orderings MATCH") {
			matches++
		}
	}
	if matches != 3 {
		t.Errorf("orderings matched in %d/3 workloads: %v", matches, res.Notes)
	}
}

// TestDeep exercises the deep non-uniform VDAG: Prune (the 1-way optimum)
// must never lose to MinWork, and both must beat dual-stage.
func TestDeep(t *testing.T) {
	res, err := Deep(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	mw, prune, dual := res.Rows[0], res.Rows[1], res.Rows[2]
	if prune.Work > mw.Work {
		t.Errorf("Prune (%d) worse than MinWork (%d): Prune must be 1-way optimal", prune.Work, mw.Work)
	}
	if mw.Work >= dual.Work || prune.Work >= dual.Work {
		t.Errorf("dual-stage (%d) should lose to both (%d, %d)", dual.Work, mw.Work, prune.Work)
	}
}

func TestAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep in -short mode")
	}
	results, err := All(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 11 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Format() == "" {
			t.Errorf("%s: empty format", r.ID)
		}
	}
}

func TestFaultTolerance(t *testing.T) {
	res, err := FaultTolerance(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, journaled, recovered, retried := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	// Journaling, crash-recovery and retry must not change the window's
	// measured work — the metric is schedule- and machinery-invariant.
	for _, r := range []Row{journaled, recovered, retried} {
		if r.Work != base.Work {
			t.Errorf("%s: work %d differs from the unjournaled window's %d", r.Label, r.Work, base.Work)
		}
	}
	if !strings.Contains(recovered.Marker, "survived") {
		t.Errorf("recovered row marker = %q", recovered.Marker)
	}
	if !strings.Contains(res.Rows[4].Marker, "degraded") {
		t.Errorf("recompute row marker = %q", res.Rows[4].Marker)
	}
}
