package experiments

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// The generated block of EXPERIMENTS.md sits between these two lines.
const (
	blockBegin = "<!-- BEGIN generated by `go run ./cmd/experiments`: edit the harness, not this block -->\n"
	blockEnd   = "<!-- END generated -->\n"
)

var all struct {
	once    sync.Once
	results []Result
	err     error
}

// results returns the one run of All at the defaults, the run
// EXPERIMENTS.md's block is rendered from.
func results(t *testing.T) []Result {
	t.Helper()
	all.once.Do(func() { all.results, all.err = All(Config{}) })
	if all.err != nil {
		t.Fatal(all.err)
	}
	return all.results
}

// result returns experiment id's result from that run.
func result(t *testing.T, id string) Result {
	t.Helper()
	for _, r := range results(t) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no experiment %q", id)
	return Result{}
}

// TestExperimentsMDIsTheOutput: every table of EXPERIMENTS.md, the summary
// of claims included, is what the harness prints at the defaults, byte for
// byte. Work is deterministic, so a change that moves a number has to
// regenerate the block and so name its row in the diff.
func TestExperimentsMDIsTheOutput(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok := strings.Cut(string(doc), blockBegin)
	block, _, ok2 := strings.Cut(rest, blockEnd)
	if !ok || !ok2 {
		t.Fatalf("EXPERIMENTS.md lacks the generated block's marker lines %q and %q", blockBegin, blockEnd)
	}
	if got := Report(Config{}, results(t)); got != block {
		t.Errorf("EXPERIMENTS.md's generated block is not what the harness prints (- doc, + harness):\n%s\n"+
			"Regenerate it: put the output of `go run ./cmd/experiments` (make experiments) between the marker lines.",
			lineDiff(block, got, strings.Count(before, "\n")+2))
	}
}

// lineDiff renders the lines that differ between a and b: "-" for a line
// only a has, after its line number (a's first line is line first), and "+"
// for one only b has.
func lineDiff(a, b string, first int) string {
	x, y := strings.Split(a, "\n"), strings.Split(b, "\n")
	// lcs[i][j] is the length of the longest common subsequence of x[i:] and y[j:].
	lcs := make([][]int, len(x)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(y)+1)
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := len(y) - 1; j >= 0; j-- {
			if x[i] == y[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var out strings.Builder
	for i, j := 0, 0; i < len(x) || j < len(y); {
		switch {
		case i < len(x) && j < len(y) && x[i] == y[j]:
			i, j = i+1, j+1
		case i < len(x) && (j == len(y) || lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&out, "%4d -%s\n", first+i, x[i])
			i++
		default:
			fmt.Fprintf(&out, "     +%s\n", y[j])
			j++
		}
	}
	return out.String()
}

func TestTable1(t *testing.T) {
	res := result(t, "table1")
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
}

// TestFig12Shape asserts the paper's Experiment 1 claims on measured work:
// every 1-way strategy beats every 2-way one, which beats the dual-stage one, and
// MinWorkSingle is optimal in measured work (the engine matches the linear
// metric exactly, so unlike the paper's SQL Server run there is no gap).
func TestFig12Shape(t *testing.T) {
	res := result(t, "fig12")
	if len(res.Rows) != 13 {
		t.Fatalf("rows = %d, want 13", len(res.Rows))
	}
	var oneWayMax, twoWayMin, twoWayMax, dualWork int64
	var sawMWS bool
	for _, row := range res.Rows {
		switch strings.Count(row.Label, ",") {
		case 2: // {C,O,L}: the dual-stage strategy
			dualWork = row.Work
		case 0:
			oneWayMax = max(oneWayMax, row.Work)
		default: // one block of two views
			if twoWayMin == 0 || row.Work < twoWayMin {
				twoWayMin = row.Work
			}
			twoWayMax = max(twoWayMax, row.Work)
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
	if twoWayMax >= dualWork {
		t.Errorf("worst 2-way (%d) should beat dual-stage (%d)", twoWayMax, dualWork)
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
	res := result(t, "fig13")
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
	res := result(t, "fig14")
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
	res := result(t, "fig15")
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
	res := result(t, "parallel")
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

// TestMetricAblation certifies the Discussion-section argument: the variant
// metric inverts the MinWork-vs-dual-stage comparison that measurement (and
// the real metric) gives.
func TestMetricAblation(t *testing.T) {
	res := result(t, "metric")
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
	res := result(t, "estimation")
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
	res := result(t, "deep")
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
