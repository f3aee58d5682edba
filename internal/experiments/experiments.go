// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the from-scratch engine:
//
//	Table 1  — the number of correct view strategies for n = 1..6
//	Figure 12 — Experiment 1: all 13 view strategies for Q3
//	Figure 13 — Experiment 2: Q5 MinWorkSingle vs. dual-stage
//	Figure 14 — Experiment 3: Q3 strategies across change fractions
//	Figure 15 — Experiment 4: VDAG strategies (MinWork/Prune, RNSCOL,
//	            dual-stage)
//	Section 9 — parallel strategies (extension)
//
// The paper reports seconds on SQL Server 6.5; this harness reports both
// measured work (tuples scanned/installed — the linear metric's unit) and
// wall-clock time on the bundled engine. Absolute numbers differ from the
// paper's; the comparisons (who wins, by roughly what factor) are the
// reproduced result.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// Config sizes the experiments.
type Config struct {
	// SF is the TPC-D scale factor (default 0.002).
	SF float64
	// Seed drives data generation (default 7).
	Seed int64
	// ChangeFrac is the default change fraction (default 0.10, the paper's
	// "decreased in size by 10%").
	ChangeFrac float64
}

func (c Config) withDefaults() Config {
	if c.SF == 0 {
		c.SF = 0.002
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.ChangeFrac == 0 {
		c.ChangeFrac = 0.10
	}
	return c
}

// Row is one measured strategy (one bar of a figure).
type Row struct {
	Label string
	// Work is measured work: tuples scanned by Comps + rows installed.
	Work int64
	// Elapsed is the measured update window on this engine.
	Elapsed time.Duration
	// Predicted is the linear-metric estimate from planning statistics
	// (−1 when not computed).
	Predicted float64
	// Marker tags special rows ("MinWorkSingle", "optimal", …).
	Marker string
}

// Result is one reproduced table or figure.
type Result struct {
	ID    string // "table1", "fig12", …
	Title string
	// Columns names the Row fields being reported (documentation only).
	PaperClaim string
	Rows       []Row
	Notes      []string
}

// Format renders the result as an ASCII table.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	labelW := 10
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s  %12s  %12s  %12s  %s\n", labelW, "strategy", "work", "elapsed", "predicted", "")
	for _, row := range r.Rows {
		pred := ""
		if row.Predicted >= 0 {
			pred = fmt.Sprintf("%.0f", row.Predicted)
		}
		fmt.Fprintf(&b, "%-*s  %12d  %12s  %12s  %s\n",
			labelW, row.Label, row.Work, row.Elapsed.Round(time.Microsecond), pred, row.Marker)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Chart renders the result as an ASCII bar chart (the paper's figures are
// bar charts of update-window lengths), bars scaled to the largest work.
func (r Result) Chart() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	labelW, maxWork := 8, int64(1)
	for _, row := range r.Rows {
		if len(row.Label) > labelW {
			labelW = len(row.Label)
		}
		if row.Work > maxWork {
			maxWork = row.Work
		}
	}
	const width = 50
	for _, row := range r.Rows {
		n := int(row.Work * width / maxWork)
		if n == 0 && row.Work > 0 {
			n = 1
		}
		fmt.Fprintf(&b, "%-*s |%-*s %d", labelW, row.Label, width, strings.Repeat("█", n), row.Work)
		if row.Marker != "" {
			fmt.Fprintf(&b, "  ← %s", row.Marker)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table1 reproduces Table 1: the number of correct view strategies for a
// view defined over n views, n = 1..6.
func Table1() Result {
	res := Result{
		ID:         "table1",
		Title:      "Number of view strategies for a view defined over n views",
		PaperClaim: "1, 3, 13, 75, 541, 4683 for n = 1..6 (ordered Bell numbers)",
	}
	for n := 1; n <= 6; n++ {
		count, err := strategy.CountViewStrategies(n)
		if err != nil {
			res.Notes = append(res.Notes, err.Error())
			continue
		}
		res.Rows = append(res.Rows, Row{Label: fmt.Sprintf("n=%d", n), Work: count, Predicted: -1})
	}
	// Cross-check by enumeration for n ≤ 4.
	items := []string{"a", "b", "c", "d"}
	for n := 1; n <= 4; n++ {
		if got := len(strategy.OrderedPartitions(items[:n])); int64(got) != res.Rows[n-1].Work {
			res.Notes = append(res.Notes, fmt.Sprintf("enumeration mismatch at n=%d: %d", n, got))
		}
	}
	res.Notes = append(res.Notes,
		"Q3, Q5, Q10 are defined over 3, 6 and 4 views: 13, 4683 and 75 strategies respectively")
	return res
}

// measure executes s on a clone of the staged warehouse, returning the row.
func measure(tw *tpcd.Warehouse, label string, s strategy.Strategy, stats cost.Stats, verify bool) (Row, error) {
	run := tw.W.Clone()
	rep, err := exec.Execute(run, s, exec.Options{Validate: true})
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", label, err)
	}
	if verify {
		if err := run.VerifyAll(); err != nil {
			return Row{}, fmt.Errorf("%s: %w", label, err)
		}
	}
	row := Row{Label: label, Work: rep.TotalWork(), Elapsed: rep.Elapsed, Predicted: -1}
	if stats != nil {
		if pred, err := cost.Work(cost.DefaultModel, stats, exec.RefCounts(tw.W), s); err == nil {
			row.Predicted = pred
		}
	}
	return row, nil
}

// viewStrategyLabel renders an ordered partition compactly, e.g.
// "L | O | C" (1-way) or "{C,O} | L" (2-way first block).
func viewStrategyLabel(blocks [][]string) string {
	short := func(v string) string {
		if len(v) > 1 && (v[0] == 'Q') {
			return v
		}
		return v[:1]
	}
	parts := make([]string, len(blocks))
	for i, b := range blocks {
		if len(b) == 1 {
			parts[i] = short(b[0])
		} else {
			ss := make([]string, len(b))
			for j, v := range b {
				ss[j] = short(v)
			}
			parts[i] = "{" + strings.Join(ss, ",") + "}"
		}
	}
	return strings.Join(parts, " ")
}

// maxBlock returns the size of the largest Comp block of a partition.
func maxBlock(blocks [][]string) int {
	m := 0
	for _, b := range blocks {
		if len(b) > m {
			m = len(b)
		}
	}
	return m
}

// Fig12 reproduces Experiment 1: every one of the 13 view strategies for
// Q3 under a 10% decrease of the base views, sorted with the 1-way
// strategies first (as in the paper's bar chart).
func Fig12(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "fig12",
		Title: "Q3 view strategies (Experiment 1)",
		PaperClaim: "every 1-way beats every 2-way and the dual-stage strategy; " +
			"dual-stage ≈2.2–2.3× the optimum; MinWorkSingle near-optimal",
	}
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed, Queries: []string{tpcd.Q3}})
	if err != nil {
		return res, err
	}
	// The measured strategies update Q3 only, so only the views Q3 reads
	// change (the paper also decreased S and N, which Q3 strategies never
	// touch and which do not affect the measurement).
	if _, err := tw.StageChanges(tpcd.COLDecrease(cfg.ChangeFrac)); err != nil {
		return res, err
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		return res, err
	}
	children := tw.W.Children(tpcd.Q3)
	mws, err := planner.MinWorkSingle(tpcd.Q3, children, stats)
	if err != nil {
		return res, err
	}
	parts := strategy.OrderedPartitions(children)
	type entry struct {
		row  Row
		kind int // max block size: 1 = 1-way, 2 = 2-way, 3 = dual-stage
	}
	var entries []entry
	for _, p := range parts {
		s := strategy.PartitionedView(tpcd.Q3, p)
		label := viewStrategyLabel(p)
		row, err := measure(tw, label, s, stats, true)
		if err != nil {
			return res, err
		}
		if s.String() == mws.String() {
			row.Marker = "MinWorkSingle"
		}
		entries = append(entries, entry{row: row, kind: maxBlock(p)})
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].kind != entries[j].kind {
			return entries[i].kind < entries[j].kind
		}
		return entries[i].row.Work < entries[j].row.Work
	})
	best := entries[0].row.Work
	for _, e := range entries {
		if e.row.Work < best {
			best = e.row.Work
		}
	}
	var dual, bestRow Row
	for i, e := range entries {
		if e.row.Work == best && e.row.Marker == "" {
			e.row.Marker = "optimal"
			entries[i] = e
		}
		if e.kind == 3 {
			dual = e.row
		}
		if e.row.Work == best {
			bestRow = e.row
		}
	}
	for _, e := range entries {
		res.Rows = append(res.Rows, e.row)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("dual-stage / optimal work ratio: %.2f (paper: ≈2.2–2.3 in time)",
			float64(dual.Work)/float64(bestRow.Work)))
	return res, nil
}

// Fig13 reproduces Experiment 2: Q5 (defined over all six base views),
// MinWorkSingle vs. the dual-stage view strategy.
func Fig13(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:         "fig13",
		Title:      "Q5 view strategies (Experiment 2)",
		PaperClaim: "dual-stage is over 6× MinWorkSingle for the 6-view Q5",
	}
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed, Queries: []string{tpcd.Q5}})
	if err != nil {
		return res, err
	}
	if _, err := tw.StageChanges(tpcd.UniformDecrease(cfg.ChangeFrac)); err != nil {
		return res, err
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		return res, err
	}
	children := tw.W.Children(tpcd.Q5)
	mws, err := planner.MinWorkSingle(tpcd.Q5, children, stats)
	if err != nil {
		return res, err
	}
	rowM, err := measure(tw, "MinWorkSingle", mws, stats, true)
	if err != nil {
		return res, err
	}
	rowM.Marker = "MinWorkSingle"
	rowD, err := measure(tw, "dual-stage", strategy.DualStageView(tpcd.Q5, children), stats, true)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, rowM, rowD)
	res.Notes = append(res.Notes, fmt.Sprintf("dual-stage / MinWorkSingle work ratio: %.2f (paper: >6 in time; dual-stage evaluates 63 terms vs 6)",
		float64(rowD.Work)/float64(rowM.Work)))
	return res, nil
}

// Fig14 reproduces Experiment 3: Q3 under p = 2..10% decreases of C, O and
// L, comparing MinWorkSingle, the best 2-way strategy, and dual-stage.
func Fig14(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:         "fig14",
		Title:      "Q3 view strategies across change fractions (Experiment 3)",
		PaperClaim: "MinWorkSingle ≤ best 2-way ≤ dual-stage over the whole 2–10% range",
	}
	for _, pct := range []int{2, 4, 6, 8, 10} {
		p := float64(pct) / 100
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed, Queries: []string{tpcd.Q3}})
		if err != nil {
			return res, err
		}
		if _, err := tw.StageChanges(tpcd.COLDecrease(p)); err != nil {
			return res, err
		}
		stats, err := exec.PlanningStats(tw.W)
		if err != nil {
			return res, err
		}
		children := tw.W.Children(tpcd.Q3)
		mws, err := planner.MinWorkSingle(tpcd.Q3, children, stats)
		if err != nil {
			return res, err
		}
		// The best 2-way strategy by predicted cost (the paper reuses the
		// best 2-way bar of Figure 12).
		var best2 strategy.Strategy
		best2W := -1.0
		for _, part := range strategy.OrderedPartitions(children) {
			if maxBlock(part) != 2 {
				continue
			}
			s := strategy.PartitionedView(tpcd.Q3, part)
			w, err := cost.Work(cost.DefaultModel, stats, exec.RefCounts(tw.W), s)
			if err != nil {
				return res, err
			}
			if best2W < 0 || w < best2W {
				best2W, best2 = w, s
			}
		}
		for _, c := range []struct {
			label string
			s     strategy.Strategy
		}{
			{fmt.Sprintf("p=%d%% MinWorkSingle", pct), mws},
			{fmt.Sprintf("p=%d%% best-2-way", pct), best2},
			{fmt.Sprintf("p=%d%% dual-stage", pct), strategy.DualStageView(tpcd.Q3, children)},
		} {
			row, err := measure(tw, c.label, c.s, stats, false)
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// searchEffort renders a Prune search's counters: what the bounded search
// did, not the m! orderings of its space.
func searchEffort(pr planner.PruneResult) string {
	return fmt.Sprintf("examined %d ordering prefixes (%d orderings completed)", pr.Examined, pr.Feasible)
}

// Fig15 reproduces Experiment 4: strategies for the full TPC-D VDAG —
// MinWork (provably optimal here: the VDAG is uniform), Prune's best 1-way,
// the reverse-ordering strategy (RNSCOL), and the dual-stage VDAG strategy.
func Fig15(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "fig15",
		Title: "VDAG strategies for the TPC-D warehouse (Experiment 4)",
		PaperClaim: "MinWork 5–6× better than dual-stage and ≈11% better than " +
			"the reverse ordering RNSCOL; MinWork is optimal (uniform VDAG)",
	}
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	if err != nil {
		return res, err
	}
	if _, err := tw.StageChanges(tpcd.UniformDecrease(cfg.ChangeFrac)); err != nil {
		return res, err
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		return res, err
	}
	mw, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		return res, err
	}
	rowMW, err := measure(tw, "MinWork "+strings.Join(initials(mw.UsedOrdering), ""), mw.Strategy, stats, true)
	if err != nil {
		return res, err
	}
	rowMW.Marker = "MinWork"
	res.Rows = append(res.Rows, rowMW)

	pr, err := planner.Prune(tw.Graph, cost.DefaultModel, stats, exec.RefCounts(tw.W))
	if err != nil {
		return res, err
	}
	rowPr, err := measure(tw, "Prune best 1-way", pr.Strategy, stats, true)
	if err != nil {
		return res, err
	}
	rowPr.Marker = searchEffort(pr)
	res.Rows = append(res.Rows, rowPr)

	// RNSCOL: the 1-way VDAG strategy consistent with the reverse of the
	// desired ordering.
	rev := append([]string(nil), mw.UsedOrdering...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	eg := planner.ConstructEG(tw.Graph, rev)
	revStrat, err := eg.TopoSort()
	if err != nil {
		return res, err
	}
	rowRev, err := measure(tw, "reverse "+strings.Join(initials(rev), ""), revStrat, stats, true)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, rowRev)

	rowDual, err := measure(tw, "dual-stage", strategy.DualStageVDAG(tw.Graph), stats, true)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, rowDual)

	res.Notes = append(res.Notes,
		fmt.Sprintf("dual-stage / MinWork work ratio: %.2f (paper: 5–6×)",
			float64(rowDual.Work)/float64(rowMW.Work)),
		fmt.Sprintf("reverse / MinWork work ratio: %.3f (paper: ≈1.11)",
			float64(rowRev.Work)/float64(rowMW.Work)))
	return res, nil
}

func initials(views []string) []string {
	out := make([]string, len(views))
	for i, v := range views {
		out[i] = v[:1]
	}
	return out
}

// Parallel reproduces the Section 9 analysis: the MinWork sequential
// strategy vs. the parallelized dual-stage strategy — less span, more total
// work.
func Parallel(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "parallel",
		Title: "Parallel strategies (Section 9)",
		PaperClaim: "dual-stage view strategies remove dependencies (two stages) " +
			"but increase total work, so the benefit of running expressions in " +
			"parallel may be offset by the extra work",
	}
	mkWarehouse := func() (*tpcd.Warehouse, error) {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		if _, err := tw.StageChanges(tpcd.UniformDecrease(cfg.ChangeFrac)); err != nil {
			return nil, err
		}
		return tw, nil
	}
	tw, err := mkWarehouse()
	if err != nil {
		return res, err
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		return res, err
	}
	mw, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		return res, err
	}

	type variant struct {
		label string
		s     strategy.Strategy
	}
	for _, v := range []variant{
		{"MinWork (1-way)", mw.Strategy},
		{"dual-stage", strategy.DualStageVDAG(tw.Graph)},
	} {
		run, err := mkWarehouse()
		if err != nil {
			return res, err
		}
		rep, err := exec.Execute(run.W, v.s, exec.Options{Mode: exec.ModeStaged})
		if err != nil {
			return res, err
		}
		if err := run.W.VerifyAll(); err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Row{
			Label:     fmt.Sprintf("%s stages=%d", v.label, rep.Sched.Levels),
			Work:      rep.TotalWork(),
			Elapsed:   rep.Elapsed,
			Predicted: float64(rep.Sched.SpanWork),
			Marker:    fmt.Sprintf("speedup=%.2f", rep.Sched.Speedup()),
		})
	}
	res.Notes = append(res.Notes,
		"'predicted' column holds span work (critical path per expression)",
		"dual-stage reaches two stages but its single 63-term Comp(Q5,·) dominates the span — "+
			"the extra parallelism does not pay, exactly the offset the paper warns about")
	return res, nil
}

// MetricAblation reproduces the paper's Discussion-section argument for
// the linear work metric: under the rejected "sum of operand sizes once"
// variant, the dual-stage VDAG strategy would be predicted cheapest, while
// actual execution (and the real metric) shows it is several times worse.
func MetricAblation(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "metric",
		Title: "Linear work metric vs. the rejected variant (Discussion, Section 7)",
		PaperClaim: "a variant metric that sums operand sizes once (ignoring term " +
			"counts) would rank the dual-stage strategy best, contrary to Experiment 4",
	}
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: cfg.SF, Seed: cfg.Seed})
	if err != nil {
		return res, err
	}
	if _, err := tw.StageChanges(tpcd.UniformDecrease(cfg.ChangeFrac)); err != nil {
		return res, err
	}
	stats, err := exec.PlanningStats(tw.W)
	if err != nil {
		return res, err
	}
	mw, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		return res, err
	}
	refs := exec.RefCounts(tw.W)
	for _, c := range []struct {
		label string
		s     strategy.Strategy
	}{
		{"MinWork (1-way)", mw.Strategy},
		{"dual-stage", strategy.DualStageVDAG(tw.Graph)},
	} {
		row, err := measure(tw, c.label, c.s, stats, false)
		if err != nil {
			return res, err
		}
		variant, err := cost.VariantWork(cost.DefaultModel, stats, refs, c.s)
		if err != nil {
			return res, err
		}
		row.Marker = fmt.Sprintf("variant metric predicts %.0f", variant)
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"the linear metric ('predicted') tracks measured work; the variant inverts the comparison",
	)
	return res, nil
}

// Experiment is one runnable experiment and the id it is selected by.
type Experiment struct {
	ID  string
	Run func(Config) (Result, error)
}

// Experiments lists every experiment in the order a full run prints them.
var Experiments = []Experiment{
	{"table1", func(Config) (Result, error) { return Table1(), nil }},
	{"fig12", Fig12}, {"fig13", Fig13}, {"fig14", Fig14}, {"fig15", Fig15},
	{"parallel", Parallel}, {"stagedvsdag", StagedVsDAG}, {"metric", MetricAblation},
	{"estimation", Estimation}, {"deep", Deep}, {"faulttolerance", FaultTolerance},
}

// All runs every experiment.
func All(cfg Config) ([]Result, error) {
	var out []Result
	for _, e := range Experiments {
		r, err := e.Run(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
