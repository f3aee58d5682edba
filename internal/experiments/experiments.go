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
// and three extensions: the metric ablation, estimation quality and the deep
// VDAG. The paper reports seconds on SQL Server 6.5; this harness reports
// measured work (tuples scanned/installed — the linear metric's unit) and
// the metric's prediction of it, both deterministic, so Report's rendering
// at the defaults is EXPERIMENTS.md's generated block byte for byte. The
// comparisons (who wins, by roughly what factor) are the reproduced result.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

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
	// Predicted is the linear-metric estimate from planning statistics
	// (−1 when not computed).
	Predicted float64
	// Marker tags special rows ("MinWorkSingle", "optimal", …).
	Marker string
}

// Result is one reproduced table or figure.
type Result struct {
	ID         string // "table1", "fig12", …
	Title      string
	PaperClaim string
	// Measured states what the rows show about the paper's claim, for the
	// summary of claims.
	Measured string
	Rows     []Row
	Notes    []string
}

// Markdown renders the result as its section of EXPERIMENTS.md.
func (r Result) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n*Paper:* %s\n\n", r.ID, r.Title, r.PaperClaim)
	b.WriteString("| strategy | work | predicted | |\n|---|---:|---:|---|\n")
	for _, row := range r.Rows {
		pred := ""
		if row.Predicted >= 0 {
			pred = fmt.Sprintf("%.0f", row.Predicted)
		}
		fmt.Fprintf(&b, "| %s | %d | %s | %s |\n", row.Label, row.Work, pred, row.Marker)
	}
	if len(r.Notes) > 0 {
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// Report renders a run of every experiment as EXPERIMENTS.md's generated
// block: the summary of claims, then each result's section.
func Report(cfg Config, results []Result) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	b.WriteString("## Summary of claims\n\n| Experiment | Paper's claim | Measured here |\n|---|---|---|\n")
	for _, r := range results {
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", r.ID, r.PaperClaim, r.Measured)
	}
	fmt.Fprintf(&b, "\n## Measured tables (SF %g, seed %d, change fraction %g)\n\n", cfg.SF, cfg.Seed, cfg.ChangeFrac)
	for _, r := range results {
		b.WriteString(r.Markdown())
	}
	return b.String()
}

// rel renders how a compares with b.
func rel[T cmp.Ordered](a, b T) string {
	switch {
	case a < b:
		return "<"
	case a > b:
		return ">"
	}
	return "="
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
	agree := 0
	for n := 1; n <= 4; n++ {
		if got := len(strategy.OrderedPartitions(items[:n])); int64(got) != res.Rows[n-1].Work {
			res.Notes = append(res.Notes, fmt.Sprintf("enumeration mismatch at n=%d: %d", n, got))
		} else {
			agree++
		}
	}
	counts := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		counts[i] = fmt.Sprint(row.Work)
	}
	res.Measured = fmt.Sprintf("%s by the closed form; exhaustive enumeration agrees at %d of the 4 sizes n ≤ 4",
		strings.Join(counts, ", "), agree)
	res.Notes = append(res.Notes,
		"Q3, Q5, Q10 are defined over 3, 6 and 4 views: 13, 4683 and 75 strategies respectively")
	return res
}

// staged builds the TPC-D warehouse tc describes at cfg's scale and seed,
// stages the change batch spec makes, and returns it with the planning
// statistics of that batch.
func staged(cfg Config, tc tpcd.Config, spec tpcd.ChangeSpec) (*tpcd.Warehouse, cost.Stats, error) {
	tc.SF, tc.Seed = cfg.SF, cfg.Seed
	tw, err := tpcd.NewWarehouse(tc)
	if err != nil {
		return nil, nil, err
	}
	if _, err := tw.StageChanges(spec); err != nil {
		return nil, nil, err
	}
	stats, err := exec.PlanningStats(tw.W)
	return tw, stats, err
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
	row := Row{Label: label, Work: rep.TotalWork(), Predicted: -1}
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
	// The measured strategies update Q3 only, so only the views Q3 reads
	// change (the paper also decreased S and N, which Q3 strategies never
	// touch and which do not affect the measurement).
	tw, stats, err := staged(cfg, tpcd.Config{Queries: []string{tpcd.Q3}}, tpcd.COLDecrease(cfg.ChangeFrac))
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
	// least[k] and worst[k] are the smallest and largest work of the
	// strategies whose largest Comp block has k views.
	var least, worst [4]int64
	var mwsWork int64
	for _, e := range entries {
		if least[e.kind] == 0 || e.row.Work < least[e.kind] {
			least[e.kind] = e.row.Work
		}
		worst[e.kind] = max(worst[e.kind], e.row.Work)
		if e.row.Marker == "MinWorkSingle" {
			mwsWork = e.row.Work
		}
	}
	best, dual := min(least[1], least[2], least[3]), least[3]
	for _, e := range entries {
		if e.row.Work == best && e.row.Marker == "" {
			e.row.Marker = "optimal"
		}
		res.Rows = append(res.Rows, e.row)
	}
	ratio := float64(dual) / float64(best)
	res.Notes = append(res.Notes,
		fmt.Sprintf("dual-stage / optimal work ratio: %.2f (paper: ≈2.2–2.3 in time)", ratio))
	res.Measured = fmt.Sprintf("worst 1-way %d %s best 2-way %d; worst 2-way %d %s dual-stage %d; "+
		"dual-stage %.2f× the optimum; MinWorkSingle %d %s the optimum %d",
		worst[1], rel(worst[1], least[2]), least[2], worst[2], rel(worst[2], dual), dual,
		ratio, mwsWork, rel(mwsWork, best), best)
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
	tw, stats, err := staged(cfg, tpcd.Config{Queries: []string{tpcd.Q5}}, tpcd.UniformDecrease(cfg.ChangeFrac))
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
	ratio := float64(rowD.Work) / float64(rowM.Work)
	res.Notes = append(res.Notes, fmt.Sprintf("dual-stage / MinWorkSingle work ratio: %.2f (paper: >6 in time; dual-stage evaluates 63 terms vs 6)", ratio))
	res.Measured = fmt.Sprintf("dual-stage %.2f× MinWorkSingle in work", ratio)
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
	fracs := []int{2, 4, 6, 8, 10}
	holds := 0
	for _, pct := range fracs {
		p := float64(pct) / 100
		tw, stats, err := staged(cfg, tpcd.Config{Queries: []string{tpcd.Q3}}, tpcd.COLDecrease(p))
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
		if r := res.Rows[len(res.Rows)-3:]; r[0].Work <= r[1].Work && r[1].Work <= r[2].Work {
			holds++
		}
	}
	res.Measured = fmt.Sprintf("MinWorkSingle ≤ best 2-way ≤ dual-stage at %d of the %d fractions", holds, len(fracs))
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
	tw, stats, err := staged(cfg, tpcd.Config{}, tpcd.UniformDecrease(cfg.ChangeFrac))
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
	rev := slices.Clone(mw.UsedOrdering)
	slices.Reverse(rev)
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

	dualRatio, revRatio := float64(rowDual.Work)/float64(rowMW.Work), float64(rowRev.Work)/float64(rowMW.Work)
	res.Notes = append(res.Notes,
		fmt.Sprintf("dual-stage / MinWork work ratio: %.2f (paper: 5–6×)", dualRatio),
		fmt.Sprintf("reverse / MinWork work ratio: %.3f (paper: ≈1.11)", revRatio))
	res.Measured = fmt.Sprintf("dual-stage %.2f× MinWork; reverse %.3f× MinWork; Prune's best 1-way %d %s MinWork %d, "+
		"pricing %d ordering prefixes of the %d orderings", dualRatio, revRatio, rowPr.Work, rel(rowPr.Work, rowMW.Work),
		rowMW.Work, pr.Examined, orderings(len(tw.Graph.ViewsWithParents())))
	return res, nil
}

// orderings returns m!, the number of orderings of m views.
func orderings(m int) int {
	n := 1
	for ; m > 1; m-- {
		n *= m
	}
	return n
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
	tw, stats, err := staged(cfg, tpcd.Config{}, tpcd.UniformDecrease(cfg.ChangeFrac))
	if err != nil {
		return res, err
	}
	mw, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		return res, err
	}
	var scheds []exec.Schedule
	for _, v := range []struct {
		label string
		s     strategy.Strategy
	}{
		{"MinWork (1-way)", mw.Strategy},
		{"dual-stage", strategy.DualStageVDAG(tw.Graph)},
	} {
		run := tw.W.Clone()
		rep, err := exec.Execute(run, v.s, exec.Options{Mode: exec.ModeStaged})
		if err != nil {
			return res, err
		}
		if err := run.VerifyAll(); err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Row{
			Label:     fmt.Sprintf("%s stages=%d", v.label, rep.Sched.Levels),
			Work:      rep.TotalWork(),
			Predicted: float64(rep.Sched.SpanWork),
			Marker:    fmt.Sprintf("speedup=%.2f", rep.Sched.Speedup()),
		})
		scheds = append(scheds, rep.Sched)
	}
	one, dual := scheds[0], scheds[1]
	res.Measured = fmt.Sprintf("dual-stage runs in %d stages to MinWork's %d, but its total work %d %s %d "+
		"and its span work %d %s %d", dual.Levels, one.Levels, dual.TotalWork, rel(dual.TotalWork, one.TotalWork),
		one.TotalWork, dual.SpanWork, rel(dual.SpanWork, one.SpanWork), one.SpanWork)
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
	tw, stats, err := staged(cfg, tpcd.Config{}, tpcd.UniformDecrease(cfg.ChangeFrac))
	if err != nil {
		return res, err
	}
	mw, err := planner.MinWork(tw.Graph, stats)
	if err != nil {
		return res, err
	}
	refs := exec.RefCounts(tw.W)
	var variants []float64
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
		variants = append(variants, variant)
	}
	mwRow, dualRow := res.Rows[0], res.Rows[1]
	res.Measured = fmt.Sprintf("measured MinWork %d %s dual-stage %d; linear metric %.0f %s %.0f; variant metric %.0f %s %.0f",
		mwRow.Work, rel(mwRow.Work, dualRow.Work), dualRow.Work, mwRow.Predicted, rel(mwRow.Predicted, dualRow.Predicted),
		dualRow.Predicted, variants[0], rel(variants[0], variants[1]), variants[1])
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
	{"parallel", Parallel}, {"metric", MetricAblation}, {"estimation", Estimation}, {"deep", Deep},
}

// All runs every experiment.
func All(cfg Config) ([]Result, error) {
	var out []Result
	for _, e := range Experiments {
		r, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
