package experiments

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/tpcd"
)

// Estimation measures the quality of the Section 5.5 statistics pipeline:
// derived-view delta sizes are estimated bottom-up before planning, so the
// question is (a) how far the estimates land from the actual deltas, and
// (b) whether the planning decision they drive — the desired view ordering
// — matches the one exact statistics would give. The paper argues the
// estimates only need to be good enough to order the views.
func Estimation(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{
		ID:    "estimation",
		Title: "Derived-delta estimation vs. actual (Section 5.5)",
		PaperClaim: "standard result-size estimation suffices: the planner only " +
			"needs the estimates to produce a good view ordering",
	}
	specs := []struct {
		label string
		spec  tpcd.ChangeSpec
	}{
		{"uniform -10%", tpcd.UniformDecrease(0.10)},
		{"C/O/L -5%", tpcd.COLDecrease(0.05)},
		{"mixed -5%/+8%", tpcd.Mixed(0.05, 0.08)},
	}
	matched, lo, hi := 0, math.Inf(1), math.Inf(-1)
	for _, s := range specs {
		tw, estStats, err := staged(cfg, tpcd.Config{}, s.spec)
		if err != nil {
			return res, err
		}
		// Ground truth: run any correct strategy on a clone and diff.
		pre := tw.W
		run := pre.Clone()
		mw, err := planner.MinWork(tw.Graph, estStats)
		if err != nil {
			return res, err
		}
		if _, err := exec.Execute(run, mw.Strategy, exec.Options{Validate: true}); err != nil {
			return res, err
		}
		exactStats, err := exec.ExactStats(pre, run)
		if err != nil {
			return res, err
		}
		for _, q := range tpcd.DerivedViews {
			est, act := estStats[q].DeltaSize(), exactStats[q].DeltaSize()
			errPct := 0.0
			if act > 0 {
				errPct = 100 * float64(est-act) / float64(act)
			}
			lo, hi = min(lo, errPct), max(hi, errPct)
			res.Rows = append(res.Rows, Row{
				Label:     fmt.Sprintf("%s δ%s", s.label, q),
				Work:      act,
				Predicted: float64(est),
				Marker:    fmt.Sprintf("%+.0f%%", errPct),
			})
		}
		// The decision check: orderings from estimates vs. exact stats.
		estOrd, err := planner.DesiredOrdering(tw.Graph.ViewsWithParents(), estStats)
		if err != nil {
			return res, err
		}
		exactOrd, err := planner.DesiredOrdering(tw.Graph.ViewsWithParents(), exactStats)
		if err != nil {
			return res, err
		}
		same := "orderings MATCH"
		if fmt.Sprint(estOrd) != fmt.Sprint(exactOrd) {
			same = fmt.Sprintf("orderings differ: est %v vs exact %v", estOrd, exactOrd)
		} else {
			matched++
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %s", s.label, same))
	}
	res.Notes = append(res.Notes,
		"'work' column holds the actual |δV|, 'predicted' the Section 5.5 estimate")
	res.Measured = fmt.Sprintf("derived-delta size estimates off by %+.0f%% to %+.0f%%, yet the ordering from estimates "+
		"matches the one from exact statistics in %d of %d workloads", lo, hi, matched, len(specs))
	return res, nil
}
