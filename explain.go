package warehouse

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/planner"
)

// Explain renders a strategy with its predicted per-expression cost under
// the linear work metric and the current planning statistics: for each
// Comp, the number of maintenance terms and the operand state it will read
// (pre- or post-install sizes) with the resident join indexes that serve it
// ("ix[cols]…", see storage.Index); for each Inst, the delta size installed.
// The footer totals the prediction and lists each resident index with its
// keys, rows, probes and upkeep operations. Useful for understanding *why* one
// strategy beats another before running either.
func (w *Warehouse) Explain(s Strategy) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := validate(w.core, s); err != nil {
		return "", err
	}
	stats, err := exec.PlanningStats(w.core)
	if err != nil {
		return "", err
	}
	refs := exec.RefCounts(w.core)
	b, err := cost.Simulate(w.model, stats, refs, s)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "EXPLAIN (linear work metric; estimated |δ| for derived views)\n")
	installed := make(map[string]bool)
	for i, e := range s {
		fmt.Fprintf(&sb, "%3d. %-36s cost %10.0f", i+1, e.String(), b.PerExpr[i])
		switch x := e.(type) {
		case Comp:
			nTerms, err := maintain.TermCount(w.core.MustView(x.View).Def(), x.Over)
			if err != nil {
				return "", err
			}
			var operands []string
			for _, child := range w.core.Children(x.View) {
				st := stats[child]
				size := st.Size
				mark := ""
				if installed[child] {
					size = st.SizeAfter()
					mark = "′" // post-install state
				}
				operands = append(operands, fmt.Sprintf("|%s%s|=%d%s", child, mark, size, indexMarks(w.core.MustView(child))))
				if containsStr(x.Over, child) {
					operands = append(operands, fmt.Sprintf("|δ%s|=%d", child, st.DeltaSize()))
				}
			}
			fmt.Fprintf(&sb, "  terms=%d  %s", nTerms, strings.Join(operands, " "))
		case Inst:
			fmt.Fprintf(&sb, "  |δ%s|=%d", x.View, stats[x.View].DeltaSize())
			installed[x.View] = true
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "total predicted work: %.0f (comp %.0f + inst %.0f)\n", b.Total, b.Comp, b.Inst)
	for _, name := range w.core.ViewNames() {
		for _, st := range w.core.MustView(name).IndexStats() {
			fmt.Fprintf(&sb, "join index %s%s\n", name, st)
		}
	}
	return sb.String(), nil
}

// indexMarks renders a state operand's resident join indexes as " ix[0][0 2]"
// (column positions), or nothing when it has none.
func indexMarks(v *core.View) string {
	var s string
	for _, st := range v.IndexStats() {
		s += fmt.Sprint(st.Cols)
	}
	if s != "" {
		s = " ix" + s
	}
	return s
}

func containsStr(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// ExplainSharing renders what window-wide sharing would do for s and what it
// last did. The first block is the planned election under the current
// planning statistics: every operand at least two Comps of s read, with its
// estimated size and savings, most saved first. The second, present when the
// last window this warehouse committed held builds in its cache, lists each
// of them: requests, hits, built rows and bytes, and its fate (resident or
// dropped). A nil strategy renders the second block alone — what
// a caller that printed the election before its window asks for after it.
func (w *Warehouse) ExplainSharing(s Strategy) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var sb strings.Builder
	if s != nil {
		stats, err := exec.PlanningStats(w.core)
		if err != nil {
			return "", err
		}
		a := planner.AnalyzeSharing(s, exec.RefsOf(w.core), planner.SharingOptions{Stats: stats, Width: exec.WidthOf(w.core)})
		fmt.Fprintf(&sb, "sharing election: %d shared operands, est saved %d tuples\n",
			a.SharedOperands, a.EstimatedSavedTuples)
		for _, e := range a.Elected {
			fmt.Fprintf(&sb, "  %-24s consumers=%d est_rows=%-8d est_bytes=%-10d est_saved=%d\n",
				e.Name, e.Consumers, e.EstRows, e.EstBytes, e.EstSavedTuples)
		}
	}
	w.tallyMu.Lock()
	last := w.last
	w.tallyMu.Unlock()
	if detail := last.Report.SharedDetail; len(detail) > 0 {
		fmt.Fprintf(&sb, "shared entries observed (window %d):\n", last.Seq)
		for _, d := range detail {
			fmt.Fprintf(&sb, "  %-24s requests=%d hits=%d rows=%-8d bytes=%-10d fate=%s\n",
				d.Name, d.Requests, d.Hits, d.Rows, d.Bytes, d.Fate)
		}
	}
	return sb.String(), nil
}
