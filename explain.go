package warehouse

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/storage"
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
	b, err := cost.Simulate(DefaultCostModel, stats, refs, s)
	if err != nil {
		return "", err
	}
	// Read once: a placed index counts its keys by a scan (storage.IndexStats).
	indexes := make(map[string][]storage.IndexStats)
	for _, name := range w.core.ViewNames() {
		indexes[name] = w.core.MustView(name).IndexStats()
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
				operands = append(operands, fmt.Sprintf("|%s%s|=%d%s", child, mark, size, indexMarks(indexes[child])))
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
		for _, st := range indexes[name] {
			fmt.Fprintf(&sb, "join index %s%s\n", name, st)
		}
	}
	return sb.String(), nil
}

// indexMarks renders a state operand's resident join indexes as " ix[1][0]"
// (column positions, in creation order), or nothing when it has none.
func indexMarks(indexes []storage.IndexStats) string {
	var s string
	for _, st := range indexes {
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
