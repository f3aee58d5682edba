package core

import "repro/internal/algebra"

// LiveColumns returns, for each operand of a definition, the columns of its
// rows that the term engine copies into the scratch row — what planTerm
// gives the driver and every join step — for the tests of package
// core_test, which may import the packages that import core.
func LiveColumns(cq *algebra.CQ) [][]int {
	read := cq.ReadColumns()
	live := make([][]int, len(cq.Refs))
	for i, ref := range cq.Refs {
		live[i] = liveColumns(read, cq.RefOffset(i), len(ref.Schema))
	}
	return live
}

// IndexStep is one index step of a compiled pipeline: the view its operand
// reads and the columns of the index it probes.
type IndexStep struct {
	View string
	Cols []int
}

// IndexSteps compiles Comp(view, over) and returns the index steps of every
// pipeline of its terms, one pipeline per driver.
func IndexSteps(w *Warehouse, view string, over []string) ([]IndexStep, error) {
	v := w.views[view]
	terms, err := v.compiledComp(over)
	if err != nil {
		return nil, err
	}
	var out []IndexStep
	for _, t := range terms {
		for _, p := range t.orders {
			for _, s := range p.steps {
				if s.indexed {
					out = append(out, IndexStep{View: v.def.Refs[s.ref].View, Cols: s.cols})
				}
			}
		}
	}
	return out, nil
}
