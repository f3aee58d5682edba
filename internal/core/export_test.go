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
