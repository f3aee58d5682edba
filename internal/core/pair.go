package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/relation"
)

// This file enumerates a view definition's join-intermediate candidates and
// computes the intermediate's rows. A candidate is a pair of *adjacent*
// FROM-clause references joined by at least one equi-join predicate: the
// composite tuple [A columns][B columns] is then a contiguous slice of the
// joined scratch row, so the probe pipeline's single-copy emit handles a
// composite build table exactly like a single-operand one. The intermediate
// is the raw equi-join only — every other filter involving the pair stays
// in the pipeline's pending-filter machinery and is applied when the
// composite step binds both references — and its rows carry the product of
// the input multiplicities, so probing it is bag-equivalent to probing the
// two operands in sequence.

// PairCand is one join-intermediate candidate of a view definition, in the
// terms the planner's pair hints use.
type PairCand struct {
	// RefA and RefB are the adjacent reference indexes (RefB == RefA+1).
	RefA, RefB int
	// ViewA and ViewB name the referenced views, in reference order.
	ViewA, ViewB string
	// Sig is the canonical equi-join signature: sorted "a=b" pairs of
	// operand-local column indexes.
	Sig string
}

// PairCandidates enumerates the adjacent equi-joined reference pairs of a
// view definition. exec adapts this into the planner's pair hints; planTerm
// recomputes the same signatures to match hints to runtime join steps.
func PairCandidates(def *algebra.CQ) []PairCand {
	var out []PairCand
	for a := 0; a+1 < len(def.Refs); a++ {
		b := a + 1
		pks := pairEquiKeys(def, a, b)
		if len(pks) == 0 {
			continue
		}
		out = append(out, PairCand{
			RefA: a, RefB: b,
			ViewA: def.Refs[a].View, ViewB: def.Refs[b].View,
			Sig: pairSig(def, a, b, pks),
		})
	}
	return out
}

// pairKey is one equi-join predicate between references a and b, with the
// column of each side in joined-row coordinates.
type pairKey struct {
	filterIdx  int
	colA, colB int
}

// pairEquiKeys finds the col=col equality filters linking exactly refs a
// and b.
func pairEquiKeys(cq *algebra.CQ, a, b int) []pairKey {
	var out []pairKey
	for fi, f := range cq.Filters {
		bin, ok := f.(*algebra.Binary)
		if !ok || bin.Op != algebra.OpEq {
			continue
		}
		lc, lok := bin.L.(*algebra.Col)
		rc, rok := bin.R.(*algebra.Col)
		if !lok || !rok {
			continue
		}
		lr, rr := cq.RefOfColumn(lc.Index), cq.RefOfColumn(rc.Index)
		switch {
		case lr == a && rr == b:
			out = append(out, pairKey{filterIdx: fi, colA: lc.Index, colB: rc.Index})
		case lr == b && rr == a:
			out = append(out, pairKey{filterIdx: fi, colA: rc.Index, colB: lc.Index})
		}
	}
	return out
}

// pairSig renders the canonical signature of a pair's equi-join keys in
// operand-local column indexes.
func pairSig(cq *algebra.CQ, a, b int, pks []pairKey) string {
	offA, offB := cq.RefOffset(a), cq.RefOffset(b)
	parts := make([]string, len(pks))
	for i, pk := range pks {
		parts[i] = fmt.Sprintf("%d=%d", pk.colA-offA, pk.colB-offB)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// joinRows computes the raw equi-join of two materialized operand scans:
// concatenated tuples with multiplied counts, hash-then-verify on the key
// columns (operand-local indexes).
func joinRows(rowsA, rowsB []prow, colsA, colsB []int, widthA, widthB int) []prow {
	bt := newBuildTable(rowsB, colsB)
	var out []prow
	keyA := make(relation.Tuple, len(colsA))
	enc := make([]byte, 0, 64)
	for i := range rowsA {
		ra := &rowsA[i]
		for ki, c := range colsA {
			keyA[ki] = ra.row[c]
		}
		enc = keyA.AppendEncoded(enc[:0])
		for j := bt.first(enc); j != 0; j = bt.entries[j-1].next {
			if !bytes.Equal(enc, bt.keyOf(j-1)) {
				continue
			}
			e := &bt.entries[j-1]
			row := make(relation.Tuple, widthA+widthB)
			copy(row, ra.row)
			copy(row[widthA:], e.tup)
			out = append(out, prow{row: row, count: ra.count * e.count})
		}
	}
	return out
}
