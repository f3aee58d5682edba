package core

import (
	"sort"
	"strconv"
	"sync"

	"repro/internal/algebra"
	"repro/internal/maintain"
)

// Join orders. A term's pipeline — the operand that drives, the order the
// others join in, and each step's keys, filters and live columns — is
// planned here. For a term a delta drives it is compiled from the
// definition and the driver alone, never from data sizes, once per Comp,
// and kept with the view's definition (viewOrders): every window, clone,
// follower and restored copy runs the same order, so the order in which
// float sums reach the sink does not depend on when the order was made. A
// window only binds its operands and resolves its epoch's indexes
// (runTerm). A compiled pipeline names its operands by reference index and
// holds no table, index or delta.
//
// The next step is the connected operand — one an unapplied equi-join links
// to the bound prefix — that yields the fewest rows a probe, ties broken by
// reference index; a cross product comes only when none is connected. A
// step on a view's state whose keys cover the table's column 0 — the key
// the row map serves, one row a probe on a keyed table — goes before a step
// that may fan out: one on other columns, or one on a delta. On foreign-key joins every step a delta drives then
// looks up a key, and the term's machine work follows |δ|, not the sizes of
// the tables it joins.
//
// A recompute term (no delta operand) reads every operand whole, and there
// the linear metric is exact: it is planned at each call from the operands'
// cardinalities (recomputeOrder) — the smallest drives, and the smallest
// connected operand joins next.

// compiledTerm is one maintenance term of a Comp with its pipelines, one per
// possible driver: orders[k] is the one the term's k-th delta reference
// drives. A recompute term has one.
type compiledTerm struct {
	deltaRefs []int  // ascending
	deltaMask uint64 // deltaRefs as a mask of reference indexes
	orders    []*pipeline
}

// viewOrders holds a derived view's compiled Comps, keyed by the mask of
// the references their deltas bind. Each is compiled at its first Compute
// and then shared by every clone of the view (Clone copies the pointer),
// across epochs and DAG workers; mu guards the map.
type viewOrders struct {
	refs  map[string]uint64 // each child view's references, as a mask
	mu    sync.Mutex
	comps map[uint64][]compiledTerm
}

func newViewOrders(def *algebra.CQ) *viewOrders {
	o := &viewOrders{refs: make(map[string]uint64), comps: make(map[uint64][]compiledTerm)}
	for i, r := range def.Refs {
		o.refs[r.View] |= 1 << uint(i)
	}
	return o
}

// compiledComp returns the compiled terms of Comp(v, over), compiling them
// at the Comp's first call. The order of over does not matter.
func (v *View) compiledComp(over []string) ([]compiledTerm, error) {
	o := v.orders
	var mask uint64
	for _, name := range over {
		m := o.refs[name]
		if m == 0 || mask&m != 0 {
			mask = 0 // an unreferenced or repeated view: maintain.Terms says which
			break
		}
		mask |= m
	}
	if mask != 0 {
		o.mu.Lock()
		terms, ok := o.comps[mask]
		o.mu.Unlock()
		if ok {
			return terms, nil
		}
	}
	raw, err := maintain.Terms(v.def, over)
	if err != nil {
		return nil, err
	}
	terms := make([]compiledTerm, len(raw))
	for i, t := range raw {
		terms[i] = compileTerm(v.def, t)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.comps[mask]; ok {
		return prev, nil
	}
	o.comps[mask] = terms
	return terms, nil
}

// compileTerm compiles a delta-driven term's pipelines, one per driver.
// Every step on a view's state reads it through its table's resident index.
func compileTerm(cq *algebra.CQ, t maintain.Term) compiledTerm {
	ct := compiledTerm{deltaRefs: t.DeltaRefs}
	for _, r := range t.DeltaRefs {
		ct.deltaMask |= 1 << uint(r)
	}
	indexed := func(ref int) bool { return ct.deltaMask&(1<<uint(ref)) == 0 }
	rank := func(ref int, keys []equiKey) int64 {
		if indexed(ref) && coversFirstColumn(cq, ref, keys) {
			return 0
		}
		return 1
	}
	for _, d := range t.DeltaRefs {
		ct.orders = append(ct.orders, compileOrder(cq, d, indexed, rank))
	}
	return ct
}

// coversFirstColumn reports whether keys bind column 0 of reference ref.
func coversFirstColumn(cq *algebra.CQ, ref int, keys []equiKey) bool {
	for _, k := range keys {
		if k.newCol == cq.RefOffset(ref) {
			return true
		}
	}
	return false
}

// recomputeOrder plans the full term over the states ops binds: the
// smallest operand drives (ties by reference index), and the smallest
// connected one joins next. Every step probes a build table.
func recomputeOrder(cq *algebra.CQ, ops operands) *pipeline {
	driver := 0
	for i := range cq.Refs {
		if ops.state[i].Cardinality() < ops.state[driver].Cardinality() {
			driver = i
		}
	}
	never := func(int) bool { return false }
	card := func(ref int, _ []equiKey) int64 { return ops.state[ref].Cardinality() }
	return compileOrder(cq, driver, never, card)
}

// compileOrder plans the pipeline driver drives: the remaining operands
// join one at a time, each the connected one of lowest rank (ties by
// reference index), else the unconnected one of lowest rank. A step is an
// index step when indexed says its operand is read through a resident
// index and an equi-join keys it, and its index columns are decided here
// (indexKeys); every other step probes a build table over one operand scan,
// which is the execution model behind the paper's linear work metric. The
// driver and every step copy only their operand's live columns
// (liveColumns).
func compileOrder(cq *algebra.CQ, driver int, indexed func(ref int) bool, rank func(ref int, keys []equiKey) int64) *pipeline {
	bound := uint64(1) << uint(driver)
	applied := make([]bool, len(cq.Filters))
	read := cq.ReadColumns()
	p := &pipeline{
		driver: driver,
		off:    cq.RefOffset(driver),
		live:   liveColumns(read, cq.RefOffset(driver), len(cq.Refs[driver].Schema)),
		width:  len(cq.JoinedSchema()),
		// Filters local to the driver run before the first probe.
		driverPreds: pendingFilters(cq, bound, applied),
	}
	remaining := make([]int, 0, len(cq.Refs)-1)
	for i := range cq.Refs {
		if i != driver {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		next, nextPos, nextConnected, nextRank := -1, -1, false, int64(0)
		for pos, i := range remaining {
			keys := equiKeys(cq, bound, i, applied)
			conn, r := len(keys) > 0, rank(i, keys)
			better := false
			switch {
			case next < 0:
				better = true
			case conn != nextConnected:
				better = conn
			case r != nextRank:
				better = r < nextRank
			}
			if better {
				next, nextPos, nextConnected, nextRank = i, pos, conn, r
			}
		}
		i := next
		remaining = append(remaining[:nextPos], remaining[nextPos+1:]...)

		keys := equiKeys(cq, bound, i, applied)
		for _, k := range keys {
			applied[k.filterIdx] = true
		}
		// Canonical key order: both the build and probe sides project in
		// newCol order, so a build table is reusable across terms that
		// discover the same keys in a different sequence.
		sortKeysByNewCol(keys)
		roff := cq.RefOffset(i)
		bound |= 1 << uint(i)
		step := joinStep{
			ref:     i,
			keys:    keys,
			roff:    roff,
			live:    liveColumns(read, roff, len(cq.Refs[i].Schema)),
			preds:   pendingFilters(cq, bound, applied),
			indexed: indexed(i) && len(keys) > 0,
		}
		if step.indexed {
			step.keys, step.resid = indexKeys(keys, roff)
		}
		for _, k := range step.keys {
			step.cols = append(step.cols, k.newCol-roff)
		}
		if !step.indexed {
			step.colsKey = colsKey(step.cols)
		}
		p.steps = append(p.steps, step)
	}
	return p
}

// indexKeys splits an index step's keys, in newCol order, into those its
// probe encodes and those checked on each row the probe yields (resid). A
// step that binds its operand's column 0 (at joined offset roff) probes the
// index on that column alone and checks every other key; any other step
// probes the index on exactly its key columns and checks a second equality
// on a column. So which index a step probes is compiled with its order, and
// the indexes a table holds follow from the compiled orders.
func indexKeys(keys []equiKey, roff int) (probe, resid []equiKey) {
	for _, k := range keys {
		if n := len(probe); n == 0 || probe[0].newCol != roff && probe[n-1].newCol != k.newCol {
			probe = append(probe, k)
		} else {
			resid = append(resid, k)
		}
	}
	return probe, resid
}

// liveColumns returns the operand-local positions, ascending, of the n
// columns at joined offset off that read marks (CQ.ReadColumns): what the
// pipeline copies of one of that operand's rows into the scratch row. No
// step, sink or projector reads any other column.
func liveColumns(read []bool, off, n int) []int {
	var live []int
	for c := 0; c < n; c++ {
		if read[off+c] {
			live = append(live, c)
		}
	}
	return live
}

// sortKeysByNewCol orders equi-key pairs by their candidate-side column, the
// canonical order join indexes and the build cache use.
func sortKeysByNewCol(keys []equiKey) {
	sort.Slice(keys, func(a, b int) bool { return keys[a].newCol < keys[b].newCol })
}

// colsKey renders key columns as the build cache's key.
func colsKey(cols []int) string {
	b := make([]byte, 0, 3*len(cols))
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// pendingFilters collects — and marks applied — every not-yet-applied filter
// whose referenced refs are all bound.
func pendingFilters(cq *algebra.CQ, bound uint64, applied []bool) []algebra.Expr {
	var preds []algebra.Expr
	for fi, f := range cq.Filters {
		if applied[fi] {
			continue
		}
		if cq.FilterRefs(fi)&^bound == 0 {
			preds = append(preds, f)
			applied[fi] = true
		}
	}
	return preds
}

// equiKey describes one usable equi-join key pair for a candidate operand.
type equiKey struct {
	filterIdx int
	boundCol  int // column index (joined row) on the already-bound side
	newCol    int // column index (joined row) on the candidate side
}

// equiKeys finds unapplied equality filters of the form col=col with one
// side entirely in bound refs and the other on candidate ref i.
func equiKeys(cq *algebra.CQ, bound uint64, i int, applied []bool) []equiKey {
	var out []equiKey
	for fi, f := range cq.Filters {
		if applied[fi] {
			continue
		}
		b, ok := f.(*algebra.Binary)
		if !ok || b.Op != algebra.OpEq {
			continue
		}
		lc, lok := b.L.(*algebra.Col)
		rc, rok := b.R.(*algebra.Col)
		if !lok || !rok {
			continue
		}
		lRef, rRef := cq.RefOfColumn(lc.Index), cq.RefOfColumn(rc.Index)
		lBound := bound&(1<<uint(lRef)) != 0
		rBound := bound&(1<<uint(rRef)) != 0
		switch {
		case lBound && rRef == i:
			out = append(out, equiKey{filterIdx: fi, boundCol: lc.Index, newCol: rc.Index})
		case rBound && lRef == i:
			out = append(out, equiKey{filterIdx: fi, boundCol: rc.Index, newCol: lc.Index})
		}
	}
	return out
}
