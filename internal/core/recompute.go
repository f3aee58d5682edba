package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// Recompute evaluates a derived view's definition from scratch over the
// current states of its referenced views and returns the result as counted
// rows in storage.SortRows order (a base view's are its own, read-only). The
// view's materialized state is not touched.
//
// Recompute is the correctness oracle for incremental strategies: after a
// correct strategy executes, every view's state must equal its recomputation
// over the updated base data (Theorem of [GMS93] restated as conditions
// C1–C8 in the paper).
func (w *Warehouse) Recompute(name string) ([]storage.CountedTuple, error) {
	v := w.views[name]
	if v == nil {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	if v.IsBase() {
		return v.SortedRows(), nil
	}
	rows, err := w.evalRows(v.def)
	if err != nil {
		return nil, fmt.Errorf("core: recomputing %q: %w", name, err)
	}
	storage.SortRows(rows)
	return rows, nil
}

// evalFull evaluates a definition from scratch over the current states of
// its referenced views: the full term (no delta refs — every operand reads
// state) run through the term engine, outside any window's build cache, into
// a fresh accumulator.
func (w *Warehouse) evalFull(cq *algebra.CQ) (acc, error) {
	ops, err := w.bindStates(cq)
	if err != nil {
		return acc{}, err
	}
	out := newAcc(cq)
	var rep CompReport
	term := compiledTerm{orders: []*pipeline{recomputeOrder(cq, ops)}}
	err = runTerms(&evalEnv{}, cq, []compiledTerm{term}, ops, out, &rep)
	return out, err
}

// evalRows is evalFull read as counted rows, in no particular order: the
// accumulated delta of a select-project-join, or the output rows of the
// aggregate table an aggregate's partials fill.
func (w *Warehouse) evalRows(cq *algebra.CQ) ([]storage.CountedTuple, error) {
	out, err := w.evalFull(cq)
	if err != nil {
		return nil, err
	}
	if out.p != nil {
		fresh := storage.NewAggTable(cq.GroupSchema(), cq.AggSpecs(), cq.AggNames())
		if _, _, err := fresh.Apply(out.p); err != nil {
			return nil, err
		}
		return storage.CollectRows(int(fresh.Cardinality()), fresh.Scan), nil
	}
	// A full term over well-formed states never yields a non-positive count.
	rows := storage.CollectRows(out.d.Distinct(), out.d.Scan)
	for _, r := range rows {
		if r.Count <= 0 {
			return nil, fmt.Errorf("core: evaluation yields %d copies of %v", r.Count, r.Tuple)
		}
	}
	return rows, nil
}

// Evaluate runs an ad-hoc query (a validated CQ whose references name
// catalog views) against the current materialized state and returns the
// result as counted rows, in no particular order. This is the OLAP read
// path: queries evaluate against whatever state the views are in, so they
// keep working during an update window (seeing pre- or post-install states
// per view, exactly the isolation the paper's discussion section describes).
func (w *Warehouse) Evaluate(cq *algebra.CQ) ([]storage.CountedTuple, error) {
	// Cached plans are validated once at bind time and then shared across
	// queries; re-validating would rewrite the CQ's internal offsets and
	// race with concurrent evaluations of the same plan.
	if !cq.Validated() {
		if err := cq.Validate(); err != nil {
			return nil, err
		}
	}
	for _, r := range cq.Refs {
		v := w.views[r.View]
		if v == nil {
			return nil, fmt.Errorf("core: query references unknown view %q", r.View)
		}
		if !v.Schema().Equal(r.Schema) {
			return nil, fmt.Errorf("core: query ref %q schema does not match view %q", r.Alias, r.View)
		}
	}
	return w.evalRows(cq)
}

// VerifyView checks that the named view's materialized state equals its
// recomputation over the current states of its children.
func (w *Warehouse) VerifyView(name string) error {
	v := w.views[name]
	if v == nil {
		return fmt.Errorf("core: unknown view %q", name)
	}
	if v.IsBase() {
		return nil
	}
	want, err := w.Recompute(name)
	if err != nil {
		return err
	}
	// Incremental float aggregation sums in a different order than
	// recomputation, so float columns compare under relative tolerance.
	if !storage.ApproxEqualRows(v.SortedRows(), want, verifyTolerance) {
		var n int64
		for _, r := range want {
			n += r.Count
		}
		return fmt.Errorf("core: view %q diverged from recomputation: have %d rows, recompute gives %d rows",
			name, v.Cardinality(), n)
	}
	return nil
}

// verifyTolerance is the relative float tolerance VerifyView allows between
// incrementally maintained aggregates and their recomputation.
const verifyTolerance = 1e-9

// VerifyAll verifies every derived view bottom-up (definition order is
// topological, so each view is checked against already-verified children),
// and every view's running digest against a scan of its rows.
func (w *Warehouse) VerifyAll() error {
	for _, v := range w.list {
		if err := v.CheckDigest(); err != nil {
			return fmt.Errorf("core: view %q: %w", v.name, err)
		}
		if err := w.VerifyView(v.name); err != nil {
			return err
		}
	}
	return nil
}

// RefreshAll recomputes every derived view from the current base data and
// overwrites its materialized state, in definition (topological) order. It
// is how a warehouse is initially populated after LoadBase.
func (w *Warehouse) RefreshAll() error {
	for _, v := range w.list {
		if v.IsBase() {
			continue
		}
		if err := w.refreshOne(v); err != nil {
			return err
		}
	}
	return nil
}

// refreshOne recomputes one derived view from its children's current state
// and replaces its materialized contents.
func (w *Warehouse) refreshOne(v *View) error {
	out, err := w.evalFull(v.def)
	if err != nil {
		return err
	}
	if v.agg != nil {
		v.agg.Clear()
		_, _, err = v.agg.Apply(out.p)
	} else {
		v.table.Clear()
		_, err = v.table.ApplyDelta(out.d)
	}
	if err != nil {
		return fmt.Errorf("core: refreshing %q: %w", v.name, err)
	}
	return nil
}

// PendingViews returns the names of views with uninstalled changes.
func (w *Warehouse) PendingViews() []string {
	var out []string
	for _, v := range w.list {
		if v.HasPending() {
			out = append(out, v.name)
		}
	}
	return out
}
