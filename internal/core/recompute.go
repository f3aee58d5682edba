package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/delta"
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
	fresh, err := w.evalFull(v.def)
	if err != nil {
		return nil, fmt.Errorf("core: recomputing %q: %w", name, err)
	}
	return fresh.SortedRows(), nil
}

// evalFull evaluates a definition from scratch over the current states of
// its referenced views — the full term (no delta refs: every operand reads
// state) run through the term engine, outside any window's build cache —
// into a fresh table: a select-project-join's rows go straight into a new
// table, whose row map merges equal rows, and an aggregate's partials become
// the groups of a new summary table, each built as its output row
// (storage.AggBuilder).
func (w *Warehouse) evalFull(cq *algebra.CQ) (*storage.Table, error) {
	ops, err := w.bindStates(cq)
	if err != nil {
		return nil, err
	}
	fresh, out := newTable(cq, cq.OutputSchema()), acc{}
	if cq.IsAggregate() {
		out.p = delta.NewGroupPartials(cq.GroupSchema(), cq.AggSpecs())
	} else {
		out.t = fresh
	}
	var rep CompReport
	term := compiledTerm{orders: []*pipeline{recomputeOrder(cq, ops)}}
	if err := runTerms(&evalEnv{}, cq, []compiledTerm{term}, ops, out, &rep); err != nil {
		return nil, err
	}
	if out.p != nil {
		b := fresh.BuildGroups(out.p.GroupCount())
		out.p.Scan(func(key string, gp *delta.GroupPartial) bool {
			err = b.Add([]byte(key), gp.Support, gp.Accums)
			return err == nil
		})
		if err != nil {
			return nil, err
		}
		b.Done()
	}
	return fresh, nil
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
	fresh, err := w.evalFull(cq)
	if err != nil {
		return nil, err
	}
	return storage.CollectRows(0, fresh.Scan), nil
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

// RefreshAll recomputes every derived view from the current base data into
// a fresh store and swaps it in (View.Replace), in definition (topological)
// order. It is how a warehouse is initially populated after LoadBase.
func (w *Warehouse) RefreshAll() error {
	for _, v := range w.list {
		if v.IsBase() {
			continue
		}
		fresh, err := w.evalFull(v.def)
		if err != nil {
			return fmt.Errorf("core: refreshing %q: %w", v.name, err)
		}
		v.Replace(fresh)
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
