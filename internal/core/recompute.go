package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/maintain"
	"repro/internal/storage"
)

// Recompute evaluates a derived view's definition from scratch over the
// current states of its referenced views and returns the result as a plain
// counted table (aggregate views are rendered to their output rows). The
// view's materialized state is not touched.
//
// Recompute is the correctness oracle for incremental strategies: after a
// correct strategy executes, every view's state must equal its recomputation
// over the updated base data (Theorem of [GMS93] restated as conditions
// C1–C8 in the paper).
func (w *Warehouse) Recompute(name string) (*storage.Table, error) {
	v := w.views[name]
	if v == nil {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	if v.IsBase() {
		return v.table.Clone(), nil
	}
	out, err := w.evalTable(v.def)
	if err != nil {
		return nil, fmt.Errorf("core: recomputing %q: %w", name, err)
	}
	return out, nil
}

// evalFull evaluates a definition from scratch over the current states of
// its referenced views: the full term (no delta refs — every operand reads
// state) run through the term engine at width 1, outside any window's
// build cache or budget, into a fresh accumulator.
func (w *Warehouse) evalFull(cq *algebra.CQ) (acc, error) {
	out := newAcc(cq)
	var rep CompReport
	err := w.runTerms(&evalEnv{}, cq, []maintain.Term{{}}, nil, out, &rep)
	return out, err
}

// evalTable is evalFull rendered as a plain counted table (aggregates to
// their output rows).
func (w *Warehouse) evalTable(cq *algebra.CQ) (*storage.Table, error) {
	out, err := w.evalFull(cq)
	if err != nil {
		return nil, err
	}
	if out.p != nil {
		fresh := storage.NewAggTable(cq.GroupSchema(), cq.AggSpecs(), cq.AggNames())
		if err := fresh.Apply(out.p); err != nil {
			return nil, err
		}
		return fresh.AsTable(), nil
	}
	// ApplyDelta refuses a non-positive net count, which a full term over
	// well-formed states never produces.
	t := storage.NewTable(cq.OutputSchema())
	if err := t.ApplyDelta(out.d); err != nil {
		return nil, err
	}
	return t, nil
}

// Evaluate runs an ad-hoc query (a validated CQ whose references name
// catalog views) against the current materialized state and returns the
// result as a counted table. This is the OLAP read path: queries evaluate
// against whatever state the views are in, so they keep working during an
// update window (seeing pre- or post-install states per view, exactly the
// isolation the paper's discussion section describes).
func (w *Warehouse) Evaluate(cq *algebra.CQ) (*storage.Table, error) {
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
	return w.evalTable(cq)
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
	var got *storage.Table
	if v.agg != nil {
		got = v.agg.AsTable()
	} else {
		got = v.table.Clone()
	}
	// Incremental float aggregation sums in a different order than
	// recomputation, so float columns compare under relative tolerance.
	if !got.ApproxEqual(want, verifyTolerance) {
		return fmt.Errorf("core: view %q diverged from recomputation: have %d rows, recompute gives %d rows",
			name, got.Cardinality(), want.Cardinality())
	}
	return nil
}

// verifyTolerance is the relative float tolerance VerifyView allows between
// incrementally maintained aggregates and their recomputation.
const verifyTolerance = 1e-9

// VerifyAll verifies every derived view bottom-up (definition order is
// topological, so each view is checked against already-verified children),
// and every view's running digest against a scan of its rows. Views known
// to be stale under deferred maintenance are skipped for the first check —
// their divergence is expected until RefreshStale runs.
func (w *Warehouse) VerifyAll() error {
	for _, name := range w.order {
		v := w.views[name]
		if err := v.CheckDigest(); err != nil {
			return fmt.Errorf("core: view %q: %w", name, err)
		}
		if v.stale {
			continue
		}
		if err := w.VerifyView(name); err != nil {
			return err
		}
	}
	return nil
}

// RefreshAll recomputes every derived view from the current base data and
// overwrites its materialized state, in definition (topological) order. It
// is how a warehouse is initially populated after LoadBase. Staleness
// markers are cleared.
func (w *Warehouse) RefreshAll() error {
	for _, name := range w.order {
		v := w.views[name]
		if v.IsBase() {
			continue
		}
		if err := w.refreshOne(v); err != nil {
			return err
		}
		v.stale = false
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
		err = v.agg.Apply(out.p)
	} else {
		v.table.Clear()
		err = v.table.ApplyDelta(out.d)
	}
	if err != nil {
		return fmt.Errorf("core: refreshing %q: %w", v.name, err)
	}
	return nil
}

// PendingViews returns the names of views with uninstalled changes.
func (w *Warehouse) PendingViews() []string {
	var out []string
	for _, name := range w.order {
		if w.views[name].HasPending() {
			out = append(out, name)
		}
	}
	return out
}
