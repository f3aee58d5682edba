// Package core implements the warehouse runtime: the catalog of materialized
// views (base and derived), the compute/install operations that strategies
// sequence, full recomputation for verification, and the work accounting
// that backs the paper's experiments.
//
// The two primitives match the paper's model exactly:
//
//   - Compute(V, Y) evaluates the maintenance expression Comp(V, Y): the
//     2^r − 1 delta terms (see package maintain) over the *current* database
//     state, accumulating the result into V's pending delta. Because
//     installs change view states between compute expressions, the same
//     Comp costs different amounts at different points of a strategy —
//     this is the heart of the total-work minimization problem.
//
//   - Install(V) folds V's pending delta into its materialized state.
package core

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Options configure warehouse execution behaviour.
type Options struct {
	// SkipEmptyDeltas, when set, elides evaluation (and work accounting) of
	// compute terms whose delta operands are all empty, the footnote-5
	// extension of the paper. Off by default to match the measured system.
	SkipEmptyDeltas bool
	// ParallelTerms widens the term engine's worker pool from 1 to Workers:
	// the 2^r − 1 maintenance terms of one Comp then evaluate concurrently,
	// each join step's probe rows are dispatched in fixed-size morsels, and
	// term output merges into the view's pending state through sharded
	// sinks. The produced bag of change rows — and the reported
	// OperandTuples work — is identical at any width; only wall-clock
	// differs. Off by default: width 1 evaluates terms one after another in
	// term order, the paper's measured system.
	ParallelTerms bool
	// Workers bounds the warehouse-wide worker budget under ParallelTerms
	// (0 = GOMAXPROCS). The pool is shared by every concurrent Compute, so
	// term- and morsel-level parallelism composes with DAG-level strategy
	// scheduling without multiplying goroutines: the submitting goroutine
	// counts as one worker and at most Workers−1 extra goroutines run at
	// any moment.
	Workers int
	// MorselSize overrides the number of probe rows per parallel morsel
	// (0 = DefaultMorselSize). Mainly a test/tuning knob.
	MorselSize int
	// ShareComputation lets the build cache live for the update window
	// instead of one Compute (AttachSharing): an operand several Comp
	// expressions of the window build on is then scanned and hashed once
	// and probed by every later consumer. Sharing changes physical work
	// only — OperandTuples is planned from cardinalities and never sees it.
	// A build stays until its view installs; MemoryBudgetBytes is what
	// bounds the bytes that takes. Off by default.
	ShareComputation bool
	// MemoryBudgetBytes bounds the window's transient build state (0 = off,
	// i.e. unbounded). With a budget attached for a window (AttachMemory),
	// every build-side hash table reserves against it for as long as the
	// build cache holds it, and builds that do not fit spill to CRC-framed
	// temp files probed partition-wise (Grace-style). Results, digests and
	// the linear work metric are identical at any budget; only wall-clock,
	// bytes moved and the spill counters differ. Resident join indexes are
	// storage, like the rows they point at, and are not charged.
	MemoryBudgetBytes int64
}

// View is one materialized warehouse view.
type View struct {
	name string
	def  *algebra.CQ // nil for base views

	table *storage.Table    // base views and SPJ derived views
	agg   *storage.AggTable // aggregate derived views

	// mu guards lazy initialization/finalization of the pending state, so
	// that expressions the scheduler (package exec) runs concurrently may
	// read one view's delta from several compute expressions at once.
	mu              sync.Mutex
	pendingDelta    *delta.Delta         // base + SPJ: accumulated changes
	pendingPartials *delta.GroupPartials // aggregate: accumulated group partials
	finalized       *delta.Delta         // aggregate: cached tuple delta once read

	// deferred marks the view's maintenance policy (see SetDeferred);
	// stale records that a window skipped it.
	deferred bool
	stale    bool
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// Def returns the view definition, or nil for a base view.
func (v *View) Def() *algebra.CQ { return v.def }

// IsBase reports whether the view is defined over remote sources.
func (v *View) IsBase() bool { return v.def == nil }

// IsAggregate reports whether the view is a summary (grouped) view.
func (v *View) IsAggregate() bool { return v.agg != nil }

// Schema returns the view's output schema.
func (v *View) Schema() relation.Schema {
	if v.agg != nil {
		return v.agg.Schema()
	}
	return v.table.Schema()
}

// Cardinality returns |V|: the current number of rows.
func (v *View) Cardinality() int64 {
	if v.agg != nil {
		return v.agg.Cardinality()
	}
	return v.table.Cardinality()
}

// Scan iterates the view's current rows with multiplicities. The tuples of
// a base or SPJ view are the stored ones (see storage.Table): shared with
// every epoch that holds the row, and not to be modified.
func (v *View) Scan(fn func(relation.Tuple, int64) bool) {
	if v.agg != nil {
		v.agg.Scan(fn)
		return
	}
	v.table.Scan(fn)
}

// Digest returns the order-independent fingerprint of the view's current
// rows — the XOR over rows of the CRC of each row's encoding and count — in
// O(1): the stores maintain it as rows change.
func (v *View) Digest() uint64 {
	if v.agg != nil {
		return v.agg.Digest()
	}
	return v.table.Digest()
}

// CheckDigest recomputes the view's digest by a scan of its rows and reports
// a maintained digest that has drifted from it.
func (v *View) CheckDigest() error {
	if v.agg != nil {
		return v.agg.CheckDigest()
	}
	return v.table.CheckDigest()
}

// SortedRows returns the current rows sorted, for deterministic inspection.
func (v *View) SortedRows() []storage.CountedTuple {
	if v.agg != nil {
		return v.agg.SortedRows()
	}
	return v.table.SortedRows()
}

// Table exposes the backing counted table of a base or SPJ view (nil for
// aggregate views). Intended for snapshot/restore machinery; mutating the
// table directly bypasses the strategy framework.
func (v *View) Table() *storage.Table { return v.table }

// IndexStats describes the resident join indexes through which delta-driven
// terms read the view's state, in creation order; nil for an aggregate view,
// whose group store carries none.
func (v *View) IndexStats() []storage.IndexStats {
	if v.table == nil {
		return nil
	}
	return v.table.IndexStats()
}

// AggStore exposes the backing aggregate table of a summary view (nil
// otherwise). Intended for snapshot/restore machinery.
func (v *View) AggStore() *storage.AggTable { return v.agg }

// HasPending reports whether uninstalled changes exist for the view.
func (v *View) HasPending() bool {
	if v.pendingDelta != nil && !v.pendingDelta.IsEmpty() {
		return true
	}
	if v.pendingPartials != nil && !v.pendingPartials.IsEmpty() {
		return true
	}
	return false
}

// Warehouse is the catalog of views plus their materialized state.
type Warehouse struct {
	views map[string]*View
	order []string // definition order; children always precede parents
	opts  Options
	pool  *workerPool // shared budget of the term engine (nil = width 1)
	// cache is the build cache of the update window in progress
	// (AttachSharing/DetachSharing), nil otherwise: every Compute then makes
	// its own. Clones never inherit it: each window attaches its own.
	cache *buildCache
	// mem is the window-wide memory manager (AttachMemory/DetachMemory),
	// nil outside a budgeted window. Like cache, clones never inherit it.
	mem *memManager
	// version counts catalog changes (view definitions). The prepared-plan
	// cache records the version a plan was bound against and discards the
	// plan when it no longer matches, so a plan can never outlive the
	// catalog shape it was resolved in. Clones inherit the version: a
	// window commit that defines no views invalidates nothing.
	version uint64
}

// New creates an empty warehouse.
func New(opts Options) *Warehouse {
	w := &Warehouse{views: make(map[string]*View)}
	w.SetOptions(opts)
	return w
}

// Options returns the warehouse's execution options.
func (w *Warehouse) Options() Options { return w.opts }

// SetOptions replaces the execution options and resizes the term engine's
// worker pool accordingly — the one place ParallelTerms is read. Not safe to
// call while strategies execute.
func (w *Warehouse) SetOptions(o Options) {
	w.opts = o
	w.pool = nil
	if o.ParallelTerms {
		w.pool = newWorkerPool(o.Workers)
	}
}

// DefineBase registers a base view with the given schema.
func (w *Warehouse) DefineBase(name string, schema relation.Schema) error {
	if err := w.checkNewName(name); err != nil {
		return err
	}
	if len(schema) == 0 {
		return fmt.Errorf("core: base view %q has empty schema", name)
	}
	w.views[name] = &View{name: name, table: storage.NewTable(schema)}
	w.order = append(w.order, name)
	w.version++
	return nil
}

// DefineDerived registers a derived view with the given definition. Every
// referenced view must already be defined and its recorded schema must match
// the catalog; consequently the definition order is always a topological
// order of the VDAG.
func (w *Warehouse) DefineDerived(name string, def *algebra.CQ) error {
	if err := w.checkNewName(name); err != nil {
		return err
	}
	if def == nil {
		return fmt.Errorf("core: derived view %q has nil definition", name)
	}
	if err := def.Validate(); err != nil {
		return fmt.Errorf("core: view %q: %w", name, err)
	}
	for _, r := range def.Refs {
		child, ok := w.views[r.View]
		if !ok {
			return fmt.Errorf("core: view %q references undefined view %q", name, r.View)
		}
		if !child.Schema().Equal(r.Schema) {
			return fmt.Errorf("core: view %q ref %q: recorded schema [%s] does not match catalog schema [%s]",
				name, r.Alias, r.Schema, child.Schema())
		}
	}
	v := &View{name: name, def: def}
	if def.IsAggregate() {
		v.agg = storage.NewAggTable(def.GroupSchema(), def.AggSpecs(), def.AggNames())
	} else {
		v.table = storage.NewTable(def.OutputSchema())
	}
	w.views[name] = v
	w.order = append(w.order, name)
	w.version++
	return nil
}

// CatalogVersion returns the monotonic count of catalog changes. Two
// warehouses (e.g. an epoch snapshot and its successor) answer queries
// with interchangeable plans iff their versions are equal and one descends
// from the other by cloning.
func (w *Warehouse) CatalogVersion() uint64 { return w.version }

func (w *Warehouse) checkNewName(name string) error {
	if name == "" {
		return fmt.Errorf("core: empty view name")
	}
	if _, ok := w.views[name]; ok {
		return fmt.Errorf("core: view %q already defined", name)
	}
	return nil
}

// View returns the named view, or nil.
func (w *Warehouse) View(name string) *View { return w.views[name] }

// MustView returns the named view and panics if absent.
func (w *Warehouse) MustView(name string) *View {
	v := w.views[name]
	if v == nil {
		panic(fmt.Sprintf("core: unknown view %q", name))
	}
	return v
}

// ViewNames returns all view names in definition order.
func (w *Warehouse) ViewNames() []string { return append([]string(nil), w.order...) }

// Children returns the distinct views the named view is defined over
// (empty for base views).
func (w *Warehouse) Children(name string) []string {
	v := w.MustView(name)
	if v.def == nil {
		return nil
	}
	return v.def.BaseViews()
}

// Parents returns the views defined (directly) over the named view.
func (w *Warehouse) Parents(name string) []string {
	var out []string
	for _, n := range w.order {
		v := w.views[n]
		if v.def == nil {
			continue
		}
		for _, child := range v.def.BaseViews() {
			if child == name {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// LoadBase bulk-inserts rows into a base view (initial population).
func (w *Warehouse) LoadBase(name string, rows []relation.Tuple) error {
	v := w.views[name]
	if v == nil {
		return fmt.Errorf("core: unknown view %q", name)
	}
	if !v.IsBase() {
		return fmt.Errorf("core: LoadBase on derived view %q", name)
	}
	v.table.Grow(len(rows))
	for _, r := range rows {
		if len(r) != len(v.table.Schema()) {
			return fmt.Errorf("core: row arity %d does not match %q schema width %d", len(r), name, len(v.table.Schema()))
		}
		v.table.Insert(r, 1)
	}
	return nil
}

// StageDelta records an arriving change batch for a base view; batches
// staged before the update window merge together.
func (w *Warehouse) StageDelta(name string, d *delta.Delta) error {
	v := w.views[name]
	if v == nil {
		return fmt.Errorf("core: unknown view %q", name)
	}
	if !v.IsBase() {
		return fmt.Errorf("core: StageDelta on derived view %q; derived deltas come from Compute", name)
	}
	if !d.Schema().Equal(v.table.Schema()) {
		return fmt.Errorf("core: staged delta schema does not match %q", name)
	}
	if v.pendingDelta == nil {
		v.pendingDelta = delta.New(v.table.Schema())
	}
	v.pendingDelta.Merge(d)
	return nil
}

// DeltaOf returns the view's pending change set as plus/minus tuples. For an
// aggregate view this finalizes the accumulated group partials against the
// pre-install state; after finalization, further Compute calls on the view
// are rejected (a correct strategy never needs them: conditions C5/C8 put
// every Comp of V before any reader of δV).
func (w *Warehouse) DeltaOf(name string) (*delta.Delta, error) {
	v := w.views[name]
	if v == nil {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	pending := v.pendingLocked()
	if v.agg != nil {
		if v.finalized == nil {
			d, err := v.agg.FinalizeDelta(pending.p)
			if err != nil {
				return nil, fmt.Errorf("core: finalizing δ%s: %w", name, err)
			}
			v.finalized = d
		}
		return v.finalized, nil
	}
	return pending.d, nil
}

// pendingLocked returns the view's pending change state, creating it empty
// on first use: group partials for an aggregate view, a delta otherwise.
// Callers hold v.mu.
func (v *View) pendingLocked() acc {
	if v.agg != nil {
		if v.pendingPartials == nil {
			v.pendingPartials = delta.NewGroupPartials(v.agg.GroupSchema(), v.agg.Specs())
		}
		return acc{p: v.pendingPartials}
	}
	if v.pendingDelta == nil {
		v.pendingDelta = delta.New(v.Schema())
	}
	return acc{d: v.pendingDelta}
}

// DeltaSize returns |δV| for the view (0 if nothing is pending).
func (w *Warehouse) DeltaSize(name string) (int64, error) {
	d, err := w.DeltaOf(name)
	if err != nil {
		return 0, err
	}
	return d.Size(), nil
}

// Install folds the view's pending delta into its materialized state and
// clears the pending state. It returns the number of rows installed (|δV|).
func (w *Warehouse) Install(name string) (int64, error) {
	v := w.views[name]
	if v == nil {
		return 0, fmt.Errorf("core: unknown view %q", name)
	}
	d, err := w.DeltaOf(name)
	if err != nil {
		return 0, err
	}
	n := d.Size()
	// The window's cache may hold builds of V's state and of δV; both are
	// about to change.
	if w.cache != nil {
		w.cache.invalidate(name)
	}
	if v.agg != nil {
		if err := v.agg.Apply(v.pendingPartials); err != nil {
			return 0, fmt.Errorf("core: installing δ%s: %w", name, err)
		}
		v.pendingPartials = nil
		v.finalized = nil
		return n, nil
	}
	if err := v.table.ApplyDelta(d); err != nil {
		return 0, fmt.Errorf("core: installing δ%s: %w", name, err)
	}
	v.pendingDelta = nil
	return n, nil
}

// ShareTuner is inert — the share tuner is gone, and nothing reads what this
// returns; it stays because the frozen benchmark (bench/layers.go) calls it.
func (w *Warehouse) ShareTuner() any { return nil }

// Clone returns a deep copy of the warehouse: independent stores and pending
// state, shared (immutable) definitions. Executing a strategy on a clone
// leaves the original untouched, which is how the experiments compare many
// strategies from the same start state.
func (w *Warehouse) Clone() *Warehouse {
	out := New(w.opts)
	out.order = append([]string(nil), w.order...)
	out.version = w.version
	for name, v := range w.views {
		nv := &View{name: v.name, def: v.def, deferred: v.deferred, stale: v.stale}
		if v.table != nil {
			nv.table = v.table.Clone()
		}
		if v.agg != nil {
			nv.agg = v.agg.Clone()
		}
		if v.pendingDelta != nil {
			nv.pendingDelta = v.pendingDelta.Clone()
		}
		if v.pendingPartials != nil {
			// Partials are cloned by merging into an empty set.
			np := delta.NewGroupPartials(v.pendingPartials.GroupSchema(), v.pendingPartials.Specs())
			np.Merge(v.pendingPartials)
			nv.pendingPartials = np
		}
		if v.finalized != nil {
			nv.finalized = v.finalized.Clone()
		}
		out.views[name] = nv
	}
	return out
}
