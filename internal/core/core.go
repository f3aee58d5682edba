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
	"repro/internal/vdag"
)

// Options configure warehouse execution behaviour.
type Options struct {
	// SkipEmptyDeltas, when set, elides evaluation (and work accounting) of
	// compute terms whose delta operands are all empty, the footnote-5
	// extension of the paper. Off by default to match the measured system.
	SkipEmptyDeltas bool
}

// View is one materialized warehouse view.
type View struct {
	name string
	def  *algebra.CQ // nil for base views
	// orders is the definition's compiled join orders, shared by every
	// clone (nil for base views).
	orders *viewOrders

	table *storage.Table    // base views and SPJ derived views
	agg   *storage.AggTable // aggregate derived views

	// mu guards lazy initialization/finalization of the pending state, so
	// that expressions the scheduler (package exec) runs concurrently may
	// read one view's delta from several compute expressions at once.
	mu              sync.Mutex
	pendingDelta    *delta.Delta         // base + SPJ: accumulated changes
	pendingPartials *delta.GroupPartials // aggregate: accumulated group partials
	finalized       *delta.Delta         // aggregate: cached tuple delta once read
	// sharedDelta marks a base view's pendingDelta as also another
	// warehouse's — Clone shares a staged batch instead of copying it — and
	// so read-only: StageDelta merges into a copy of its own first.
	sharedDelta bool
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
	// list holds the views in definition order — children always precede
	// parents — so list[id] is the view the graph numbers id.
	list []*View
	opts Options
	// version counts catalog changes (view definitions). The prepared-plan
	// cache records the version a plan was bound against and discards the
	// plan when it no longer matches, so a plan can never outlive the
	// catalog shape it was resolved in. Clones inherit the version: a
	// window commit that defines no views invalidates nothing.
	version uint64
	// graph is the catalog's VDAG: built where version is bumped, immutable,
	// and shared by every clone of this catalog version.
	graph *vdag.Graph
}

// New creates an empty warehouse.
func New(opts Options) *Warehouse {
	return &Warehouse{views: make(map[string]*View), opts: opts, graph: vdag.NewBuilder().Build()}
}

// Options returns the warehouse's execution options.
func (w *Warehouse) Options() Options { return w.opts }

// SetOptions replaces the execution options. Not safe to call while
// strategies execute.
func (w *Warehouse) SetOptions(o Options) { w.opts = o }

// DefineBase registers a base view with the given schema.
func (w *Warehouse) DefineBase(name string, schema relation.Schema) error {
	if err := w.checkNewName(name); err != nil {
		return err
	}
	if len(schema) == 0 {
		return fmt.Errorf("core: base view %q has empty schema", name)
	}
	for i, c := range schema {
		if schema[:i].ColumnIndex(c.Name) >= 0 {
			return fmt.Errorf("core: base view %q: duplicate output column %q", name, c.Name)
		}
	}
	w.define(&View{name: name, table: storage.NewTable(schema)})
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
	v := &View{name: name, def: def, orders: newViewOrders(def)}
	if def.IsAggregate() {
		v.agg = storage.NewAggTable(def.GroupSchema(), def.AggSpecs(), def.AggNames())
	} else {
		v.table = storage.NewTable(def.OutputSchema())
	}
	w.define(v)
	return nil
}

// define adds a checked view to the catalog: a new catalog version, whose
// VDAG is built here, once.
func (w *Warehouse) define(v *View) {
	w.views[v.name] = v
	w.list = append(w.list, v)
	w.version++
	b := vdag.NewBuilder()
	for _, u := range w.list {
		var over []string
		if u.def != nil {
			over = u.def.BaseViews()
		}
		if err := b.Add(u.name, over); err != nil {
			panic(fmt.Sprintf("core: catalog is not a VDAG: %v", err)) // the Define checks rule this out
		}
	}
	w.graph = b.Build()
}

// Graph returns the catalog's VDAG — the one graph of this catalog version,
// shared with every clone; ids are definition order. O(1).
func (w *Warehouse) Graph() *vdag.Graph { return w.graph }

// ViewAt returns the view the catalog's graph numbers id.
func (w *Warehouse) ViewAt(id int32) *View { return w.list[id] }

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
func (w *Warehouse) ViewNames() []string { return w.graph.Views() }

// Children returns the distinct views the named view is defined over, from
// the catalog's graph (empty for base views and names the catalog lacks).
func (w *Warehouse) Children(name string) []string { return w.graph.Children(name) }

// Parents returns the views defined (directly) over the named view, in
// definition order.
func (w *Warehouse) Parents(name string) []string { return w.graph.Parents(name) }

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
	switch {
	case v.pendingDelta == nil:
		v.pendingDelta = delta.New(v.table.Schema())
	case v.sharedDelta:
		v.pendingDelta, v.sharedDelta = v.pendingDelta.Clone(), false
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
	v.pendingDelta, v.sharedDelta = nil, false
	return n, nil
}

// ShareTuner is inert — the share tuner is gone, and nothing reads what this
// returns; it stays because the frozen benchmark (bench/layers.go) calls it.
// ROADMAP item 25 deletes it.
func (w *Warehouse) ShareTuner() any { return nil }

// Clone returns a deep copy of the warehouse: independent stores and pending
// state, shared (immutable) definitions, compiled join orders and VDAG.
// Executing a strategy on a clone leaves the original untouched, which is how
// the experiments compare many strategies from the same start state. A base
// view's staged batch is not copied: both warehouses hold it read-only until
// one of them stages more (StageDelta) or installs it, so Clone writes the
// source as the stores' own clones do.
func (w *Warehouse) Clone() *Warehouse {
	out := &Warehouse{views: make(map[string]*View, len(w.list)), opts: w.opts, version: w.version, graph: w.graph}
	out.list = make([]*View, 0, len(w.list))
	for _, v := range w.list {
		nv := &View{name: v.name, def: v.def, orders: v.orders}
		if v.table != nil {
			nv.table = v.table.Clone()
		}
		if v.agg != nil {
			nv.agg = v.agg.Clone()
		}
		switch {
		case v.pendingDelta == nil:
		case v.def == nil:
			nv.pendingDelta, nv.sharedDelta, v.sharedDelta = v.pendingDelta, true, true
		default:
			nv.pendingDelta = v.pendingDelta.Clone() // Compute writes a derived view's
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
		out.views[v.name] = nv
		out.list = append(out.list, nv)
	}
	return out
}
