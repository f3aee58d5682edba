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
	"cmp"
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

	// table holds the view's rows, whatever its kind: a summary view's is a
	// summary table, one row per group, each carrying its group's state.
	table *storage.Table

	// mu guards lazy initialization/finalization of the pending state, so
	// that expressions the scheduler (package exec) runs concurrently may
	// read one view's delta from several compute expressions at once.
	mu              sync.Mutex
	pendingDelta    *delta.Delta         // base + SPJ: accumulated changes
	pendingPartials *delta.GroupPartials // aggregate: accumulated group partials
	// finalized and next are an aggregate's δV once read (DeltaOf): the rows
	// its install changes, and the clone of its table that install built
	// them on, which Install then adopts.
	finalized *delta.Delta
	next      *storage.Table
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// Def returns the view definition, or nil for a base view.
func (v *View) Def() *algebra.CQ { return v.def }

// IsBase reports whether the view is defined over remote sources.
func (v *View) IsBase() bool { return v.def == nil }

// IsAggregate reports whether the view is a summary (grouped) view.
func (v *View) IsAggregate() bool { return v.def != nil && v.def.IsAggregate() }

// Schema returns the view's output schema.
func (v *View) Schema() relation.Schema { return v.table.Schema() }

// Cardinality returns |V|: the current number of rows.
func (v *View) Cardinality() int64 { return v.table.Cardinality() }

// Scan iterates the view's current rows with multiplicities. The tuples are
// the stored ones (see storage.Table): shared with every epoch that holds
// the row, and not to be modified.
func (v *View) Scan(fn func(relation.Tuple, int64) bool) { v.table.Scan(fn) }

// Digest returns the order-independent fingerprint of the view's current
// rows — the XOR over rows of the CRC of each row's encoding and count — in
// O(1): the table maintains it as rows change.
func (v *View) Digest() uint64 { return v.table.Digest() }

// CheckDigest recomputes the view's digest by a scan of its rows and reports
// a maintained digest that has drifted from it.
func (v *View) CheckDigest() error { return v.table.CheckDigest() }

// SortedRows returns the current rows sorted, for deterministic inspection.
func (v *View) SortedRows() []storage.CountedTuple { return v.table.SortedRows() }

// Table exposes the counted table that holds the view's rows — a summary
// view's too, one row per group, each carrying its group's state. Intended
// for snapshot/restore machinery; mutating the table directly bypasses the
// strategy framework.
func (v *View) Table() *storage.Table { return v.table }

// IndexStats describes the resident join indexes through which delta-driven
// terms read the view's state, in creation order — a summary view's as well
// as any other's: its table's.
func (v *View) IndexStats() []storage.IndexStats { return v.table.IndexStats() }

// NewTable returns an empty table of the view's kind and schema — a
// summary table for a summary view — to build a replacement for its rows in.
func (v *View) NewTable() *storage.Table { return newTable(v.def, v.Schema()) }

// Replace makes t the view's rows: a table built fresh replaces the old one
// whole, which stays as it was for whoever still holds it. snapshot.Read
// builds each view's state beside the live one and swaps it in once the
// whole snapshot has verified; a refresh swaps in its recomputation. The
// table must be of the view's kind (NewTable) and schema, and the view have
// no pending changes.
func (v *View) Replace(t *storage.Table) {
	if t == nil || t.IsSummary() != v.IsAggregate() {
		panic(fmt.Sprintf("core: Replace of view %q with a table of the other kind", v.name))
	}
	v.table = t
}

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
	w.define(&View{name: name, def: def, orders: newViewOrders(def), table: newTable(def, def.OutputSchema())})
	return nil
}

// newTable returns an empty table of a view defined by def (nil for a base
// view) with the given output schema: a summary table for a summary view.
func newTable(def *algebra.CQ, schema relation.Schema) *storage.Table {
	if def == nil || !def.IsAggregate() {
		return storage.NewTable(schema)
	}
	return storage.NewSummaryTable(schema, len(def.GroupBy), def.AggSpecs())
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

// ViewSchema returns the named view's output schema: the resolver view
// definitions and queries are bound against (sqlparse.Resolver).
func (w *Warehouse) ViewSchema(name string) (relation.Schema, error) {
	v := w.views[name]
	if v == nil {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	return v.Schema(), nil
}

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

// LoadBase bulk-inserts rows into a base view (initial population): each
// row is encoded once and the view's table built from the encodings
// (storage.Builder). A row of the wrong width refuses the whole load, which
// then adds nothing.
func (w *Warehouse) LoadBase(name string, rows []relation.Tuple) error {
	v := w.views[name]
	if v == nil {
		return fmt.Errorf("core: unknown view %q", name)
	}
	if !v.IsBase() {
		return fmt.Errorf("core: LoadBase on derived view %q", name)
	}
	b := v.table.Build(len(rows))
	var enc []byte
	for _, r := range rows {
		enc = r.AppendEncoded(enc[:0])
		if err := b.Add(enc, 1); err != nil {
			return fmt.Errorf("core: loading %q: %w", name, err)
		}
	}
	b.Done()
	return nil
}

// StageDelta records an arriving change batch for a base view; batches
// staged before the update window merge together. It seals d, which the
// view then shares: a sealed run is never written in place.
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
	if err := d.Seal(); err != nil {
		return fmt.Errorf("core: staging %q: %w", name, err)
	}
	if v.pendingDelta == nil {
		v.pendingDelta = d.Clone()
	} else {
		v.pendingDelta.Merge(d)
	}
	return nil
}

// DeltaOf returns the view's pending change set as plus/minus tuples. For an
// aggregate view this finalizes the accumulated group partials: it installs
// them into a clone of the view's table, which yields δV as the old and new
// rows of the groups they change (storage.Table.Apply), and keeps the clone
// for Install to adopt. After finalization, further Compute calls on
// the view are rejected (a correct strategy never needs them: conditions
// C5/C8 put every Comp of V before any reader of δV).
func (w *Warehouse) DeltaOf(name string) (*delta.Delta, error) {
	v := w.views[name]
	if v == nil {
		return nil, fmt.Errorf("core: unknown view %q", name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	pending := v.pendingLocked()
	if pending.p == nil {
		return pending.d, nil
	}
	if v.finalized == nil {
		next, d := v.table.Clone(), delta.New(v.Schema())
		_, _, err := next.Apply(pending.p, d)
		if err = cmp.Or(err, d.Seal()); err != nil {
			return nil, fmt.Errorf("core: finalizing δ%s: %w", name, err)
		}
		v.finalized, v.next = d, next
	}
	return v.finalized, nil
}

// pendingLocked returns the view's pending change state, creating it empty
// on first use: group partials for an aggregate view, a delta otherwise.
// Callers hold v.mu.
func (v *View) pendingLocked() acc {
	if v.IsAggregate() {
		if v.pendingPartials == nil {
			v.pendingPartials = delta.NewGroupPartials(v.def.GroupSchema(), v.def.AggSpecs())
		}
		return acc{p: v.pendingPartials}
	}
	if v.pendingDelta == nil {
		v.pendingDelta = delta.New(v.Schema())
	}
	return acc{d: v.pendingDelta}
}

// Install folds the view's pending change into its materialized state and
// clears the pending state. It returns what it installed: the number of
// rows, |δV|, and the digest of δV (delta.Delta.Digest). An aggregate view
// whose δV was read adopts the table DeltaOf built it on; otherwise it folds
// its group partials into its groups and their rows in one pass and builds
// no tuple delta for them (see storage.Table.Apply).
func (w *Warehouse) Install(name string) (rows int64, digest uint64, err error) {
	v := w.views[name]
	if v == nil {
		return 0, 0, fmt.Errorf("core: unknown view %q", name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	switch {
	case v.next != nil:
		v.table, rows, digest = v.next, v.finalized.Size(), v.finalized.Digest()
	case v.pendingPartials != nil:
		rows, digest, err = v.table.Apply(v.pendingPartials, nil)
	case v.pendingDelta != nil:
		rows = v.pendingDelta.Size()
		digest, err = v.table.ApplyDelta(v.pendingDelta)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("core: installing δ%s: %w", name, err)
	}
	v.pendingPartials, v.finalized, v.next, v.pendingDelta = nil, nil, nil, nil
	return rows, digest, nil
}

// ShareTuner is inert — the share tuner is gone, and nothing reads what this
// returns; it stays because the frozen benchmark (bench/layers.go) calls it.
// ROADMAP item 25 deletes it.
func (w *Warehouse) ShareTuner() any { return nil }

// Clone returns a deep copy of the warehouse: independent stores and pending
// state, shared (immutable) definitions, compiled join orders and VDAG.
// Executing a strategy on a clone leaves the original untouched, which is how
// the experiments compare many strategies from the same start state. A
// pending delta's sealed run is shared, not copied (see delta.Delta.Clone).
func (w *Warehouse) Clone() *Warehouse {
	out := &Warehouse{views: make(map[string]*View, len(w.list)), opts: w.opts, version: w.version, graph: w.graph}
	out.list = make([]*View, 0, len(w.list))
	for _, v := range w.list {
		nv := &View{name: v.name, def: v.def, orders: v.orders, table: v.table.Clone()}
		if v.pendingDelta != nil {
			nv.pendingDelta = v.pendingDelta.Clone()
		}
		if v.pendingPartials != nil {
			// Partials are cloned by merging into an empty set.
			np := delta.NewGroupPartials(v.pendingPartials.GroupSchema(), v.pendingPartials.Specs())
			np.Merge(v.pendingPartials)
			nv.pendingPartials = np
		}
		if v.next != nil {
			nv.finalized, nv.next = v.finalized.Clone(), v.next.Clone()
		}
		out.views[v.name] = nv
		out.list = append(out.list, nv)
	}
	return out
}
