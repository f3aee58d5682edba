// Package warehouse is the public API of the warehouse-update library, a
// reproduction of Labio, Yerneni & Garcia-Molina, "Shrinking the Warehouse
// Update Window" (SIGMOD 1999).
//
// A Warehouse holds materialized views: base views loaded from (simulated)
// sources and derived views defined over them with SQL. When source changes
// arrive they are staged as deltas; an update strategy — a sequence of
// Comp (change propagation) and Inst (change installation) expressions —
// then brings every view up to date. The library implements the paper's
// strategy framework and its three planners:
//
//   - PlanMinWorkSingle: the optimal strategy for a single view (O(n log n)).
//   - Plan(MinWorkPlanner): expression-graph planning for the whole VDAG,
//     optimal for tree- and uniform-shaped warehouses.
//   - Plan(PrunePlanner): exhaustive-but-pruned search returning the
//     cheapest 1-way VDAG strategy, and Plan(DualStagePlanner) is the
//     conventional propagate-then-install strategy the paper compares
//     against.
//
// Basic use:
//
//	w := warehouse.New()
//	w.MustDefineBase("SALES", warehouse.Schema{...})
//	w.MustDefineViewSQL("BYREGION", `SELECT region, SUM(amount) AS total
//	                                 FROM SALES GROUP BY region`)
//	w.Load("SALES", rows)
//	w.Refresh()
//	// … changes arrive …
//	w.StageDelta("SALES", d)
//	win, _ := w.RunWindowOpts(warehouse.WindowOptions{}) // plan with MinWork, run, commit
//	// win.Plan.Strategy is what ran, win.Report its measured work
//
// After set-up the views change only through such a window, which runs on a
// clone of the serving state and commits by an atomic epoch flip.
package warehouse

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/csvio"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/plancache"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// Re-exported data types. The aliases make the full vocabulary of the
// library available through this single package.
type (
	// Value is a typed scalar (integer, float, string, date, bool, NULL).
	Value = relation.Value
	// Tuple is a row of values.
	Tuple = relation.Tuple
	// Column is a named, typed schema column.
	Column = relation.Column
	// Schema is an ordered list of columns.
	Schema = relation.Schema
	// Kind is a scalar type tag.
	Kind = relation.Kind
	// Delta is a set of inserted (plus) and deleted (minus) tuples, read
	// once sealed: StageDelta seals it (see delta.Delta).
	Delta = delta.Delta

	// Expr is a strategy expression: Comp or Inst.
	Expr = strategy.Expr
	// Comp is Comp(View, Over): propagate the changes of Over into View.
	Comp = strategy.Comp
	// Inst is Inst(View): install View's pending changes.
	Inst = strategy.Inst
	// Strategy is a sequence of Comp and Inst expressions.
	Strategy = strategy.Strategy

	// Graph is the warehouse's view DAG.
	Graph = vdag.Graph
	// Stats carries per-view sizes and delta compositions for planning.
	Stats = cost.Stats
	// ViewStat is one view's statistics.
	ViewStat = cost.ViewStat
	// CostModel carries the linear work metric's proportionality constants.
	CostModel = cost.Model

	// Report is the measured outcome of executing a strategy.
	Report = exec.Report
	// StepReport is the measured outcome of one expression.
	StepReport = exec.StepReport

	// ParallelPlan is a staged strategy (Section 9): expression sets that
	// execute concurrently.
	ParallelPlan = exec.Plan
	// ParallelReport is the scheduling side of a Report: total, span and
	// critical-path work measured on one run, whatever its mode.
	ParallelReport = exec.Schedule
	// Mode selects how a strategy's expressions are scheduled: one at a
	// time (ModeSequential), as barrier-separated stages (ModeStaged), or
	// barrier-free over the precedence DAG with a bounded worker pool
	// (ModeDAG).
	Mode = exec.Mode

	// ViewDef is a bound view definition (DefineViewSQL binds one from SQL).
	ViewDef = algebra.CQ
)

// Scalar type tags.
const (
	KindInt    = relation.KindInt
	KindFloat  = relation.KindFloat
	KindString = relation.KindString
	KindDate   = relation.KindDate
	KindBool   = relation.KindBool
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = relation.NewInt
	// Float builds a float value.
	Float = relation.NewFloat
	// String builds a string value.
	String = relation.NewString
	// Date parses a YYYY-MM-DD date, panicking on malformed input.
	Date = relation.MustDate
	// Null is the SQL NULL value.
	Null = relation.Null
)

// Execution modes for WindowOptions.Mode.
const (
	ModeSequential = exec.ModeSequential
	ModeStaged     = exec.ModeStaged
	ModeDAG        = exec.ModeDAG
)

// ParseMode maps a user-facing mode name ("sequential"/"seq", "staged",
// "dag") to a Mode.
var ParseMode = exec.ParseMode

// DefaultCostModel weights compute-scanned and installed tuples equally. It is
// the model the facade's planners and estimates price with.
var DefaultCostModel = cost.DefaultModel

// Options configure a Warehouse.
type Options struct {
	// SkipEmptyDeltas elides compute expressions whose delta operands are
	// all empty (the paper's footnote-5 extension).
	SkipEmptyDeltas bool
	// ParallelTerms and Workers are inert — the term engine runs the terms
	// of a Comp one after another, and a window's parallelism is the
	// scheduler's (WindowOptions.Mode and Workers); nothing reads them. They
	// stay because the frozen benchmark (bench/main.go) sets them. ROADMAP
	// item 25 deletes them.
	ParallelTerms bool
	Workers       int
	// ShareComputation is inert — a build lives and dies inside the Comp
	// that made it since the window-wide build cache is gone, and nothing
	// reads it; it stays because the frozen benchmark (bench/main.go) sets
	// it. ROADMAP item 25 deletes it.
	ShareComputation bool
	// MemoryBudgetBytes is inert — the window memory budget is gone, and
	// nothing reads it; it stays because the frozen benchmark
	// (bench/main.go) sets it. ROADMAP item 25 deletes it.
	MemoryBudgetBytes int64
}

// Warehouse is a catalog of materialized views plus their state.
//
// # Thread safety
//
// A Warehouse serves consistent reads while update windows run. After set-up
// the views change only through a window — RunWindowOpts, Recover,
// ApplyWindow, Restore — or LoadSnapshot, each of which builds the next state
// on a clone and commits it by an atomic epoch flip. Each exported method
// belongs to exactly one of the classes below, and the concurrency tests
// enforce the contract:
//
//   - Set-up: DefineBase, MustDefineBase, DefineViewSQL, MustDefineViewSQL,
//     DefineViewSQLStatement, DefineView, Load, LoadCSV and Refresh mutate
//     the serving epoch in place and require exclusive access: complete the
//     loading phase before serving queries or running windows concurrently.
//   - Reads of the pinned epoch: Query, QueryEpoch, QuerySchema, PinEpoch,
//     Rows, Size, ViewSchema, Views, Graph, Validate, Parallelize, Verify,
//     StateDigest, DumpCSV and NewDelta are safe from any number of
//     goroutines at any time, including while a window executes or commits.
//     Each reads one pinned epoch — an immutable published version of the
//     state — so it observes exactly the pre-window or post-window warehouse,
//     never a mix (see PinEpoch for multi-view consistency).
//   - Serialized on the facade mutex: StageDelta, StageDeltaCSV,
//     RunWindowOpts, Recover, Restore (across every window it replays),
//     ApplyWindow, LoadSnapshot, SaveSnapshot, SaveSnapshotFile, Clone,
//     Pending and the planning reads — Plan, PlanMinWorkSingle,
//     PlanningStats, EstimateWork and Explain — are safe to call
//     concurrently with each other and with readers. One issued while a
//     window runs blocks until the window commits or aborts; a batch staged
//     then lands in the next window.
//   - Safe at any time, never waiting for a window: Epoch, LiveEpochs, Tally,
//     PlanCacheStats and Script, which read counters or no state at all.
//   - In-module: Internal hands the serving epoch's core warehouse to
//     set-up and measurement code that holds exclusive access.
type Warehouse struct {
	// mu serializes every state transition — staging, update windows
	// (including the commit swap), recovery and snapshot loads — and the
	// planning reads and snapshot saves, which read the staged changes.
	// Readers do not take it — they pin the current epoch instead.
	mu     sync.Mutex
	core   *core.Warehouse
	epochs *core.Epochs
	// tallyMu guards tally, which every window folds into as it commits or
	// fails: all the facade keeps of its windows.
	tallyMu sync.Mutex
	tally   WindowTally
	// plans is the prepared-plan cache consulted by every query path
	// (Query, QueryEpoch, PinnedEpoch.Query, QuerySchema — and through
	// them the query server and follower reads).
	plans *plancache.Cache[*sqlparse.Query]
}

// New creates an empty warehouse.
func New(opts ...Options) *Warehouse {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return FromCore(core.New(core.Options{SkipEmptyDeltas: o.SkipEmptyDeltas}))
}

// FromCore serves an assembled core warehouse through the facade, so that
// in-module builders of fixed catalogs (internal/tpcd) run their windows the
// way every other caller does. The facade owns c from here on: a committed
// window replaces it with the window's clone.
func FromCore(c *core.Warehouse) *Warehouse {
	return &Warehouse{
		core:   c,
		epochs: core.NewEpochs(c),
		plans:  plancache.New[*sqlparse.Query](DefaultPlanCacheSize),
	}
}

// DefaultPlanCacheSize is the prepared-plan cache's capacity.
const DefaultPlanCacheSize = 256

// PlanCacheStats snapshots the prepared-plan cache counters.
func (w *Warehouse) PlanCacheStats() PlanCacheStats { return w.plans.Stats() }

// PlanCacheStats is the prepared-plan cache's counter snapshot.
type PlanCacheStats = plancache.Stats

// adopt publishes next as the new serving epoch: the head pointer moves and
// the epoch registry flips atomically, so readers pinned to the predecessor
// keep their frozen state while new pins see the successor. Callers hold
// w.mu.
func (w *Warehouse) adopt(next *core.Warehouse) {
	w.core = next
	w.epochs.Flip(next)
}

// Epoch returns the current serving epoch number. It starts at 1 and
// increments on every committed update window (and LoadSnapshot); an
// aborted or crashed window leaves it unchanged.
func (w *Warehouse) Epoch() uint64 { return w.epochs.Current() }

// LiveEpochs returns how many epoch versions are currently alive: the
// serving epoch plus retired epochs still pinned by readers. Quiescent
// warehouses report 1; a growing number under load means long-running
// readers are holding history alive.
func (w *Warehouse) LiveEpochs() int { return w.epochs.Live() }

// DefineBase registers a base view (data loaded from sources).
func (w *Warehouse) DefineBase(name string, schema Schema) error {
	return w.core.DefineBase(name, schema)
}

// MustDefineBase is DefineBase panicking on error, for static schemas.
func (w *Warehouse) MustDefineBase(name string, schema Schema) {
	if err := w.DefineBase(name, schema); err != nil {
		panic(err)
	}
}

// DefineViewSQL registers a derived view from a SQL SELECT statement over
// previously defined views.
func (w *Warehouse) DefineViewSQL(name, sql string) error {
	cq, err := sqlparse.Parse(sql, w.ViewSchema)
	if err != nil {
		return err
	}
	return w.core.DefineDerived(name, cq)
}

// MustDefineViewSQL is DefineViewSQL panicking on error.
func (w *Warehouse) MustDefineViewSQL(name, sql string) {
	if err := w.DefineViewSQL(name, sql); err != nil {
		panic(err)
	}
}

// DefineViewSQLStatement registers a view from a full
// "CREATE VIEW name AS SELECT …" statement.
func (w *Warehouse) DefineViewSQLStatement(sql string) (string, error) {
	name, cq, err := sqlparse.ParseCreateView(sql, w.ViewSchema)
	if err != nil {
		return "", err
	}
	return name, w.core.DefineDerived(name, cq)
}

// DefineView registers a derived view from a bound definition
// (DefineViewSQL binds one from SQL and registers it).
func (w *Warehouse) DefineView(name string, def *ViewDef) error {
	return w.core.DefineDerived(name, def)
}

// Load bulk-inserts rows into a base view, each row encoded once into the
// view's table (a bulk build). A row of the wrong width refuses the whole
// load, which then adds nothing.
func (w *Warehouse) Load(name string, rows []Tuple) error {
	return w.core.LoadBase(name, rows)
}

// Refresh materializes every derived view from the current base data. Call
// once after the initial Load; afterwards, update strategies keep views
// current incrementally.
func (w *Warehouse) Refresh() error { return w.core.RefreshAll() }

// LoadCSV bulk-inserts rows from CSV (header required; columns may appear
// in any order; empty fields are NULL; dates are YYYY-MM-DD).
func (w *Warehouse) LoadCSV(name string, r io.Reader) (int, error) {
	schema, err := w.ViewSchema(name)
	if err != nil {
		return 0, err
	}
	rows, err := csvio.ReadRows(r, schema)
	if err != nil {
		return 0, err
	}
	return len(rows), w.core.LoadBase(name, rows)
}

// StageDeltaCSV stages a change batch from CSV. A trailing signed __count
// column gives each row's multiplicity (+insert, −delete); without it every
// row is one insertion.
func (w *Warehouse) StageDeltaCSV(name string, r io.Reader) (*Delta, error) {
	schema, err := w.ViewSchema(name)
	if err != nil {
		return nil, err
	}
	d, err := csvio.ReadDelta(r, schema)
	if err != nil {
		return nil, err
	}
	return d, w.StageDelta(name, d)
}

// DumpCSV writes a view's rows (duplicates expanded) as CSV, as of the
// current serving epoch.
func (w *Warehouse) DumpCSV(name string, out io.Writer) error {
	pin := w.epochs.Pin()
	defer pin.Unpin()
	v := pin.Warehouse().View(name)
	if v == nil {
		return fmt.Errorf("warehouse: unknown view %q", name)
	}
	return csvio.WriteRows(out, v.Schema(), v)
}

// NewDelta creates an empty change batch for the named view's schema. Safe
// to call while a window commits — continuous producers build deltas
// concurrently with the window loop.
func (w *Warehouse) NewDelta(name string) (*Delta, error) {
	schema, err := w.ViewSchema(name)
	if err != nil {
		return nil, err
	}
	return delta.New(schema), nil
}

// StageDelta records an arriving change batch for a base view, and seals d.
// Safe to call concurrently with readers and windows: a batch staged while a
// window runs blocks until the window finishes and applies to the next one.
func (w *Warehouse) StageDelta(name string, d *Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.core.StageDelta(name, d)
}

// Views returns all view names in definition order.
func (w *Warehouse) Views() []string {
	pin := w.epochs.Pin()
	defer pin.Unpin()
	return pin.Warehouse().ViewNames()
}

// ViewSchema returns a view's output schema. It reads the serving epoch, as
// queries do, so it does not wait for a running window: no window changes
// the catalog.
func (w *Warehouse) ViewSchema(name string) (Schema, error) {
	pin := w.epochs.Pin()
	defer pin.Unpin()
	return pin.Warehouse().ViewSchema(name)
}

// Size returns |V|: the view's row count in the current serving epoch.
func (w *Warehouse) Size(name string) (int64, error) {
	p := w.PinEpoch()
	defer p.Close()
	return p.Size(name)
}

// Rows returns a view's rows (with multiplicities) in sorted order, as of
// the current serving epoch.
func (w *Warehouse) Rows(name string) ([]CountedRow, error) {
	p := w.PinEpoch()
	defer p.Close()
	return p.Rows(name)
}

// CountedRow pairs a tuple with its multiplicity.
type CountedRow = storage.CountedTuple

// Graph returns the warehouse's view DAG: the catalog's, one per catalog
// version and shared by every epoch of it, in O(1). The error is always nil.
func (w *Warehouse) Graph() (*Graph, error) {
	pin := w.epochs.Pin()
	defer pin.Unpin()
	return pin.Warehouse().Graph(), nil
}

// PlanningStats gathers the statistics the planners need: exact base-view
// deltas, estimated derived deltas (Section 5.5).
func (w *Warehouse) PlanningStats() (Stats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return exec.PlanningStats(w.core)
}

// Plan is a planned strategy with its provenance.
type Plan struct {
	// Planner is the algorithm that produced the strategy; empty for the
	// journaled strategy of a recovered or replicated window.
	Planner  PlannerName
	Strategy Strategy
	// Ordering is the view ordering behind the strategy (MinWork/Prune).
	Ordering []string
	// Modified reports MinWork fell back to the level-respecting ordering.
	Modified bool
	// EstimatedWork is the strategy's predicted cost under the linear work
	// metric and the statistics it was planned from. -1 for a recovered or
	// replicated window, whose strategy was not planned here.
	EstimatedWork float64
	// Examined and Feasible are a Prune search's effort (see
	// planner.PruneResult): the prefixes of view orderings it priced, and the
	// complete orderings it evaluated and found to admit a strategy. Neither is
	// the m! orderings of the search space; 0 for the planners that do not
	// search.
	Examined, Feasible int
}

// Plan plans the staged changes with the named planner (MinWorkPlanner when
// empty) — the one dispatch over planner names; RunWindowOpts goes through
// it. One gathering of planning statistics serves the planner and the
// estimate.
func (w *Warehouse) Plan(name PlannerName) (Plan, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.plan(name)
}

// plan is Plan for a caller that holds w.mu.
func (w *Warehouse) plan(name PlannerName) (Plan, error) {
	g := w.core.Graph()
	stats, err := exec.PlanningStats(w.core)
	if err != nil {
		return Plan{}, err
	}
	refs := exec.RefCounts(w.core)
	if name == "" {
		name = MinWorkPlanner
	}
	p := Plan{Planner: name, EstimatedWork: -1}
	switch name {
	case MinWorkPlanner:
		res, err := planner.MinWork(g, stats)
		if err != nil {
			return Plan{}, err
		}
		p.Strategy, p.Ordering, p.Modified = res.Strategy, res.UsedOrdering, res.Modified
	case PrunePlanner, SharedPlanner:
		res, err := planner.Prune(g, DefaultCostModel, stats, refs)
		if err != nil {
			return Plan{}, err
		}
		p.Strategy, p.Ordering, p.EstimatedWork = res.Strategy, res.Ordering, res.Work
		p.Examined, p.Feasible = res.Examined, res.Feasible
	case DualStagePlanner:
		p.Strategy = strategy.DualStageVDAG(g)
	default:
		return Plan{}, fmt.Errorf("warehouse: unknown planner %q", name)
	}
	if p.EstimatedWork < 0 {
		if p.EstimatedWork, err = cost.Work(DefaultCostModel, stats, refs, p.Strategy); err != nil {
			return Plan{}, err
		}
	}
	return p, nil
}

// PlanMinWorkSingle plans an optimal update strategy for one derived view
// (Algorithm 4.1). The warehouse must consist of that view and its base
// views for the strategy to cover every pending change.
func (w *Warehouse) PlanMinWorkSingle(view string) (Plan, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	stats, err := exec.PlanningStats(w.core)
	if err != nil {
		return Plan{}, err
	}
	children := w.core.Children(view)
	if len(children) == 0 {
		return Plan{}, fmt.Errorf("warehouse: %q is not a derived view", view)
	}
	s, err := planner.MinWorkSingle(view, children, stats)
	if err != nil {
		return Plan{}, err
	}
	ord, err := planner.DesiredOrdering(children, stats)
	if err != nil {
		return Plan{}, err
	}
	est, err := cost.Work(DefaultCostModel, stats, exec.RefCounts(w.core), s)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Strategy: s, Ordering: ord, EstimatedWork: est}, nil
}

// EstimateWork predicts a strategy's cost under the linear work metric with
// the current planning statistics.
func (w *Warehouse) EstimateWork(s Strategy) (float64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	stats, err := exec.PlanningStats(w.core)
	if err != nil {
		return 0, err
	}
	return cost.Work(DefaultCostModel, stats, exec.RefCounts(w.core), s)
}

// Validate checks a strategy against the correctness conditions (C1–C8).
func (w *Warehouse) Validate(s Strategy) error {
	pin := w.epochs.Pin()
	defer pin.Unpin()
	return validate(pin.Warehouse(), s)
}

// validate checks s against c's view DAG.
func validate(c *core.Warehouse, s Strategy) error {
	return strategy.ValidateVDAGStrategy(c.Graph(), s)
}

// Parallelize stages a correct sequential strategy into sets of
// expressions that can run concurrently (Section 9) — the plan ModeStaged
// executes.
func (w *Warehouse) Parallelize(s Strategy) ParallelPlan {
	pin := w.epochs.Pin()
	defer pin.Unpin()
	return exec.Parallelize(s, pin.Warehouse().Graph())
}

// Verify checks every derived view of the serving epoch against a
// from-scratch recomputation.
func (w *Warehouse) Verify() error {
	pin := w.epochs.Pin()
	defer pin.Unpin()
	return pin.Warehouse().VerifyAll()
}

// Clone returns an independent copy; a window run on the clone leaves the
// original untouched, and the clone's window tally starts empty.
// Cloning is cheap — storage is shared copy-on-write at relation granularity
// — and safe to call while the original serves queries or runs a window.
func (w *Warehouse) Clone() *Warehouse {
	w.mu.Lock()
	defer w.mu.Unlock()
	// The clone gets its own (empty) plan cache: plans are immutable and
	// could be shared, but per-clone counters keep the stats meaningful.
	return FromCore(w.core.Clone())
}

// Pending returns the views with staged or computed-but-uninstalled changes.
func (w *Warehouse) Pending() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.core.PendingViews()
}

// Internal returns the serving epoch's core warehouse for in-module set-up
// and measurement code that holds exclusive access, such as the experiment
// harness.
func (w *Warehouse) Internal() *core.Warehouse { return w.core }

// SaveSnapshot writes the materialized state of every view to out in the
// library's versioned binary format. The warehouse must be quiescent (no
// staged or uninstalled changes). The save holds the facade mutex, so no
// batch is staged and no window commits while it writes.
//
// A snapshot pairs with a journal only once the journal is flushed: a window
// returns with its commit record not yet on the disk, so a snapshot of its
// state beside a journal that lost that record to a power loss would read the
// window as in flight, and Recover would refuse the snapshot's state digest.
// A caller that journals windows calls Journal.Sync(math.MaxInt64) first.
func (w *Warehouse) SaveSnapshot(out io.Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return snapshot.Write(w.core, out)
}

// SaveSnapshotFile is SaveSnapshot to the file at path, observing ctx (nil
// never cancels): the snapshot goes to a temporary file beside path, renamed
// over it only once whole, so a save that is refused, fails or is cancelled
// leaves whatever path held. Flush the journal first, as for SaveSnapshot.
func (w *Warehouse) SaveSnapshotFile(ctx context.Context, path string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return snapshot.WriteFile(ctx, w.core, path)
}

// LoadSnapshot restores state saved by SaveSnapshot into this warehouse,
// whose catalog must match the snapshot's. Existing state is replaced. The
// restore lands as a new serving epoch, so concurrent readers see either
// the old state or the restored one, never a partial restore.
func (w *Warehouse) LoadSnapshot(in io.Reader) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	next := w.core.Clone()
	if err := snapshot.Read(next, in); err != nil {
		return err
	}
	w.adopt(next)
	return nil
}

// Script renders a strategy as the Section 5.5 "update script": one stored
// procedure call per expression, against procedures defined once from the
// VDAG.
func (w *Warehouse) Script(s Strategy) string { return exec.Script(s) }
