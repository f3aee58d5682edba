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
//   - Plan(MinWorkPlanner), or PlanMinWork: expression-graph planning for
//     the whole VDAG, optimal for tree- and uniform-shaped warehouses.
//   - Plan(PrunePlanner): exhaustive-but-pruned search returning the
//     cheapest 1-way VDAG strategy; Plan(SharedPlanner) costs the same
//     candidates by sharing-adjusted work, and Plan(DualStagePlanner) is the
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
//	plan, _ := w.PlanMinWork()
//	report, _ := w.Execute(plan.Strategy, warehouse.ModeSequential, 0)
package warehouse

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

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
	// Delta is a set of inserted (plus) and deleted (minus) tuples.
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

	// ViewDef is a bound view definition (use DefineViewSQL or the algebra
	// builder to construct one).
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

// Execution modes for Execute and WindowOptions.
const (
	ModeSequential = exec.ModeSequential
	ModeStaged     = exec.ModeStaged
	ModeDAG        = exec.ModeDAG
)

// ParseMode maps a user-facing mode name ("sequential"/"seq", "staged",
// "dag") to a Mode.
var ParseMode = exec.ParseMode

// DefaultCostModel weights compute-scanned and installed tuples equally.
var DefaultCostModel = cost.DefaultModel

// Options configure a Warehouse.
type Options struct {
	// SkipEmptyDeltas elides compute expressions whose delta operands are
	// all empty (the paper's footnote-5 extension).
	SkipEmptyDeltas bool
	// ParallelTerms widens the term engine's worker pool from 1 to Workers:
	// the 2^r − 1 maintenance terms of each Comp then evaluate concurrently
	// and join-step probes run as morsels on the pool. Produced deltas and
	// reported work are identical at any width; only wall-clock changes.
	ParallelTerms bool
	// Workers bounds the worker budget the term engine shares across all
	// concurrent Computes under ParallelTerms (0 = GOMAXPROCS). Pass the
	// same value to Execute/WindowOptions so DAG-level and term-level
	// parallelism compose under one budget.
	Workers int
	// ShareComputation makes the build cache live for the update window
	// instead of one Comp: a build side (a pending delta, an aggregate
	// view's state — plain tables are read through their resident indexes
	// and build nothing) that several views' Comp expressions hash is built
	// once and probed by every later consumer, in every scheduling mode and
	// at any engine width, until its view installs. Reported work (the
	// linear metric) is unchanged; SharedHits/SharedTuplesSaved report the
	// physical scans elided. MemoryBudgetBytes bounds the bytes the kept
	// builds take: without it every build stays resident until its view
	// installs.
	ShareComputation bool
	// MemoryBudgetBytes bounds the window-wide transient memory of update
	// execution: every build-side hash table draws on one budget for as
	// long as the build cache holds it, and builds that do not fit are
	// spilled to disk Grace-style and probed partition-wise.
	// Results, digests and reported work are identical at any budget; only
	// bytes moved change. 0 disables budgeting. The resident join indexes
	// through which delta-driven terms read table state are storage, not
	// build state, and are not charged.
	MemoryBudgetBytes int64
	// Model overrides the cost model used by the planners; zero value means
	// DefaultCostModel.
	Model CostModel
}

// Warehouse is a catalog of materialized views plus their state.
//
// # Thread safety
//
// A Warehouse serves consistent reads while update windows run. The
// contract, enforced by the concurrency tests, is:
//
//   - Query, QueryEpoch, PinEpoch, Rows, Size, Epoch, LiveEpochs and
//     ViewSchema are safe to call from any number of goroutines at any
//     time, including while a window executes or commits. Reads are served
//     from the pinned epoch — an immutable published version of the state —
//     so a reader observes exactly the pre-window or post-window warehouse,
//     never a mix (see PinEpoch for multi-view consistency).
//   - StageDelta, StageDeltaCSV, RunWindow, RunWindowOpts, Recover,
//     ApplyWindow, Clone and Pending are safe to call concurrently with each
//     other and with readers; they serialize on an internal mutex (a
//     StageDelta issued while a window runs blocks until the window commits or
//     aborts, and lands in the next window). Tally does not wait for a window.
//   - Setup methods — DefineBase, DefineViewSQL, DefineView, Load, LoadCSV,
//     Refresh, SetDeferred, RefreshStale, SetParallelism — mutate the
//     current epoch in place and require exclusive access: complete the
//     loading phase before serving queries concurrently.
//   - Execute also mutates in place (it is the measurement primitive); a
//     served warehouse runs windows through RunWindowOpts only, whose commit
//     is an atomic epoch flip.
type Warehouse struct {
	// mu serializes every state transition: staging, update windows
	// (including the commit swap) and recovery. Readers do not take it — they
	// pin the current epoch instead.
	mu     sync.Mutex
	core   *core.Warehouse
	epochs *core.Epochs
	model  CostModel
	// tallyMu guards tally, which every window folds into as it commits or
	// fails, and last, the last committed window's report: all the facade
	// keeps of its windows.
	tallyMu sync.Mutex
	tally   WindowTally
	last    WindowReport
	// plans is the prepared-plan cache consulted by every query path
	// (Query, QueryEpoch, PinnedEpoch.Query, QuerySchema — and through
	// them the query server and follower reads). Held through an atomic
	// pointer so SetPlanCache can swap or disable it while queries are in
	// flight; nil means caching is off.
	plans atomic.Pointer[plancache.Cache[*sqlparse.Query]]
}

// New creates an empty warehouse.
func New(opts ...Options) *Warehouse {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return FromCore(core.New(core.Options{
		SkipEmptyDeltas:   o.SkipEmptyDeltas,
		ParallelTerms:     o.ParallelTerms,
		Workers:           o.Workers,
		ShareComputation:  o.ShareComputation,
		MemoryBudgetBytes: o.MemoryBudgetBytes,
	}), o.Model)
}

// FromCore serves an assembled core warehouse through the facade, so that
// in-module builders of fixed catalogs (internal/tpcd) run their windows the
// way every other caller does. The zero model means DefaultCostModel; either
// way the planners price the core's memory budget. The facade owns c from
// here on: a committed window replaces it with the window's clone.
func FromCore(c *core.Warehouse, model CostModel) *Warehouse {
	if model.CompCoeff == 0 && model.InstCoeff == 0 {
		model = DefaultCostModel
	}
	model.MemoryBudgetBytes = c.Options().MemoryBudgetBytes
	w := &Warehouse{core: c, epochs: core.NewEpochs(c), model: model}
	w.plans.Store(plancache.New[*sqlparse.Query](DefaultPlanCacheSize))
	return w
}

// DefaultPlanCacheSize is the prepared-plan cache capacity a new Warehouse
// starts with; SetPlanCache adjusts or disables it.
const DefaultPlanCacheSize = 256

// SetPlanCache replaces the prepared-plan cache with a fresh one holding
// at most size plans; size <= 0 disables caching. Existing cached plans
// (and counters) are discarded. Safe to call concurrently with queries:
// in-flight queries finish against the cache they started with.
func (w *Warehouse) SetPlanCache(size int) {
	if size <= 0 {
		w.plans.Store(nil)
		return
	}
	w.plans.Store(plancache.New[*sqlparse.Query](size))
}

// PlanCacheStats snapshots the prepared-plan cache counters; the zero
// Stats when caching is disabled.
func (w *Warehouse) PlanCacheStats() PlanCacheStats {
	if c := w.plans.Load(); c != nil {
		return c.Stats()
	}
	return PlanCacheStats{}
}

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

// SetParallelism resizes the term engine's worker pool at runtime: on widens
// it from 1 to workers (0 = GOMAXPROCS), turning on term/morsel parallelism.
// Not safe to call while a window executes.
func (w *Warehouse) SetParallelism(workers int, on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	opts := w.core.Options()
	opts.ParallelTerms, opts.Workers = on, workers
	w.core.SetOptions(opts)
}

// SetSharing reconfigures window-wide shared computation at runtime: on
// enables cross-view reuse of transiently materialized operands, whose
// footprint the memory budget bounds (SetMemoryBudget). Not safe to call
// while a window executes.
func (w *Warehouse) SetSharing(on bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	opts := w.core.Options()
	opts.ShareComputation = on
	w.core.SetOptions(opts)
}

// MiB converts a count of mebibytes, as a command takes a budget, to the
// bytes SetMemoryBudget and Options.MemoryBudgetBytes take. It refuses a
// negative count and one whose bytes an int64 cannot hold.
func MiB(n int64) (int64, error) {
	if n < 0 || n > math.MaxInt64>>20 {
		return 0, fmt.Errorf("%d MiB is not a byte budget (0 to %d MiB)", n, int64(math.MaxInt64>>20))
	}
	return n << 20, nil
}

// SetMemoryBudget reconfigures the window-wide memory budget at runtime:
// bytes bounds the transient build-state footprint of update execution, with
// over-budget builds spilling to disk (see Options.MemoryBudgetBytes); 0
// disables budgeting. The planners' cost model is updated too, so estimates
// charge the spill I/O a bounded window would pay. Not safe to call while a
// window executes.
func (w *Warehouse) SetMemoryBudget(bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	opts := w.core.Options()
	opts.MemoryBudgetBytes = bytes
	w.core.SetOptions(opts)
	w.model.MemoryBudgetBytes = bytes
}

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
	cq, err := sqlparse.Parse(sql, w.resolveSchema)
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
	name, cq, err := sqlparse.ParseCreateView(sql, w.resolveSchema)
	if err != nil {
		return "", err
	}
	return name, w.core.DefineDerived(name, cq)
}

// DefineView registers a derived view from a pre-built definition (see the
// algebra builder re-exported by this package's tpcd helpers, or
// DefineViewSQL for the SQL path).
func (w *Warehouse) DefineView(name string, def *ViewDef) error {
	return w.core.DefineDerived(name, def)
}

func (w *Warehouse) resolveSchema(view string) (Schema, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := w.core.View(view)
	if v == nil {
		return nil, fmt.Errorf("warehouse: unknown view %q", view)
	}
	return v.Schema(), nil
}

// Load bulk-inserts rows into a base view.
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
	schema, err := w.resolveSchema(name)
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
	schema, err := w.resolveSchema(name)
	if err != nil {
		return nil, err
	}
	d, err := csvio.ReadDelta(r, schema)
	if err != nil {
		return nil, err
	}
	return d, w.StageDelta(name, d)
}

// DumpCSV writes a view's current rows (duplicates expanded) as CSV.
func (w *Warehouse) DumpCSV(name string, out io.Writer) error {
	v := w.core.View(name)
	if v == nil {
		return fmt.Errorf("warehouse: unknown view %q", name)
	}
	return csvio.WriteRows(out, v.Schema(), v)
}

// NewDelta creates an empty change batch for the named view's schema. Safe
// to call while a window commits — continuous producers build deltas
// concurrently with the window loop.
func (w *Warehouse) NewDelta(name string) (*Delta, error) {
	schema, err := w.resolveSchema(name)
	if err != nil {
		return nil, err
	}
	return delta.New(schema), nil
}

// StageDelta records an arriving change batch for a base view. Safe to call
// concurrently with readers and windows: a batch staged while a window runs
// blocks until the window finishes and applies to the next one.
func (w *Warehouse) StageDelta(name string, d *Delta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.core.StageDelta(name, d)
}

// Views returns all view names in definition order.
func (w *Warehouse) Views() []string { return w.core.ViewNames() }

// ViewSchema returns a view's output schema.
func (w *Warehouse) ViewSchema(name string) (Schema, error) { return w.resolveSchema(name) }

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
type CountedRow struct {
	Tuple Tuple
	Count int64
}

// Graph returns the warehouse's view DAG.
func (w *Warehouse) Graph() (*Graph, error) { return exec.Graph(w.core) }

// PlanningStats gathers the statistics the planners need: exact base-view
// deltas, estimated derived deltas (Section 5.5).
func (w *Warehouse) PlanningStats() (Stats, error) { return exec.PlanningStats(w.core) }

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
	// metric and the statistics it was planned from — sharing-adjusted for
	// SharedPlanner. -1 for a recovered or replicated window, whose strategy
	// was not planned here.
	EstimatedWork float64
	// Examined and Feasible are a Prune or PruneShared search's effort (see
	// planner.PruneResult): the prefixes of view orderings it priced, and the
	// complete orderings it evaluated and found to admit a strategy. Neither is
	// the m! orderings of the search space; 0 for the planners that do not
	// search.
	Examined, Feasible int
}

// Plan plans the staged changes with the named planner (MinWorkPlanner when
// empty) — the one dispatch over planner names; RunWindowOpts and
// PlanMinWork go through it. One gathering of planning statistics serves
// the planner and the estimate.
func (w *Warehouse) Plan(name PlannerName) (Plan, error) {
	g, err := w.planningGraph()
	if err != nil {
		return Plan{}, err
	}
	stats, err := w.PlanningStats()
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
	case PrunePlanner:
		res, err := planner.Prune(g, w.model, stats, refs)
		if err != nil {
			return Plan{}, err
		}
		p.Strategy, p.Ordering, p.EstimatedWork = res.Strategy, res.Ordering, res.Work
		p.Examined, p.Feasible = res.Examined, res.Feasible
	case DualStagePlanner:
		p.Strategy = strategy.DualStageVDAG(g)
	case SharedPlanner:
		res, err := planner.PruneShared(g, w.model, stats, refs, planner.SharedSearchOptions{
			Refs:    exec.RefsOf(w.core),
			Sharing: planner.SharingOptions{Width: exec.WidthOf(w.core)},
		})
		if err != nil {
			return Plan{}, err
		}
		p.Strategy, p.Ordering, p.EstimatedWork = res.Strategy, res.Ordering, res.AdjustedWork
		p.Examined, p.Feasible = res.Examined, res.Feasible
	default:
		return Plan{}, fmt.Errorf("warehouse: unknown planner %q", name)
	}
	if p.EstimatedWork < 0 {
		if p.EstimatedWork, err = cost.Work(w.model, stats, refs, p.Strategy); err != nil {
			return Plan{}, err
		}
	}
	return p, nil
}

// PlanMinWork plans an update for the whole warehouse with the MinWork
// algorithm (optimal for tree and uniform VDAGs).
func (w *Warehouse) PlanMinWork() (Plan, error) { return w.Plan(MinWorkPlanner) }

// PlanMinWorkSingle plans an optimal update strategy for one derived view
// (Algorithm 4.1). The warehouse must consist of that view and its base
// views for the strategy to cover every pending change.
func (w *Warehouse) PlanMinWorkSingle(view string) (Plan, error) {
	stats, err := w.PlanningStats()
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
	est, err := cost.Work(w.model, stats, exec.RefCounts(w.core), s)
	if err != nil {
		return Plan{}, err
	}
	return Plan{Strategy: s, Ordering: ord, EstimatedWork: est}, nil
}

// planningGraph is the VDAG with deferred-maintenance views (and their
// dependents) removed: update strategies never touch them; they go stale
// instead and are brought current by RefreshStale.
func (w *Warehouse) planningGraph() (*vdag.Graph, error) {
	g, err := w.Graph()
	if err != nil {
		return nil, err
	}
	deferred := w.core.EffectivelyDeferred()
	if len(deferred) == 0 {
		return g, nil
	}
	return g.WithoutViews(deferred)
}

// SetDeferred switches a derived view between immediate maintenance (the
// default: every update window brings it current) and deferred maintenance
// (update windows skip it — and necessarily everything defined over it —
// marking it stale; RefreshStale recomputes it on demand). Deferring large,
// rarely queried summaries is one of the update-window-shrinking levers the
// paper's related work ([CKL+97]) describes as complementary.
func (w *Warehouse) SetDeferred(name string, deferred bool) error {
	return w.core.SetDeferred(name, deferred)
}

// StaleViews lists views skipped by past update windows and not yet
// refreshed, in dependency order.
func (w *Warehouse) StaleViews() []string { return w.core.StaleViews() }

// RefreshStale recomputes every stale view bottom-up from current data.
func (w *Warehouse) RefreshStale() error { return w.core.RefreshStale() }

// EstimateWork predicts a strategy's cost under the linear work metric with
// the current planning statistics.
func (w *Warehouse) EstimateWork(s Strategy) (float64, error) {
	stats, err := w.PlanningStats()
	if err != nil {
		return 0, err
	}
	return cost.Work(w.model, stats, exec.RefCounts(w.core), s)
}

// Validate checks a strategy against the correctness conditions (C1–C8).
func (w *Warehouse) Validate(s Strategy) error {
	g, err := w.Graph()
	if err != nil {
		return err
	}
	return strategy.ValidateVDAGStrategy(g, s)
}

// Execute runs a strategy under the given scheduling mode after validating
// it, mutating the warehouse in place, and returns the measured update-window
// report. workers bounds the ModeDAG worker pool (0 means
// runtime.GOMAXPROCS(0)); the other modes ignore it. The report's
// Sched.TotalWork, SpanWork and CriticalPathWork are all measured on the
// same run, so modes compare directly.
func (w *Warehouse) Execute(s Strategy, mode Mode, workers int) (Report, error) {
	return exec.Execute(w.core, s, exec.Options{Mode: mode, Workers: workers, Validate: true})
}

// Parallelize stages a correct sequential strategy into sets of
// expressions that can run concurrently (Section 9) — the plan ModeStaged
// executes.
func (w *Warehouse) Parallelize(s Strategy) ParallelPlan {
	return exec.Parallelize(s, w.core.Children)
}

// Verify checks every derived view against a from-scratch recomputation.
func (w *Warehouse) Verify() error { return w.core.VerifyAll() }

// Clone returns an independent copy; executing a strategy on the clone
// leaves the original untouched, and the clone's window tally starts empty.
// Cloning is cheap — storage is shared copy-on-write at relation granularity
// — and safe to call while the original serves queries or runs a window.
func (w *Warehouse) Clone() *Warehouse {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.core.Clone()
	out := &Warehouse{
		core:   c,
		epochs: core.NewEpochs(c),
		model:  w.model,
	}
	// The clone gets its own (empty) plan cache with the same capacity:
	// plans are immutable and could be shared, but per-clone counters keep
	// the stats meaningful.
	if pc := w.plans.Load(); pc != nil {
		out.plans.Store(plancache.New[*sqlparse.Query](pc.Cap()))
	}
	return out
}

// Pending returns the views with staged or computed-but-uninstalled changes.
func (w *Warehouse) Pending() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.core.PendingViews()
}

// Internal returns the underlying core warehouse for advanced (in-module)
// use such as the experiment harness.
func (w *Warehouse) Internal() *core.Warehouse { return w.core }

// SaveSnapshot writes the materialized state of every view to out in the
// library's versioned binary format. The warehouse must be quiescent (no
// staged or uninstalled changes). The state written is one consistent
// epoch: a window committing mid-write cannot tear the snapshot.
func (w *Warehouse) SaveSnapshot(out io.Writer) error {
	p := w.PinEpoch()
	defer p.Close()
	return snapshot.Write(p.pin.Warehouse(), out)
}

// SaveSnapshotFile is SaveSnapshot to the file at path, observing ctx (nil
// never cancels): the snapshot goes to a temporary file beside path, renamed
// over it only once whole, so a save that is refused, fails or is cancelled
// leaves whatever path held.
func (w *Warehouse) SaveSnapshotFile(ctx context.Context, path string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p := w.PinEpoch()
	defer p.Close()
	return snapshot.WriteFile(ctx, p.pin.Warehouse(), path)
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
