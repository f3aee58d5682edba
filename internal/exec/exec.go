// Package exec runs update strategies against a warehouse, measuring the
// update window: wall-clock time plus the actual work performed (operand
// tuples scanned by compute expressions, rows installed by installs). The
// measured work is exactly the quantity the linear work metric models, so
// executor reports can be compared directly against cost-simulator
// predictions — the comparison the paper's experiments perform against a
// commercial RDBMS.
//
// There is one executor, Execute: a worker loop over the ready set of the
// strategy's precedence DAG (dag.go). Sequential execution is that loop with
// one worker, staged execution (Section 9's barrier plan) holds each DAG
// level back until the previous one drains, and DAG execution is the loop
// unrestrained.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// Mode selects how a strategy's expressions are scheduled.
type Mode string

// Execution modes.
const (
	// ModeSequential runs expressions one at a time in strategy order.
	ModeSequential Mode = "sequential"
	// ModeStaged runs the Section 9 barrier plan: conflict analysis groups
	// expressions into stages, each stage's expressions run concurrently,
	// and a barrier separates consecutive stages.
	ModeStaged Mode = "staged"
	// ModeDAG runs the precedence DAG directly with a bounded worker pool:
	// an expression becomes runnable the moment its last conflicting
	// predecessor completes — no inter-stage barriers.
	ModeDAG Mode = "dag"
	// ModeRecompute labels the graceful-degradation path: pending base
	// deltas installed directly, every derived view rebuilt from scratch.
	// It is a journal/report label, not a schedulable mode (ParseMode
	// rejects it).
	ModeRecompute Mode = "recompute"
)

// ParseMode maps a user-facing mode name ("sequential"/"seq", "staged",
// "dag") to a Mode.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "sequential", "seq":
		return ModeSequential, nil
	case "staged", "parallel":
		return ModeStaged, nil
	case "dag":
		return ModeDAG, nil
	}
	return "", fmt.Errorf("exec: unknown execution mode %q (want sequential, staged or dag)", name)
}

// StepReport records the execution of one expression.
type StepReport struct {
	Expr strategy.Expr
	// Work is the expression's measured work: operand tuples scanned for a
	// Comp, rows installed for an Inst.
	Work int64
	// Terms is the number of maintenance terms evaluated (Comp only).
	Terms int
	// Elapsed is the expression's wall-clock duration.
	Elapsed time.Duration
	// Worker identifies the worker that ran the expression (0 for
	// sequential runs).
	Worker int
	// Level is the expression's barrier-stage index in the strategy's
	// precedence DAG: the stage staged execution runs it in.
	Level int
	// Skipped marks a Comp elided by the empty-delta optimization.
	Skipped bool
	// EngineCounters is the machine's side of a Comp step: what the build
	// cache, the memory budget and the resident indexes did for it. Work is
	// untouched by all of it.
	core.EngineCounters
	// Digest fingerprints the delta an Inst step installed (see
	// delta.Digest); 0 for Comp steps and for views whose float-valued
	// columns make bit-exact digests unsound across evaluation orders. The
	// window journal records it so recovery can verify a replayed install
	// against the crashed run.
	Digest uint64
}

// Report summarizes a strategy execution — the update window.
type Report struct {
	Strategy strategy.Strategy
	// Steps holds the executed expressions' reports in strategy order (all
	// of them on success; the ones that completed on failure), each carrying
	// the worker that ran it and its DAG level.
	Steps []StepReport
	// CompWork and InstWork split the measured work by expression type.
	CompWork, InstWork int64
	// SharedBytesPeak is the high-water resident footprint of the window's
	// build cache (0 when sharing is off).
	SharedBytesPeak int64
	// SharedDetail lists every build the window's cache held, sorted by
	// name; nil when sharing is off.
	SharedDetail []core.SharedEntryStats
	// PeakReservedBytes is the high-water mark of the window memory
	// budget's reserved bytes (0 when no budget is attached).
	PeakReservedBytes int64
	// Elapsed is the total update window.
	Elapsed time.Duration
	// Sched carries the scheduling metrics of the run.
	Sched Schedule
}

// TotalWork returns compute plus install work.
func (r Report) TotalWork() int64 { return r.CompWork + r.InstWork }

// String renders a one-line summary.
func (r Report) String() string {
	return fmt.Sprintf("work=%d (comp=%d inst=%d) elapsed=%s steps=%d",
		r.TotalWork(), r.CompWork, r.InstWork, r.Elapsed, len(r.Steps))
}

// Schedule is the scheduling side of a Report. TotalWork, SpanWork and
// CriticalPathWork are all computed from the same measured run, so
// sequential, staged and DAG execution compare directly — and a sequential
// run predicts what the same strategy would cost staged or DAG-scheduled.
type Schedule struct {
	// Mode records how the strategy was scheduled.
	Mode Mode
	// Workers is the scheduling width: the worker-pool size in DAG mode,
	// the widest stage in staged mode, 1 for sequential runs.
	Workers int
	// Levels is the number of barrier stages of the precedence DAG.
	Levels int
	// TotalWork is the sum of all expressions' measured work — what the
	// warehouse pays.
	TotalWork int64
	// SpanWork is the barrier-plan span: the sum over stages of the largest
	// single-expression work in the stage — what the update window costs
	// under staged execution with unlimited parallelism.
	SpanWork int64
	// CriticalPathWork is the longest work-weighted path through the
	// precedence DAG — what the window costs under barrier-free scheduling
	// with unlimited parallelism. Always ≤ SpanWork: dropping barriers can
	// only shorten the schedule.
	CriticalPathWork int64
	// Elapsed is the measured wall-clock update window.
	Elapsed time.Duration
}

// Speedup returns TotalWork/SpanWork, the work-based parallelism achieved.
func (s Schedule) Speedup() float64 {
	if s.SpanWork == 0 {
		return 1
	}
	return float64(s.TotalWork) / float64(s.SpanWork)
}

// Options configure Execute. The zero value runs the strategy sequentially,
// unvalidated.
type Options struct {
	// Mode schedules the strategy; empty means ModeSequential.
	Mode Mode
	// Workers bounds the worker pool in DAG mode; 0 means
	// runtime.GOMAXPROCS(0). Sequential mode runs one worker and staged
	// mode one per expression of its widest stage (the Section 9 model).
	Workers int
	// Validate runs the strategy through the correctness conditions
	// (C1–C8, relaxed by the quiescent set) against the warehouse's VDAG
	// before executing. Execution of an incorrect strategy would corrupt
	// the warehouse.
	Validate bool
	// Context cancels execution between steps and propagates into term
	// evaluation and the morsel pool; nil means no cancellation. In-flight
	// expressions finish, unstarted ones are abandoned.
	Context context.Context
	// OnStep, when non-nil, is called after each expression completes
	// successfully, with the expression's strategy index and its measured
	// step. An error fails the step (the window journal uses this to make
	// a failed journal append fail the window). Staged and DAG execution
	// call it from concurrent workers: it must be safe for concurrent use.
	OnStep func(idx int, step StepReport) error
	// Faults, when non-nil, is consulted at every step boundary (point
	// "step") before the expression runs, and at the spill I/O points when
	// a memory budget is attached. Injected failures, panics and crashes
	// surface exactly as real ones would.
	Faults *faults.Injector
	// SpillDir is where over-budget builds spill when the warehouse
	// configures a memory budget; empty means a per-run temp directory.
	SpillDir string
}

// Graph derives the VDAG of a warehouse.
func Graph(w *core.Warehouse) (*vdag.Graph, error) {
	b := vdag.NewBuilder()
	for _, name := range w.ViewNames() {
		if err := b.Add(name, w.Children(name)); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// PanicError converts a recovered panic value into an error, preserving
// error identity (errors.Is / errors.As see through the wrapping) when the
// panic value is itself an error. Every executor that turns worker panics
// into step failures routes them through here so a panicking operator in a
// DAG worker or a morsel goroutine surfaces as a diagnosable error instead
// of taking down the process.
func PanicError(p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("panic: %w", err)
	}
	return fmt.Errorf("panic: %v", p)
}

// ContextErr is ctx.Err(), except that a deadline already past reports
// context.DeadlineExceeded even before the runtime's timer has cancelled ctx:
// a CPU-bound window can run far beyond its deadline before that timer gets
// to fire. A nil ctx never cancels.
func ContextErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// RunStep executes one strategy expression against the warehouse and
// measures it, after passing the "step" fault point of inj (nil injects
// nothing). A panic anywhere inside — the expression itself or an injected
// fault — is recovered and returned as an error (see PanicError), so a
// panicking operator in a worker goroutine fails its step instead of killing
// the process; ctx cancels term evaluation and the morsel pool mid-Comp. Inst
// steps fingerprint the delta they are about to install (StepReport.Digest)
// so journaled windows can be verified on recovery.
func RunStep(ctx context.Context, w *core.Warehouse, e strategy.Expr, inj *faults.Injector) (step StepReport, err error) {
	step.Expr = e
	defer func() {
		if p := recover(); p != nil {
			err = PanicError(p)
		}
	}()
	if err := inj.Hit("step"); err != nil {
		return step, err
	}
	t0 := time.Now()
	switch x := e.(type) {
	case strategy.Comp:
		cr, cerr := w.ComputeCtx(ctx, x.View, x.Over)
		if cerr != nil {
			return step, cerr
		}
		step.Work = cr.OperandTuples
		step.Terms = cr.Terms
		step.Skipped = cr.Skipped
		step.EngineCounters = cr.EngineCounters
	case strategy.Inst:
		step.Digest = instDigest(w, x.View)
		n, ierr := w.Install(x.View)
		if ierr != nil {
			return step, ierr
		}
		step.Work = n
	default:
		return step, fmt.Errorf("unknown expression type %T", e)
	}
	step.Elapsed = time.Since(t0)
	return step, nil
}

// instDigest fingerprints the delta an install is about to fold in. Views
// with float-valued columns digest to 0: float accumulation order varies
// across evaluation modes, so bit-exact digests would be unsound there.
// Finalizing the delta here is safe — Install is about to do it anyway.
func instDigest(w *core.Warehouse, view string) uint64 {
	v := w.View(view)
	if v == nil || !v.HasPending() {
		return 0
	}
	for _, col := range v.Schema() {
		if col.Kind == relation.KindFloat {
			return 0
		}
	}
	d, err := w.DeltaOf(view)
	if err != nil {
		return 0
	}
	return d.Digest()
}

// Execute runs the strategy against the warehouse, mutating it, and returns
// the measured report. It is the only executor: whatever the mode, the run
// validates the strategy (when asked), attaches the window's build cache
// and memory budget, passes every expression through the "step"
// fault point, RunStep and OnStep, and finishes with the deferred-maintenance
// bookkeeping (MarkSkippedStale). The first expression error cancels
// scheduling (in-flight expressions finish, unstarted ones are abandoned)
// and is returned deterministically: among the failures of a run, the one
// whose expression is earliest in the strategy wins — a step that the
// cancellation stopped is not among them. The report then holds the steps
// that completed.
func Execute(w *core.Warehouse, s strategy.Strategy, opts Options) (Report, error) {
	rep := Report{Strategy: s}
	mode := opts.Mode
	switch mode {
	case "":
		mode = ModeSequential
	case ModeSequential, ModeStaged, ModeDAG:
	default:
		return rep, fmt.Errorf("exec: unknown execution mode %q", mode)
	}
	if opts.Validate {
		if err := Validate(w, s); err != nil {
			return rep, err
		}
	}
	changed := ChangedViews(w)
	d := BuildDAG(s, w.Children)
	detach := AttachSharing(w)
	detachMem := AttachMemory(w, opts.SpillDir, opts.Faults)
	err := d.run(w, mode, opts, &rep)
	st := detach()
	rep.SharedBytesPeak, rep.SharedDetail = st.BytesPeak, st.Detail
	rep.PeakReservedBytes = detachMem().PeakReservedBytes
	if err != nil {
		return rep, err
	}
	return rep, MarkSkippedStale(w, s, changed)
}

// readySet is the scheduler's state: which DAG nodes have every predecessor
// done and are waiting for a worker. Workers take the lowest ready strategy
// index — so a single worker reproduces strategy order exactly — and, when
// staged, only from the level currently released.
type readySet struct {
	mu     sync.Mutex
	cond   *sync.Cond
	d      *DAG
	indeg  []int
	ready  []bool
	left   int  // nodes not yet done
	staged bool // hold each level back until the previous one drains
	level  int  // staged: the level currently released
	open   int  // staged: nodes of that level not yet done
	halted bool
}

func newReadySet(d *DAG, staged bool) *readySet {
	r := &readySet{d: d, indeg: make([]int, d.Len()), ready: make([]bool, d.Len()), left: d.Len(), staged: staged}
	r.cond = sync.NewCond(&r.mu)
	for i := range r.indeg {
		r.indeg[i] = len(d.preds[i])
		r.ready[i] = r.indeg[i] == 0
	}
	r.open = d.width(0)
	return r
}

// take blocks until a node is ready and returns it; false once every node
// is done or the run was halted.
func (r *readySet) take() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.halted && r.left > 0 {
		for i, ok := range r.ready {
			if ok && (!r.staged || r.d.level[i] == r.level) {
				r.ready[i] = false
				return i, true
			}
		}
		r.cond.Wait()
	}
	return 0, false
}

// done marks node i complete, readying the successors it was the last
// predecessor of and, when staged, releasing the next level once this one
// has drained.
func (r *readySet) done(i int) {
	r.mu.Lock()
	r.left--
	for _, succ := range r.d.succs[i] {
		if r.indeg[succ]--; r.indeg[succ] == 0 {
			r.ready[succ] = true
		}
	}
	if r.staged {
		if r.open--; r.open == 0 {
			r.level++
			r.open = r.d.width(r.level)
		}
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// halt stops handing out nodes; workers finish what they hold and return.
func (r *readySet) halt() {
	r.mu.Lock()
	r.halted = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// run is the executor loop: workers (one for sequential mode, the widest
// level for staged, opts.Workers for DAG; the caller is worker 0) take ready
// nodes until the DAG is done or a step fails, and the report is assembled
// from whatever ran.
func (d *DAG) run(w *core.Warehouse, mode Mode, opts Options, rep *Report) error {
	n := d.Len()
	workers := 1
	switch mode {
	case ModeStaged:
		for l := 0; l < d.Levels(); l++ {
			if k := d.width(l); k > workers {
				workers = k
			}
		}
	case ModeDAG:
		workers = opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > n {
			workers = n
		}
		if workers < 1 {
			workers = 1
		}
	}
	parent := opts.Context
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	steps := make([]StepReport, n)
	ran := make([]bool, n)
	rs := newReadySet(d, mode == ModeStaged)
	var (
		errMu    sync.Mutex
		firstErr error
		firstIdx = n
	)
	work := func(worker int) {
		for {
			idx, ok := rs.take()
			if !ok {
				return
			}
			// Only the caller's context is consulted between steps: the
			// derived one is cancelled by a sibling's failure, which must
			// not be reported as this step's.
			err := ContextErr(parent)
			if err == nil {
				var step StepReport
				if step, err = RunStep(ctx, w, d.Expr(idx), opts.Faults); err == nil {
					step.Worker, step.Level = worker, d.level[idx]
					steps[idx], ran[idx] = step, true
					if opts.OnStep != nil {
						err = opts.OnStep(idx, step)
					}
				}
			}
			if err != nil {
				// A step stopped by the derived context alone was cancelled by
				// a sibling's failure, recorded before it cancelled: the echo
				// is not a failure of the run and must not outrank its cause,
				// or a transient fault would be reported as a cancellation.
				echo := errors.Is(err, context.Canceled) && ContextErr(parent) == nil
				errMu.Lock()
				if idx < firstIdx && !echo {
					firstIdx, firstErr = idx, err
				}
				errMu.Unlock()
				cancel()
				rs.halt()
				return
			}
			rs.done(idx)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for k := 1; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			work(k)
		}(k)
	}
	work(0)
	wg.Wait()
	rep.Elapsed = time.Since(start)

	nodeWork := make([]int64, n)
	for i := range steps {
		if !ran[i] {
			continue
		}
		nodeWork[i] = steps[i].Work
		if _, ok := d.Expr(i).(strategy.Comp); ok {
			rep.CompWork += steps[i].Work
		} else {
			rep.InstWork += steps[i].Work
		}
		rep.Steps = append(rep.Steps, steps[i])
	}
	rep.Sched = Schedule{
		Mode: mode, Workers: workers, Levels: d.Levels(),
		TotalWork:        rep.TotalWork(),
		SpanWork:         d.spanWork(nodeWork),
		CriticalPathWork: d.criticalPathWork(nodeWork),
		Elapsed:          rep.Elapsed,
	}
	if firstErr != nil {
		return fmt.Errorf("exec: %s: %w", d.Expr(firstIdx), firstErr)
	}
	return nil
}

// Validate checks a strategy against the correctness conditions (C1–C8)
// relative to the warehouse's VDAG and current pending changes: a view may
// be skipped if nothing it depends on changed, or if it is under deferred
// maintenance (it will be marked stale instead).
func Validate(w *core.Warehouse, s strategy.Strategy) error {
	g, err := Graph(w)
	if err != nil {
		return err
	}
	changed := ChangedViews(w)
	deferred := w.EffectivelyDeferred()
	quiescent := func(v string) bool { return !changed[v] || deferred[v] }
	if err := strategy.ValidateVDAGStrategyRelaxed(g, s, quiescent); err != nil {
		return fmt.Errorf("exec: refusing incorrect strategy: %w", err)
	}
	return nil
}

// MarkSkippedStale performs the deferred-maintenance bookkeeping after a
// strategy has executed: a view whose underlying data changed but which the
// strategy did not install is now stale. Execute calls this once its
// strategy completes, passing the ChangedViews set captured *before*
// execution (installs clear the pending state the set is derived from).
func MarkSkippedStale(w *core.Warehouse, s strategy.Strategy, changed map[string]bool) error {
	deferred := w.EffectivelyDeferred()
	installed := make(map[string]bool)
	for _, e := range s {
		if inst, ok := e.(strategy.Inst); ok {
			installed[inst.View] = true
		}
	}
	for v := range deferred {
		if changed[v] && !installed[v] {
			if err := w.MarkStale(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// ChangedViews computes which views the staged update batch touches: a base
// view with pending changes, a view with computed-but-uninstalled changes,
// or a derived view with a changed child (transitively). The complement is
// the quiescent set of the footnote-5 relaxation: views a strategy may skip.
func ChangedViews(w *core.Warehouse) map[string]bool {
	changed := make(map[string]bool)
	for _, name := range w.ViewNames() { // topological order
		if w.MustView(name).HasPending() {
			changed[name] = true
			continue
		}
		for _, c := range w.Children(name) {
			if changed[c] {
				changed[name] = true
				break
			}
		}
	}
	return changed
}
