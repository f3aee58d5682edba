// Package ingest runs a warehouse under a continuous change stream: it
// accumulates source changes in a bounded, crash-safe staging queue and runs
// micro-batch update windows over what the queue holds, on a tick and early
// under pressure, while the query server keeps serving.
//
// The paper optimizes one operator-invoked window; this package is the
// production regime around it (cf. Olteanu's IVM survey: amortized per-tuple
// maintenance under bounded staleness, which the tick and the queue bound
// give). The robustness contract:
//
//   - Backpressure, never unbounded memory: the change queue is bounded in
//     row-changes, and a batch is the run of consecutive accepts it holds. A
//     queue half full runs a window before the tick, a full one runs them back
//     to back; past that producers block up to BlockTimeout, then are shed
//     with ErrIngestOverloaded.
//   - Crash-safe exactly-once handoff: each accepted change set is an accept
//     record of the window journal, durable before Submit returns, and each
//     window's begin record names the accepts it installs. A restarted
//     ingester requeues exactly the accepts that no committed window names,
//     so a crash anywhere — mid-accept, mid-cut, mid-window — resumes without
//     dropping or double-applying a change.
//   - One retry path: the SLO sets each window's deadline, half of it, doubled
//     after every abort until the batch commits. Failures ride RunWindowOpts's
//     in-place retries and DAG→sequential→recompute ladder; a transient
//     failure that outlives it, or one at a cut or a staging, leaves the batch
//     for the next tick.
//   - Observability: Stats surfaces p50/p99 staleness, per-tuple work, queue
//     depth and shed count; each committed window's report carries
//     warehouse.IngestInfo for Counters().
package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	warehouse "repro"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/recovery"
)

// ErrIngestOverloaded is returned by Submit when the change queue stayed
// full past BlockTimeout: the change was shed, not accepted. Typed so
// producers can distinguish load shedding from hard failures and back off.
var ErrIngestOverloaded = errors.New("ingest: change queue full, change shed")

// ErrIngestClosed is returned by Submit after Close has begun: the ingester
// no longer accepts stream changes (it may still be flushing).
var ErrIngestClosed = errors.New("ingest: ingester closed")

// Fault-injection points consulted by the ingester (see internal/faults):
// "ingest.accept" fires once per Submit before the change is journaled,
// "ingest.journal" once per accept record appended, "ingest.cut" once per
// batch cut, and "ingest.stage" once per batch staging.
const (
	pointAccept  = "ingest.accept"
	pointJournal = "ingest.journal"
	pointCut     = "ingest.cut"
	pointStage   = "ingest.stage"
)

// Config configures an Ingester. Warehouse is required; everything else has
// serviceable defaults.
type Config struct {
	// Warehouse receives the staged batches and runs the windows.
	Warehouse *warehouse.Warehouse
	// Journal is the window journal, and what makes the handoff
	// exactly-once: Submit appends each accepted change set to it as an
	// accept record, and each window's begin record names the accepts it
	// installs. Restore the warehouse from it (Warehouse.Restore) before New,
	// which requeues the accepts no committed window installs. Nil runs
	// unjournaled windows: accepted changes live only in memory.
	Journal *warehouse.Journal
	// Deprecated: JournalPath names an ingest journal, the file accepted
	// changes went to before they were records of the window journal. New
	// refuses to start over one that holds any record, whose accepts it would
	// not read, and ignores an absent or empty file; it writes none.
	JournalPath string
	// SLO is the p99 staleness target. A window's deadline is half of it,
	// doubled after every abort until the batch commits; 0 sets none, and
	// New refuses a negative one.
	SLO time.Duration
	// Planner, Mode, Workers select planning and scheduling for the windows;
	// New refuses an unknown planner or mode.
	Planner warehouse.PlannerName
	Mode    warehouse.Mode
	Workers int
	// QueueLimit bounds the queue in row-changes, and so a batch; default
	// 4096.
	QueueLimit int
	// BlockTimeout is how long Submit blocks on a full queue before shedding;
	// 0 sheds immediately.
	BlockTimeout time.Duration
	// Tick is the maximum batch interval: queued changes never wait longer
	// than this for a window; default 5ms.
	Tick time.Duration
	// Faults injects failures at the ingest points and is passed through to
	// the windows.
	Faults *faults.Injector
	// OnWindow, when set, observes each committed window's report (with
	// Ingest populated). Called from the window loop; keep it fast.
	OnWindow func(warehouse.WindowReport)
}

func (c Config) withDefaults() Config {
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Millisecond
	}
	return c
}

// entry is one accepted Submit: the unit of queueing.
type entry struct {
	journal.AcceptRecord
	n int // row-changes (delta size: insertions plus deletions)
	// sealed is the change set Submit accepted, sealed; nil for an accept
	// requeued from the journal, whose rows tryBatch seals.
	sealed *warehouse.Delta
}

func newEntry(a journal.AcceptRecord) entry {
	e := entry{AcceptRecord: a}
	for _, vb := range a.Batch {
		for _, rc := range vb.Rows {
			e.n += int(max(rc.Count, -rc.Count))
		}
	}
	return e
}

// batch is one cut micro-batch riding toward a window.
type batch struct {
	id       int
	entries  []entry
	n        int           // row-changes
	accepts  journal.Range // the entries' accept records
	accepted time.Time     // oldest entry's accept time: the staleness clock
	staged   bool
}

const stalenessRingSize = 2048

// Ingester is the continuous ingestion stage. Create with New, feed with
// Submit from any number of producers, drive with Run, stop with Close.
type Ingester struct {
	cfg Config

	// runMu serializes batch cut+execute (the window loop and Close's drain).
	runMu sync.Mutex

	mu      sync.Mutex
	notFull *sync.Cond
	queue   []entry
	depth   int // queued row-changes
	batchID int
	pending *batch // cut but not yet committed (survives failed windows)
	closed  bool
	running bool
	err     error // terminal (crash-class) error; sticky

	accepted        int64
	acceptedBatches int64
	shed            int64
	batches         int64
	windows         int64
	deadlineAborts  int64
	degraded        int64
	requeued        int
	totalWork       int64
	totalChanges    int64
	stale           [stalenessRingSize]int64
	staleN          int
	staleIdx        int

	wake chan struct{}
}

// New creates an ingester. Over a journal it resumes: the accepts no
// committed window installs are requeued, in the order they were accepted.
func New(cfg Config) (*Ingester, error) {
	if cfg.Warehouse == nil {
		return nil, errors.New("ingest: Config.Warehouse is required")
	}
	if cfg.SLO < 0 {
		return nil, fmt.Errorf("ingest: SLO %s is negative", cfg.SLO)
	}
	if _, err := warehouse.ParsePlanner(string(cfg.Planner)); err != nil {
		return nil, fmt.Errorf("ingest: %w: %w", warehouse.ErrBadWindowOptions, err)
	}
	if _, err := warehouse.ParseMode(string(cfg.Mode)); err != nil {
		return nil, fmt.Errorf("ingest: %w: %w", warehouse.ErrBadWindowOptions, err)
	}
	if cfg.JournalPath != "" {
		// Its accepts are not read: starting over it would lose them.
		buf, err := os.ReadFile(cfg.JournalPath)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if _, _, n, _ := journal.DecodeFrame(buf); n > 0 {
			return nil, fmt.Errorf("ingest: %s is an ingest journal, written before accepted changes were records of the window journal: its accepts are not read — drain it with the build that wrote it, or remove it", cfg.JournalPath)
		}
	}
	cfg = cfg.withDefaults()
	in := &Ingester{cfg: cfg, wake: make(chan struct{}, 1)}
	in.notFull = sync.NewCond(&in.mu)
	if cfg.Journal != nil {
		if cfg.Journal.NeedsRecovery() {
			// Its recovery installs the accepts it names.
			return nil, errors.New("ingest: the journal ends in an in-flight window: restore the warehouse from it (Warehouse.Restore) first")
		}
		for _, a := range cfg.Journal.Pending() {
			e := newEntry(a)
			in.queue = append(in.queue, e)
			in.depth += e.n
			in.accepted += int64(e.n)
			in.acceptedBatches++
		}
		in.requeued = len(in.queue)
	}
	return in, nil
}

// kick wakes the window loop without blocking.
func (in *Ingester) kick() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// failLocked records the terminal error (first one wins) and stops intake.
// Crash-class faults land here: the ingester behaves like a killed process —
// nothing further is written, Run returns, producers are refused.
func (in *Ingester) failLocked(err error) {
	if in.err == nil {
		in.err = err
	}
	in.closed = true
	in.notFull.Broadcast()
}

func (in *Ingester) fail(err error) {
	in.mu.Lock()
	in.failLocked(err)
	in.mu.Unlock()
	in.kick()
}

// highWaterMark is the depth at which a Submit runs a window before the tick:
// the queue half full.
func (in *Ingester) highWaterMark() int {
	return max(1, in.cfg.QueueLimit/2)
}

// Submit accepts one change set for a base view. It blocks while the queue
// is full (up to BlockTimeout), then sheds with ErrIngestOverloaded. On nil
// error the changes are accepted: queued for the next micro-batch and, when
// journaled, durable — they will reach a committed window exactly once, crash
// or no crash. Safe for concurrent producers, whose accepts share flushes.
// Submit seals a copy of d, which the queue keeps until a window stages it,
// so a producer that keeps d keeps no decoded tuples.
func (in *Ingester) Submit(view string, d *warehouse.Delta) error {
	if d == nil {
		return nil
	}
	// The window merges the sealed change sets of a view, which needs one
	// schema, and stages them, which only a base view takes.
	if s, err := in.cfg.Warehouse.ViewSchema(view); err != nil {
		return fmt.Errorf("ingest: %w", err)
	} else if !s.Equal(d.Schema()) {
		return fmt.Errorf("ingest: change set over [%s] for %q, whose schema is [%s]", d.Schema(), view, s)
	}
	if g, _ := in.cfg.Warehouse.Graph(); !g.IsBase(view) { // Graph's error is always nil
		return fmt.Errorf("ingest: change set for derived view %q: only base views take changes", view)
	}
	d = d.Clone()
	if err := d.Seal(); err != nil || d.IsEmpty() {
		return err
	}
	e := newEntry(journal.AcceptRecord{Batch: []journal.ViewBatch{{View: view, Rows: recovery.RowsOf(d)}}})
	e.sealed = d
	n := e.n
	in.mu.Lock()
	if in.err != nil {
		err := in.err
		in.mu.Unlock()
		return err
	}
	if in.closed {
		in.mu.Unlock()
		return ErrIngestClosed
	}
	if err := in.cfg.Faults.Hit(pointAccept); err != nil {
		if faults.IsCrash(err) {
			in.failLocked(err)
		}
		in.mu.Unlock()
		return err
	}
	if n > in.cfg.QueueLimit {
		in.shed += int64(n)
		in.mu.Unlock()
		return fmt.Errorf("%w: change set of %d exceeds queue limit %d", ErrIngestOverloaded, n, in.cfg.QueueLimit)
	}
	var deadline time.Time
	for in.depth+n > in.cfg.QueueLimit {
		if in.closed {
			in.mu.Unlock()
			if in.err != nil {
				return in.err
			}
			return ErrIngestClosed
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(in.cfg.BlockTimeout)
		}
		if !now.Before(deadline) {
			in.shed += int64(n)
			in.mu.Unlock()
			in.kick() // drain pressure even as we shed
			return ErrIngestOverloaded
		}
		in.kick() // space appears only when the window loop drains
		t := time.AfterFunc(deadline.Sub(now), func() {
			in.mu.Lock()
			in.notFull.Broadcast()
			in.mu.Unlock()
		})
		in.notFull.Wait()
		t.Stop()
	}
	// The accept is numbered and appended to the journal. An append that
	// fails may have left part of a frame, behind which the journal appends
	// nothing more: the ingester stops as a killed process does, and the
	// restart that reopens the journal cuts the frame off.
	e.UnixNano = time.Now().UnixNano()
	var end int64
	err := in.cfg.Faults.Hit(pointJournal)
	if err == nil && in.cfg.Journal != nil {
		if e.AcceptRecord, end, err = in.cfg.Journal.Accept(e.AcceptRecord); err != nil {
			err = fmt.Errorf("ingest: %w", err)
			in.failLocked(err)
		}
	}
	if err != nil {
		if faults.IsCrash(err) {
			in.failLocked(err)
		}
		in.mu.Unlock()
		return err
	}
	in.queue = append(in.queue, e)
	in.depth += n
	in.accepted += int64(n)
	in.acceptedBatches++
	urgent := in.depth >= in.highWaterMark()
	in.mu.Unlock()
	if urgent {
		in.kick()
	}
	// The accept is queued before it is durable: a window that names it
	// commits only behind its begin record's flush, which covers it. Submit
	// returns once a flush has, one shared by every producer waiting beside it.
	if in.cfg.Journal != nil {
		if err := in.cfg.Journal.Sync(end); err != nil {
			err = fmt.Errorf("ingest: %w", err)
			in.fail(err)
			return err
		}
	}
	return nil
}

// Run drives the window loop until ctx is cancelled, Close drains the
// queue, or a crash-class fault fires (the injected-crash analogue of
// process death: Run returns the fault with the journals left exactly as a
// killed process would leave them).
func (in *Ingester) Run(ctx context.Context) error {
	in.mu.Lock()
	if in.running {
		in.mu.Unlock()
		return errors.New("ingest: Run called twice")
	}
	in.running = true
	in.mu.Unlock()
	defer func() {
		in.mu.Lock()
		in.running = false
		in.mu.Unlock()
	}()
	timer := time.NewTimer(in.cfg.Tick)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-in.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
		timer.Reset(in.cfg.Tick)
		if err := in.drain(ctx, false); err != nil {
			return err
		}
		in.mu.Lock()
		terr := in.err
		done := in.closed && in.pending == nil && len(in.queue) == 0
		in.mu.Unlock()
		if terr != nil {
			return terr
		}
		if done {
			return nil
		}
	}
}

// drain cuts and runs batches. Without flush it stops once the queue is not
// full (let changes accumulate); with flush it keeps going until the queue is
// empty. A batch a transient failure left pending stops it too: the next tick
// retries. Returns only terminal errors.
func (in *Ingester) drain(ctx context.Context, flush bool) error {
	in.runMu.Lock()
	defer in.runMu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil // shutdown: Run's select or Close reports it
		}
		in.mu.Lock()
		b := in.pending
		in.pending = nil
		terr := in.err
		in.mu.Unlock()
		if terr != nil {
			return terr
		}
		if b == nil {
			var err error
			if b, err = in.cut(); err != nil {
				return err
			}
		}
		if b == nil {
			return nil
		}
		if err := in.runBatch(ctx, b); err != nil {
			return err
		}
		in.mu.Lock()
		more := in.pending == nil && (in.depth >= in.cfg.QueueLimit || flush && len(in.queue) > 0)
		in.mu.Unlock()
		if !more {
			return nil
		}
	}
}

// cut detaches the queued entries a window takes: the run of consecutive
// accepts at the head of the queue, up to QueueLimit row-changes, which the
// window's begin record names by its first and last. A failed cut leaves the
// queue as it was: a crash-class fault kills the ingester, a transient one is
// retried on the next tick. Returns (nil, nil) when the queue is empty or the
// failure is retryable.
func (in *Ingester) cut() (*batch, error) {
	in.mu.Lock()
	if len(in.queue) == 0 {
		in.mu.Unlock()
		return nil, nil
	}
	if err := in.cfg.Faults.Hit(pointCut); err != nil {
		if faults.IsCrash(err) {
			in.failLocked(err)
			in.mu.Unlock()
			return nil, err
		}
		in.mu.Unlock()
		return nil, nil
	}
	take, n := 0, 0
	for _, e := range in.queue {
		// The run ends at a gap in the numbers — another writer's accept, or
		// one installed before a restart (unjournaled, all are 0) — or at the
		// limit, which only a queue a restart requeued can exceed.
		if take > 0 && (n+e.n > in.cfg.QueueLimit || e.Seq > in.queue[take-1].Seq+1) {
			break
		}
		take++
		n += e.n
	}
	ents := in.queue[:take:take]
	in.queue = in.queue[take:]
	in.depth -= n
	in.batchID++
	b := &batch{
		id:       in.batchID,
		entries:  ents,
		n:        n,
		accepts:  journal.Range{Lo: ents[0].Seq, Hi: ents[take-1].Seq},
		accepted: time.Unix(0, ents[0].UnixNano),
	}
	in.batches++
	in.notFull.Broadcast()
	in.mu.Unlock()
	return b, nil
}

// runBatch stages the batch and runs windows until one commits. A window
// that blows its deadline runs again with the deadline doubled (progress is
// guaranteed: the staged batch re-runs until it fits). RunWindowOpts's
// retries and ladder are the only retry of a failed window: a transient
// failure that outlives them, or one at staging, leaves the batch pending for
// the next tick, staged as far as it got. Crash-class faults return
// immediately with the journal left in flight.
func (in *Ingester) runBatch(ctx context.Context, b *batch) error {
	in.mu.Lock()
	in.pending = b
	in.mu.Unlock()
	timeout := in.cfg.SLO / 2 // the rest of the SLO absorbs queueing delay
	for {
		if ctx.Err() != nil {
			return nil // b stays pending; Close or restart finishes it
		}
		err := in.tryBatch(ctx, b, timeout)
		switch {
		case err == nil:
			in.mu.Lock()
			in.pending = nil
			in.mu.Unlock()
			return nil
		case faults.IsCrash(err) || in.cfg.Faults.Crashed():
			in.fail(err)
			return err
		case errors.Is(err, warehouse.ErrWindowAborted):
			if ctx.Err() != nil {
				return nil // cancellation, not a blown deadline
			}
			in.mu.Lock()
			in.deadlineAborts++
			in.mu.Unlock()
			timeout *= 2
		case faults.IsTransient(err):
			return nil // b stays pending for the next tick
		default:
			err = fmt.Errorf("ingest: batch %d failed: %w", b.id, err)
			in.fail(err)
			return err
		}
	}
}

// tryBatch is one attempt: stage (once — the staged batch survives failed
// windows), run.
func (in *Ingester) tryBatch(ctx context.Context, b *batch, timeout time.Duration) error {
	w := in.cfg.Warehouse
	if !b.staged {
		if err := in.cfg.Faults.Hit(pointStage); err != nil {
			return err
		}
		// The entries' sealed runs merge two at a time, the merged run going
		// to the back of the line, into one delta a view: a row is sorted and
		// decoded once, and copied once for each doubling of its run.
		runs := make(map[string][]*warehouse.Delta)
		for _, e := range b.entries {
			for _, vb := range e.Batch {
				d := e.sealed
				if d == nil {
					var err error
					if d, err = w.NewDelta(vb.View); err != nil {
						return err
					}
					for _, rc := range vb.Rows {
						d.AddEncoded(rc.Key, rc.Count)
					}
					if err := d.Seal(); err != nil {
						return err
					}
				}
				runs[vb.View] = append(runs[vb.View], d)
			}
		}
		for view, ds := range runs {
			for ; len(ds) > 1; ds = ds[2:] {
				d := ds[0].Clone()
				d.Merge(ds[1])
				ds = append(ds, d)
			}
			if err := w.StageDelta(view, ds[0]); err != nil {
				return err
			}
		}
		b.staged = true
	}
	rep, err := w.RunWindowOpts(warehouse.WindowOptions{
		Planner: in.cfg.Planner,
		Mode:    in.cfg.Mode,
		Workers: in.cfg.Workers,
		Journal: in.cfg.Journal,
		Timeout: timeout,
		Context: ctx,
		Faults:  in.cfg.Faults,
		Accepts: b.accepts,
	})
	if err != nil {
		return err
	}
	in.observe(b, &rep)
	if in.cfg.OnWindow != nil {
		in.cfg.OnWindow(rep)
	}
	return nil
}

// observe folds a committed window into the stats and its report.
func (in *Ingester) observe(b *batch, rep *warehouse.WindowReport) {
	staleness := time.Since(b.accepted)
	work := rep.Report.TotalWork()
	in.mu.Lock()
	defer in.mu.Unlock()
	in.windows++
	in.totalWork += work
	in.totalChanges += int64(b.n)
	if rep.FellBackSequential || rep.Recomputed {
		in.degraded++
	}
	in.stale[in.staleIdx] = int64(staleness)
	in.staleIdx = (in.staleIdx + 1) % stalenessRingSize
	if in.staleN < stalenessRingSize {
		in.staleN++
	}
	rep.Ingest = &warehouse.IngestInfo{
		Batch:    b.id,
		Changes:  b.n,
		Accepted: b.accepted,
		// The prediction is the estimate of the plan that ran.
		PredictedWork: int64(rep.Plan.EstimatedWork),
		QueueDepth:    in.depth,
		Shed:          in.shed,
		StalenessNS:   int64(staleness),
	}
}

// Close quiesces the ingester: stop accepting, then flush the staged
// remainder through final windows while ctx allows, a tick apart after a
// transient failure. If ctx expires first the rest stays in the journal — a
// restart requeues it — and the error says so.
// Producers blocked in Submit are released with ErrIngestClosed.
func (in *Ingester) Close(ctx context.Context) error {
	in.mu.Lock()
	in.closed = true
	in.notFull.Broadcast()
	in.mu.Unlock()
	in.kick()
	if ctx == nil {
		ctx = context.Background()
	}
	for retry := false; ; retry = true {
		in.mu.Lock()
		terr := in.err
		remaining := in.depth
		empty := in.pending == nil && len(in.queue) == 0
		in.mu.Unlock()
		if terr != nil {
			return terr
		}
		if empty {
			return nil
		}
		if retry {
			// The last drain left work behind: a transient failure.
			t := time.NewTimer(in.cfg.Tick)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("ingest: drain interrupted with %d change(s) still queued (journaled; a restart requeues them): %w", remaining, cerr)
		}
		if err := in.drain(ctx, true); err != nil {
			return err
		}
	}
}

// Stats is a snapshot of the ingester's counters and freshness picture,
// shaped for the /ingest endpoint.
type Stats struct {
	Running bool `json:"running"`
	// Accepted counts accepted row-changes; AcceptedBatches the Submits.
	Accepted        int64 `json:"accepted_changes"`
	AcceptedBatches int64 `json:"accepted_batches"`
	// Shed counts row-changes refused with ErrIngestOverloaded.
	Shed int64 `json:"shed_changes"`
	// QueueDepth/QueueLimit describe the bounded queue (row-changes).
	QueueDepth int `json:"queue_depth"`
	QueueLimit int `json:"queue_limit"`
	// Batches counts cut batches; Windows committed windows.
	Batches int64 `json:"batches"`
	Windows int64 `json:"windows"`
	// DeadlineAborts counts windows that blew their deadline (each doubles
	// the next one's); Degraded windows that fell back (sequential/recompute).
	DeadlineAborts int64 `json:"deadline_aborts"`
	Degraded       int64 `json:"degraded_windows"`
	// Requeued is how many accepts this incarnation resumed from the journal.
	Requeued int `json:"requeued"`
	// StalenessP50MS/P99MS are percentiles over recent windows' staleness
	// (commit time minus oldest accepted change); SLOMS the configured SLO.
	StalenessP50MS float64 `json:"staleness_p50_ms"`
	StalenessP99MS float64 `json:"staleness_p99_ms"`
	SLOMS          float64 `json:"slo_ms"`
	// WorkPerChange is cumulative window work per accepted row-change — the
	// amortized per-tuple maintenance cost.
	WorkPerChange float64 `json:"work_per_change"`
	// Err carries the terminal error, if the ingester died.
	Err string `json:"error,omitempty"`
}

// Stats snapshots the ingester.
func (in *Ingester) Stats() Stats {
	in.mu.Lock()
	s := Stats{
		Running:         in.running,
		Accepted:        in.accepted,
		AcceptedBatches: in.acceptedBatches,
		Shed:            in.shed,
		QueueDepth:      in.depth,
		QueueLimit:      in.cfg.QueueLimit,
		Batches:         in.batches,
		Windows:         in.windows,
		DeadlineAborts:  in.deadlineAborts,
		Degraded:        in.degraded,
		Requeued:        in.requeued,
		SLOMS:           float64(in.cfg.SLO) / float64(time.Millisecond),
	}
	if in.totalChanges > 0 {
		s.WorkPerChange = float64(in.totalWork) / float64(in.totalChanges)
	}
	samples := make([]int64, in.staleN)
	copy(samples, in.stale[:in.staleN])
	if in.err != nil {
		s.Err = in.err.Error()
	}
	in.mu.Unlock()
	if len(samples) > 0 {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		s.StalenessP50MS = float64(percentile(samples, 0.50)) / float64(time.Millisecond)
		s.StalenessP99MS = float64(percentile(samples, 0.99)) / float64(time.Millisecond)
	}
	return s
}

// percentile reads the p-quantile from sorted samples by nearest rank: the
// smallest sample at least a fraction p of the samples do not exceed.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(p*float64(len(sorted))))-1)]
}
