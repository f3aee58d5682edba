// Package ingest runs a warehouse under a continuous change stream: it
// accumulates source changes in a bounded, crash-safe staging buffer and
// triggers micro-batch update windows adaptively, sizing each batch so the
// predicted window length — the planner's work estimate, calibrated online
// against measured windows (internal/cost.Calibrator) — keeps staleness
// under a configurable SLO while the query server keeps serving.
//
// The paper optimizes one operator-invoked window; this package is the
// production regime around it (cf. Olteanu's IVM survey: amortized per-tuple
// maintenance under bounded staleness). The robustness contract:
//
//   - Backpressure, never unbounded memory: the change queue is bounded in
//     row-changes. As it fills, the ingester first cuts batches early (the
//     high watermark wakes the window loop), then blocks producers up to
//     BlockTimeout, then sheds with ErrIngestOverloaded.
//   - Crash-safe exactly-once handoff: accepted changes and batch cuts are
//     journaled (see journal.go) so a crash anywhere — mid-accept, mid-cut,
//     mid-window — resumes without dropping or double-applying a change.
//   - Graceful degradation: a window that blows its deadline halves the
//     batch target and retries with a doubled deadline; engine failures ride
//     RunWindowOpts's DAG→sequential→recompute ladder; transient faults
//     retry on the shared jittered backoff (internal/retry).
//   - Observability: Stats surfaces p50/p99 staleness, per-tuple work, queue
//     depth, shed count, and the batch-size trajectory; each committed
//     window's report carries warehouse.IngestInfo for Counters().
package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	warehouse "repro"
	"repro/internal/cost"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/retry"
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
// "ingest.journal" once per ingest-journal append, "ingest.cut" once per
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
	// Journal is the window journal batches are committed through. It is
	// what makes the handoff exactly-once: a batch cut for window sequence s
	// is installed iff the journal's committed count reaches s. Nil runs
	// unjournaled windows (no crash safety; benches only).
	Journal *warehouse.Journal
	// JournalPath is the ingest journal file (accept/cut records). Empty
	// disables the ingest journal: accepted changes live only in memory.
	JournalPath string
	// SLO is the p99 staleness target the batch sizer aims for; 0 disables
	// adaptive sizing (the target stays at InitialBatch).
	SLO time.Duration
	// SLOFraction is the fraction of SLO budgeted for a window's execution
	// (the rest absorbs queueing delay); default 0.5.
	SLOFraction float64
	// Planner, Mode, Workers select planning and scheduling for the windows.
	Planner warehouse.PlannerName
	Mode    warehouse.Mode
	Workers int
	// QueueLimit bounds the queue in row-changes; default 4096.
	QueueLimit int
	// HighWater is the queue fraction that triggers an early cut; default 0.5.
	HighWater float64
	// BlockTimeout is how long Submit blocks on a full queue before shedding;
	// 0 sheds immediately.
	BlockTimeout time.Duration
	// MinBatch, MaxBatch, InitialBatch bound and seed the adaptive batch
	// target (row-changes); defaults 16, QueueLimit, 256.
	MinBatch, MaxBatch, InitialBatch int
	// Tick is the maximum batch interval: queued changes never wait longer
	// than this for a window, whatever the target; default 5ms.
	Tick time.Duration
	// Retries and Backoff shape transient-fault retries, both inside
	// RunWindowOpts and around whole batches; defaults 2 and 1ms.
	Retries int
	Backoff time.Duration
	// Faults injects failures at the ingest points and is passed through to
	// the windows.
	Faults *faults.Injector
	// OnWindow, when set, observes each committed window's report (with
	// Ingest populated). Called from the window loop; keep it fast.
	OnWindow func(warehouse.WindowReport)
	// Now replaces time.Now (tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.SLOFraction <= 0 || c.SLOFraction > 1 {
		c.SLOFraction = 0.5
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4096
	}
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = 0.5
	}
	if c.MinBatch <= 0 {
		c.MinBatch = 16
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = c.QueueLimit
	}
	if c.InitialBatch <= 0 {
		c.InitialBatch = 256
	}
	if c.InitialBatch > c.MaxBatch {
		c.InitialBatch = c.MaxBatch
	}
	if c.MinBatch > c.MaxBatch {
		c.MinBatch = c.MaxBatch
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Millisecond
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// batch is one cut micro-batch riding toward a window.
type batch struct {
	id        int
	entries   []entry
	n         int // row-changes
	lo, hi    uint64
	accepted  time.Time // oldest entry's accept time: the staleness clock
	windowSeq int
	target    int // batch target when cut, for the report
	staged    bool
}

const stalenessRingSize = 2048

// Ingester is the continuous ingestion stage. Create with New, feed with
// Submit from any number of producers, drive with Run, stop with Close.
type Ingester struct {
	cfg Config

	// runMu serializes batch cut+execute (the window loop and Close's drain).
	runMu sync.Mutex

	mu        sync.Mutex
	notFull   *sync.Cond
	queue     []entry
	depth     int // queued row-changes
	acceptSeq uint64
	batchID   int
	target    int
	pending   *batch // cut but not yet committed (survives ctx-cancelled windows)
	closed    bool
	running   bool
	err       error // terminal (crash-class) error; sticky

	jf  *os.File // the ingest journal, nil when unjournaled
	log *journal.Appender

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
	traj            []int

	calib cost.Calibrator
	wake  chan struct{}
}

// New creates an ingester. When JournalPath names an existing ingest
// journal, the ingester resumes it: entries not yet installed (per the
// window journal's committed count — restore the warehouse through
// Warehouse.Restore first) are requeued, and a reset record voids the dead
// incarnation's cuts.
func New(cfg Config) (*Ingester, error) {
	if cfg.Warehouse == nil {
		return nil, errors.New("ingest: Config.Warehouse is required")
	}
	cfg = cfg.withDefaults()
	in := &Ingester{cfg: cfg, target: cfg.InitialBatch, wake: make(chan struct{}, 1)}
	in.notFull = sync.NewCond(&in.mu)
	if cfg.JournalPath != "" {
		// The open cuts off a torn tail: what this incarnation appends must
		// follow the last whole record, or no later reader would reach it.
		var v journalView
		f, err := journal.OpenAppend(cfg.JournalPath, v.feed)
		if err != nil {
			return nil, err
		}
		in.jf, in.log = f, journal.NewAppender(f)
		if len(v.entries) > 0 || len(v.cuts) > 0 || v.resets > 0 {
			committed := 0
			if cfg.Journal != nil {
				committed = cfg.Journal.Committed()
			}
			requeue, floor := v.reconcile(committed)
			if err := in.appendSynced(typeReset, encodeReset(resetRecord{installedHi: floor, committed: committed})); err != nil {
				f.Close()
				return nil, fmt.Errorf("ingest: writing reset record: %w", err)
			}
			for _, e := range requeue {
				in.queue = append(in.queue, e)
				in.depth += e.n
				in.accepted += int64(e.n)
				in.acceptedBatches++
			}
			in.requeued = len(requeue)
			if n := len(v.entries); n > 0 {
				in.acceptSeq = v.entries[n-1].seq
			}
			for _, c := range v.cuts {
				if c.batch > in.batchID {
					in.batchID = c.batch
				}
			}
		}
	}
	return in, nil
}

func (in *Ingester) now() time.Time { return in.cfg.Now() }

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

// writeRecordLocked appends one record to the ingest journal and syncs it
// (mu held). The pointJournal fault point fires before the write. A write or
// sync that fails may have left part of a frame, behind which the appender
// appends nothing more: the ingester stops as a killed process does, and the
// restart that reopens the journal cuts the frame off.
func (in *Ingester) writeRecordLocked(typ byte, payload []byte) error {
	if err := in.cfg.Faults.Hit(pointJournal); err != nil {
		return err
	}
	if in.jf == nil {
		return nil
	}
	err := in.appendSynced(typ, payload)
	if err != nil {
		err = fmt.Errorf("ingest: %w", err)
		in.failLocked(err)
	}
	return err
}

// appendSynced is the journal's sync policy: every record is durable before
// the call that wrote it returns.
func (in *Ingester) appendSynced(typ byte, payload []byte) error {
	if err := in.log.Append(typ, payload); err != nil {
		return err
	}
	return in.log.Sync()
}

func (in *Ingester) highWaterMark() int {
	hw := int(in.cfg.HighWater * float64(in.cfg.QueueLimit))
	if hw < 1 {
		hw = 1
	}
	return hw
}

// Submit accepts one change set for a base view. It blocks while the queue
// is full (up to BlockTimeout), then sheds with ErrIngestOverloaded. On nil
// error the changes are accepted: journaled (when configured) and queued for
// the next micro-batch — they will reach a committed window exactly once,
// crash or no crash. Safe for concurrent producers.
func (in *Ingester) Submit(view string, d *warehouse.Delta) error {
	if d == nil || d.IsEmpty() {
		return nil
	}
	rows := journal.RowsOf(d)
	n := changes(rows)
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
		now := in.now()
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
	e := entry{seq: in.acceptSeq + 1, at: in.now().UnixNano(), view: view, rows: rows, n: n}
	if err := in.writeRecordLocked(typeAccept, encodeAccept(e)); err != nil {
		if faults.IsCrash(err) {
			in.failLocked(err)
		}
		in.mu.Unlock()
		return err
	}
	in.acceptSeq = e.seq
	in.queue = append(in.queue, e)
	in.depth += n
	in.accepted += int64(n)
	in.acceptedBatches++
	urgent := in.depth >= in.target || in.depth >= in.highWaterMark()
	in.mu.Unlock()
	if urgent {
		in.kick()
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

// drain cuts and runs batches. Without flush it stops once the queue drops
// below the batch target (let changes accumulate); with flush it keeps
// going until the queue is empty. Returns only terminal errors.
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
		more := in.depth >= in.target || (flush && len(in.queue) > 0)
		in.mu.Unlock()
		if !more {
			return nil
		}
	}
}

// cut detaches up to one batch target of queued entries and journals the
// batch boundary with the window sequence it will run as. A failed cut
// record puts the entries back: un-journaled batches never run. Returns
// (nil, nil) when the queue is empty or the failure is retryable.
func (in *Ingester) cut() (*batch, error) {
	in.mu.Lock()
	if len(in.queue) == 0 {
		in.mu.Unlock()
		return nil, nil
	}
	take, n := 0, 0
	for _, e := range in.queue {
		if take > 0 && n+e.n > in.target {
			break
		}
		take++
		n += e.n
		if n >= in.target {
			break
		}
	}
	ents := in.queue[:take:take]
	in.queue = in.queue[take:]
	in.depth -= n
	in.batchID++
	windowSeq := 0
	if in.cfg.Journal != nil {
		windowSeq = in.cfg.Journal.NextSeq()
	}
	b := &batch{
		id:        in.batchID,
		entries:   ents,
		n:         n,
		lo:        ents[0].seq,
		hi:        ents[take-1].seq,
		accepted:  time.Unix(0, ents[0].at),
		windowSeq: windowSeq,
		target:    in.target,
	}
	cutErr := in.cfg.Faults.Hit(pointCut)
	if cutErr == nil {
		cutErr = in.writeRecordLocked(typeCut, encodeCut(cutRecord{
			batch: b.id, lo: b.lo, hi: b.hi, windowSeq: b.windowSeq, changes: b.n,
		}))
	}
	if cutErr != nil {
		// The boundary never became durable: restore the queue as if the cut
		// had not happened. Crash-class kills the ingester; transient faults
		// just retry on the next tick.
		in.queue = append(append([]entry(nil), ents...), in.queue...)
		in.depth += n
		in.batchID--
		if faults.IsCrash(cutErr) {
			in.failLocked(cutErr)
			in.mu.Unlock()
			return nil, cutErr
		}
		in.mu.Unlock()
		return nil, nil
	}
	in.batches++
	in.notFull.Broadcast()
	in.mu.Unlock()
	return b, nil
}

// runBatch stages the batch and runs windows until one commits. Deadline
// aborts halve the batch target and double the deadline (progress is
// guaranteed: the staged batch re-runs until it fits); transient failures
// retry on the shared jittered backoff; crash-class faults return
// immediately with the journals left in-flight.
func (in *Ingester) runBatch(ctx context.Context, b *batch) error {
	in.mu.Lock()
	in.pending = b
	in.mu.Unlock()
	bo := retry.Backoff{Policy: retry.Policy{Base: in.cfg.Backoff, Max: 250 * time.Millisecond, Jitter: 0.2}}
	transientLeft := in.cfg.Retries
	timeout := in.windowBudget()
	for {
		if ctx.Err() != nil {
			return nil // b stays pending; Close or restart finishes it
		}
		err := in.tryBatch(ctx, b, timeout)
		if err == nil {
			in.mu.Lock()
			in.pending = nil
			in.mu.Unlock()
			return nil
		}
		if faults.IsCrash(err) || in.cfg.Faults.Crashed() {
			in.fail(err)
			return err
		}
		if errors.Is(err, warehouse.ErrWindowAborted) {
			if ctx.Err() != nil {
				return nil // cancellation, not a blown deadline
			}
			in.mu.Lock()
			in.deadlineAborts++
			if in.target > in.cfg.MinBatch {
				in.target /= 2
				if in.target < in.cfg.MinBatch {
					in.target = in.cfg.MinBatch
				}
			}
			in.mu.Unlock()
			timeout *= 2
			continue
		}
		if faults.IsTransient(err) && transientLeft > 0 {
			transientLeft--
			in.sleep(ctx, bo.Next())
			continue
		}
		err = fmt.Errorf("ingest: batch %d failed: %w", b.id, err)
		in.fail(err)
		return err
	}
}

// tryBatch is one attempt: stage (once — the staged batch survives aborted
// windows), run.
func (in *Ingester) tryBatch(ctx context.Context, b *batch, timeout time.Duration) error {
	w := in.cfg.Warehouse
	if !b.staged {
		if err := in.cfg.Faults.Hit(pointStage); err != nil {
			return err
		}
		for _, e := range b.entries {
			d, err := w.NewDelta(e.view)
			if err != nil {
				return err
			}
			for _, rc := range e.rows {
				d.AddEncoded(rc.Key, rc.Count)
			}
			if err := w.StageDelta(e.view, d); err != nil {
				return err
			}
		}
		b.staged = true
	}
	rep, err := w.RunWindowOpts(warehouse.WindowOptions{
		Planner:            in.cfg.Planner,
		Mode:               in.cfg.Mode,
		Workers:            in.cfg.Workers,
		Journal:            in.cfg.Journal,
		Timeout:            timeout,
		Context:            ctx,
		Retries:            in.cfg.Retries,
		Backoff:            in.cfg.Backoff,
		FallbackSequential: true,
		FallbackRecompute:  true,
		Faults:             in.cfg.Faults,
		BatchAccepted:      b.accepted,
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

// windowBudget is the wall-clock slice of the SLO a window may spend.
func (in *Ingester) windowBudget() time.Duration {
	if in.cfg.SLO <= 0 {
		return 0
	}
	return time.Duration(float64(in.cfg.SLO) * in.cfg.SLOFraction)
}

// observe folds a committed window into the stats and the calibration, and
// retargets the batch size from the calibrated time budget.
func (in *Ingester) observe(b *batch, rep *warehouse.WindowReport) {
	now := in.now()
	staleness := now.Sub(b.accepted)
	work := rep.Report.TotalWork()
	// The prediction is the estimate of the plan that ran.
	predicted := int64(rep.Plan.EstimatedWork)
	in.calib.Observe(predicted, work, rep.Report.Elapsed, b.n)
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
	if budget := in.windowBudget(); budget > 0 {
		if nt := in.calib.BatchFor(budget); nt > 0 {
			if nt > 2*in.target {
				nt = 2 * in.target // grow smoothly; shrink freely
			}
			if nt < in.cfg.MinBatch {
				nt = in.cfg.MinBatch
			}
			if nt > in.cfg.MaxBatch {
				nt = in.cfg.MaxBatch
			}
			in.target = nt
		}
	}
	in.traj = append(in.traj, in.target)
	if len(in.traj) > 64 {
		in.traj = in.traj[len(in.traj)-64:]
	}
	rep.Ingest = &warehouse.IngestInfo{
		Batch:         b.id,
		Changes:       b.n,
		Accepted:      b.accepted,
		BatchTarget:   b.target,
		QueueDepth:    in.depth,
		Shed:          in.shed,
		PredictedWork: predicted,
		StalenessNS:   int64(staleness),
	}
}

func (in *Ingester) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Close quiesces the ingester: stop accepting, then flush the staged
// remainder through final windows while ctx allows. If ctx expires first
// the rest stays journaled — a restart requeues it — and the error says so.
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
	var err error
	for {
		in.mu.Lock()
		terr := in.err
		remaining := in.depth
		empty := in.pending == nil && len(in.queue) == 0
		in.mu.Unlock()
		if terr != nil {
			err = terr
			break
		}
		if empty {
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			err = fmt.Errorf("ingest: drain interrupted with %d change(s) still queued (journaled; a restart requeues them): %w", remaining, cerr)
			break
		}
		if derr := in.drain(ctx, true); derr != nil {
			err = derr
			break
		}
	}
	in.runMu.Lock()
	in.mu.Lock()
	if in.jf != nil {
		if cerr := in.jf.Close(); cerr != nil && err == nil {
			err = cerr
		}
		in.jf = nil
	}
	in.mu.Unlock()
	in.runMu.Unlock()
	return err
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
	// BatchTarget is the current adaptive batch size target.
	BatchTarget int `json:"batch_target"`
	// Batches counts cut batches; Windows committed windows.
	Batches int64 `json:"batches"`
	Windows int64 `json:"windows"`
	// DeadlineAborts counts windows that blew their deadline (each halves
	// the target); Degraded windows that fell back (sequential/recompute).
	DeadlineAborts int64 `json:"deadline_aborts"`
	Degraded       int64 `json:"degraded_windows"`
	// Requeued is how many journaled entries this incarnation resumed.
	Requeued int `json:"requeued"`
	// StalenessP50MS/P99MS are percentiles over recent windows' staleness
	// (commit time minus oldest accepted change); SLOMS the configured SLO.
	StalenessP50MS float64 `json:"staleness_p50_ms"`
	StalenessP99MS float64 `json:"staleness_p99_ms"`
	SLOMS          float64 `json:"slo_ms"`
	// WorkPerChange is cumulative window work per accepted row-change — the
	// amortized per-tuple maintenance cost.
	WorkPerChange float64 `json:"work_per_change"`
	// Calibration is the cost model's online calibration state.
	Calibration cost.CalibrationStats `json:"calibration"`
	// BatchTrajectory is the batch target after each recent window (up to 64).
	BatchTrajectory []int `json:"batch_trajectory"`
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
		BatchTarget:     in.target,
		Batches:         in.batches,
		Windows:         in.windows,
		DeadlineAborts:  in.deadlineAborts,
		Degraded:        in.degraded,
		Requeued:        in.requeued,
		SLOMS:           float64(in.cfg.SLO) / float64(time.Millisecond),
		BatchTrajectory: append([]int(nil), in.traj...),
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
	s.Calibration = in.calib.Stats()
	return s
}

// percentile reads the p-quantile from sorted samples (nearest-rank).
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
