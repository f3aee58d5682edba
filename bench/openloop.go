package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	warehouse "repro"
	"repro/internal/ingest"
)

// openLoop is the traffic of an ingester-driven workload. Its stream phase is
// a fixed timetable: a Submit of submitSize changes is due every
// submitSize/rate seconds for streamShare of -seconds, whatever the system is
// doing. Its drain phase is fixed work: drainSegments times, a fixed number of
// changes goes in as fast as blocking admission allows and the clock stops
// when the last one can be read.
type openLoop struct {
	rate       float64 // producer row-changes per second
	submitSize int     // row-changes per Submit
	slo, tick  time.Duration
	queueLimit int // the ingester's queue bound in row-changes, and so its largest batch

	streamShare   float64
	drainSegments int
	drainPerSec   float64 // row-changes of one drain segment per second of -seconds
	// probeWindows operator windows open a traced run: they carry the layer
	// probes, which need a staged batch the ingester never leaves lying.
	probeWindows int
}

// hostClockWindows is how many of the stream's windows pass between two
// readings of the host's speed. The reading is taken in the ingester's
// OnWindow hook, on the goroutine that has just run the window and after its
// commit; at ten windows a second that is two readings a second, each over
// well before the next tick.
const hostClockWindows = 5

// ingestRun is the state of the ingester-driven phases.
type ingestRun struct {
	committed atomic.Int64 // row-changes in committed windows
	streaming atomic.Bool  // the stream phase is on: its windows are the sampled ones
	mu        sync.Mutex
	reports   []ingestWindow
	submits   []submitRec
	submitUS  []float64
	lagMaxMS  float64
	blockedMS float64
	// Touched only from the ingester's goroutine, in OnWindow: whether the
	// window now running is a traced one, its reserved span, and the journal
	// counters when it began.
	traced  bool
	span    int
	journal journalCounters
}

// ingestWindow is one window the ingester cut, as its OnWindow hook saw it.
type ingestWindow struct {
	at      time.Time // just after the commit
	epoch   uint64
	rep     warehouse.WindowReport
	traced  bool
	span    int
	journal journalCounters // what the window wrote; the times only if traced
}

type submitRec struct {
	due   time.Time
	maxID int64
}

// onWindow records a committed window and, in a traced run, flips the
// instrumentation for the next one: windows alternate between traced (journal
// writes and syncs timed and recorded as spans under the window's span) and
// bare, so that their medians can be compared.
func (r *runner) onWindow(ir *ingestRun, rep warehouse.WindowReport) {
	iw := ingestWindow{at: time.Now(), epoch: r.fx.w.Epoch(), rep: rep, traced: ir.traced, span: ir.span}
	if r.jfile != nil {
		c := r.jfile.counters()
		iw.journal, ir.journal = c.minus(ir.journal), c
		ir.traced, ir.span = !ir.traced, 0
		if ir.traced {
			ir.span = r.tr.reserve(0, "ingest.window", 0, iw.at)
		}
		r.jfile.trace(ir.traced, ir.span, 0)
	}
	ir.mu.Lock()
	ir.reports = append(ir.reports, iw)
	n := len(ir.reports)
	ir.mu.Unlock()
	if ir.streaming.Load() && n%hostClockWindows == 0 {
		r.hostMain.sample()
	}
	if rep.Ingest != nil {
		ir.committed.Add(int64(rep.Ingest.Changes))
	}
}

// openLoop runs an ingester-driven workload: the stream, then the drain.
func (r *runner) openLoop() error {
	w, ol := r.fx.w, r.cfg.open
	if r.tr != nil {
		r.operatorWindows(ol.probeWindows, func(_ int, _ warehouse.WindowReport, s windowSample) { r.lay.probed(s) })
	}
	ir := &ingestRun{}
	r.ing = ir
	if r.jfile != nil {
		ir.journal = r.jfile.counters()
	}
	ing, err := ingest.New(ingest.Config{
		Warehouse:    w,
		Journal:      r.j,
		JournalPath:  filepath.Join(r.dir, "ingest.journal"),
		SLO:          ol.slo,
		Planner:      r.cfg.eng.planner,
		Mode:         r.cfg.eng.mode,
		Workers:      r.cfg.eng.workers,
		QueueLimit:   ol.queueLimit,
		Tick:         ol.tick,
		BlockTimeout: time.Minute, // blocking admission: a shed submit is a failure
		OnWindow:     func(rep warehouse.WindowReport) { r.onWindow(ir, rep) },
	})
	if err != nil {
		return fmt.Errorf("ingester: %w", err)
	}
	runErr := make(chan error, 1)
	ictx, stopIngest := context.WithCancel(context.Background())
	defer stopIngest()
	go func() { runErr <- ing.Run(ictx) }()
	wm := newWatcher(w, r.fx.watermark)
	go wm.run()

	submits := int(ol.streamShare * r.seconds * ol.rate / float64(ol.submitSize))
	if r.smoke {
		submits = 50
	}
	ir.streaming.Store(true)
	r.produce(submits, ir, ing)
	ir.streaming.Store(false)
	r.mainEnd = time.Now()
	r.drainChangesPerS = r.drain(ir, ing)

	cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ing.Close(cctx); err != nil {
		r.fail("ingester close: %v", err)
	}
	if err := <-runErr; err != nil && !errors.Is(err, context.Canceled) {
		r.fail("ingester run: %v", err)
	}
	wm.stop()
	if r.jfile != nil {
		r.jfile.trace(false, 0, 0)
	}
	r.lay.ingestStats = ing.Stats()
	r.windows += len(ir.reports)
	r.ingestSamples(ir, wm)
	return nil
}

// produce is the open-loop producer: n submits on the timetable.
func (r *runner) produce(n int, ir *ingestRun, ing *ingest.Ingester) {
	ol := r.cfg.open
	sched := schedule{
		start: time.Now(),
		every: time.Duration(float64(ol.submitSize) / ol.rate * float64(time.Second)),
	}
	for k := 0; k < n; k++ {
		due, late := sched.await(k)
		if l := ms(late); l > ir.lagMaxMS {
			ir.lagMaxMS = l
		}
		r.submit(ir, ing, r.fx.gen.next(ol.submitSize), due, true)
	}
}

// drain is saturation. Each segment's changes are generated before its clock
// starts, go in as fast as blocking admission lets them, and the clock stops
// when the last one can be read. It returns the median segment's rate.
func (r *runner) drain(ir *ingestRun, ing *ingest.Ingester) float64 {
	ol := r.cfg.open
	perSegment := int(ol.drainPerSec * r.seconds)
	if r.smoke {
		perSegment = 30 * ol.submitSize
	}
	var rates []float64
	for seg := 0; seg < ol.drainSegments; seg++ {
		// An eighth of the queue per Submit: few enough submits that the
		// windows and not the producer's per-submit journal record set the
		// pace, and a whole number of them fills the queue.
		var batches []batch
		sent := 0
		for sent < perSegment {
			b := r.fx.gen.next(ol.queueLimit / 8)
			batches = append(batches, b)
			sent += b.changes
		}
		t0 := time.Now()
		for _, b := range batches {
			r.submit(ir, ing, b, time.Now(), false)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for ir.committed.Load() < ing.Stats().Accepted && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
		_, _, qerr := r.fx.w.QueryEpoch(r.fx.firstQuery)
		t1 := time.Now()
		r.ops += sent
		if lost := ing.Stats().Accepted - ir.committed.Load(); lost > 0 || qerr != nil {
			r.failN(int(lost), "drain: %d accepted change(s) never became readable: %v", lost, qerr)
		}
		rates = append(rates, float64(sent)/t1.Sub(t0).Seconds())
		r.tr.add(0, "drain", seg, t0, t1, map[string]any{"changes": sent})
	}
	return median(rates)
}

// submit hands one generated batch to the ingester, view by view.
func (r *runner) submit(ir *ingestRun, ing *ingest.Ingester, b batch, due time.Time, sample bool) {
	t0 := time.Now()
	for _, v := range b.views() {
		if err := ing.Submit(v, b.deltas[v]); err != nil {
			r.failN(int(b.deltas[v].Size()), "submit: %v", err)
		}
	}
	t1 := time.Now()
	if sample {
		r.ops += b.changes
		ir.submitUS = append(ir.submitUS, us(t1.Sub(t0)))
		ir.submits = append(ir.submits, submitRec{due: due, maxID: b.maxID})
		r.tr.add(0, "ingest.submit", len(ir.submits), t0, t1, map[string]any{"changes": b.changes})
	}
	// A Submit that takes milliseconds was blocked on a full queue.
	if d := t1.Sub(t0); d > 2*time.Millisecond {
		ir.blockedMS += ms(d)
	}
}

// ingestSamples turns the stream phase's records into the run's samples. A
// window runs from its start to the first read at its epoch, and an insert is
// stale from its due time until the reader's watermark passes it; the watcher
// supplies both reads.
func (r *runner) ingestSamples(ir *ingestRun, wm *watcher) {
	for k, iw := range ir.reports {
		s := windowSample{traced: iw.traced}
		if in := iw.rep.Ingest; in != nil {
			s.changes = in.Changes
		}
		if iw.traced {
			r.tr.amend(iw.span, k, iw.rep.Started, iw.at, map[string]any{"changes": s.changes})
			r.stepSpans(iw.span, k, iw.rep.Started, iw.rep)
		}
		if iw.at.After(r.mainEnd) {
			continue // a drain window: saturation is a different regime
		}
		end := iw.at
		if at, ok := wm.firstAt(iw.epoch); ok && at.After(iw.at) {
			end = at
		}
		s.windowMS = ms(end.Sub(iw.rep.Started))
		j := iw.journal
		s.jWriteMS, s.jSyncMS, s.jSyncs, s.jBytes = ms(j.write), ms(j.sync), j.syncs, j.bytes
		r.windowMS = append(r.windowMS, s.windowMS)
		r.windowAt = append(r.windowAt, end)
		r.intervals = append(r.intervals, interval{iw.rep.Started, iw.at})
		r.lay.window(iw.rep, s)
		r.lay.ingest(iw)
	}
	for _, s := range ir.submits {
		if s.maxID == 0 {
			continue
		}
		at, ok := wm.visibleAt(s.maxID)
		if !ok {
			r.fail("insert %d was never observed by the reader", s.maxID)
			continue
		}
		r.stalenessMS = append(r.stalenessMS, ms(at.Sub(s.due)))
	}
}

// watcher is the reader that dates visibility: it polls the serving epoch
// and, when it moves, reads the watermark.
type watcher struct {
	w    *warehouse.Warehouse
	sql  string
	quit chan struct{}
	done chan struct{}
	obs  []observation
}

type observation struct {
	at    time.Time
	epoch uint64
	mark  int64
}

func newWatcher(w *warehouse.Warehouse, sql string) *watcher {
	return &watcher{w: w, sql: sql, quit: make(chan struct{}), done: make(chan struct{})}
}

func (wm *watcher) run() {
	defer close(wm.done)
	last := wm.w.Epoch()
	for {
		select {
		case <-wm.quit:
			return
		default:
		}
		if e := wm.w.Epoch(); e != last {
			rows, epoch, err := wm.w.QueryEpoch(wm.sql)
			if err == nil && len(rows) == 1 {
				wm.obs = append(wm.obs, observation{at: time.Now(), epoch: epoch, mark: rows[0][0].Int()})
				last = epoch
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (wm *watcher) stop() { close(wm.quit); <-wm.done }

// first returns when the reader made its first observation satisfying
// reached; observations only ever move forward, so a binary search finds it.
func (wm *watcher) first(reached func(observation) bool) (time.Time, bool) {
	k := sort.Search(len(wm.obs), func(i int) bool { return reached(wm.obs[i]) })
	if k == len(wm.obs) {
		return time.Time{}, false
	}
	return wm.obs[k].at, true
}

// visibleAt returns when the reader first saw the watermark at or past id.
func (wm *watcher) visibleAt(id int64) (time.Time, bool) {
	return wm.first(func(o observation) bool { return o.mark >= id })
}

// firstAt returns when the reader first read at or past the epoch.
func (wm *watcher) firstAt(epoch uint64) (time.Time, bool) {
	return wm.first(func(o observation) bool { return o.epoch >= epoch })
}
