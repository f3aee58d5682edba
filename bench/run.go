package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	warehouse "repro"
	"repro/internal/journal"
	"repro/internal/relation"
	"repro/internal/serve"
)

// workloadCfg is one workload: a warehouse, the engine that maintains it and
// the traffic it is put under. A workload is either a closed loop — one
// operator staging a batch, running its window and reading the new epoch
// before staging the next — or, with open set, an open loop of submits
// through the ingester. A dashboard user's query stream runs beside both.
//
// The amount of work is a function of -seconds alone: so many windows, so
// many submits. A faster program finishes the same work sooner; it does not
// get more of it, so counts and memory repeat from run to run.
type workloadCfg struct {
	name, why string
	build     func(seed int64, smoke bool) (*fixture, error)
	eng       engine
	// setupRounds is how many times a run sets up; setup_s is their median.
	// The smaller the warehouse, the more rounds it takes to time.
	setupRounds int
	queryRate   float64 // HTTP queries per second, open loop

	// batchFrac is the operator's batch as a share of the base rows.
	batchFrac float64
	// warmup windows run before the sampled ones.
	warmup int
	// windowsPerSec × -seconds windows are sampled (half of that in a traced
	// run, whose windows each carry probes, a follower and crash copies).
	windowsPerSec float64
	// prefix is the number of leading windows the exact counts and the state
	// digest are taken over; every run, traced or not, completes them.
	prefix int
	// crashEvery makes a traced run crash every n-th batch on a side copy at
	// a seeded step and recover it from the journal file; 0 never crashes.
	crashEvery int
	// planSweeps adds the planner and cost-model sweeps to the traced run.
	planSweeps bool

	open *openLoop
}

// windows is how many windows a closed loop samples.
func (c *workloadCfg) windows(seconds float64, trace bool) int {
	n := int(math.Round(c.windowsPerSec * seconds))
	if trace {
		n /= 2
	}
	if n < c.prefix-c.warmup {
		n = c.prefix - c.warmup
	}
	return n
}

// runner holds one run's state and samples.
type runner struct {
	cfg     *workloadCfg
	seed    int64
	seconds float64
	smoke   bool
	dir     string
	tr      *tracer
	rng     *rand.Rand // harness choices: crash steps

	fx       *fixture
	j        *warehouse.Journal
	jfile    *timedFile // traced runs: the journal's file behind a timing wrapper
	follower *warehouse.Warehouse
	shipped  int64 // bytes of the journal file already replayed on the follower

	setupS  []float64
	setupAt []time.Time // when each round ended
	// The reference kernel's readings beside the set-up rounds and beside the
	// sampled windows: how slow the host ran while each was measured.
	hostSetup, hostMain hostClock
	windowMS            []float64
	windowAt            []time.Time // when each sampled window ended
	stalenessMS         []float64
	recoverMS           []float64
	// Row-changes made readable per second with the client never idle: over
	// the closed loop's sampled iterations, and in the median drain segment.
	closedChangesPerS, drainChangesPerS float64

	windows   int // committed through the window journal
	intervals []interval
	mainEnd   time.Time // end of the phase the query samples are taken from

	ops, failed int
	problems    []string

	lay    *layerStats
	qs     *queryStream
	ing    *ingestRun
	prefix prefixCounts
}

type interval struct{ start, end time.Time }

// prefixCounts are exact counts over the first cfg.prefix windows.
type prefixCounts struct {
	operandTuples, terms, syncs, examined int64
	// digest is the state digest after the prefix: two engines given the
	// same seed must agree on it.
	digest uint64
}

// fail counts one failed operation and keeps the first few messages.
func (r *runner) fail(format string, args ...any) { r.failN(1, format, args...) }

func (r *runner) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// timedFile stands between the journal and its file in a traced run. It
// always counts bytes and syncs; while timing is on it also times every
// Write and Sync and records them as spans of the window being run. Windows
// alternate between the two, and the difference between their medians is
// what the instrumentation costs a window.
type timedFile struct {
	f      *os.File
	tr     *tracer
	mu     sync.Mutex
	total  journalCounters
	timing bool
	// parent and seq attribute the spans to the window being run.
	parent, seq int
}

func (t *timedFile) Write(p []byte) (int, error) {
	t.mu.Lock()
	timing, parent, seq := t.timing, t.parent, t.seq
	t.mu.Unlock()
	if !timing {
		n, err := t.f.Write(p)
		t.mu.Lock()
		t.total.bytes += int64(n)
		t.mu.Unlock()
		return n, err
	}
	t0 := time.Now()
	n, err := t.f.Write(p)
	t1 := time.Now()
	t.mu.Lock()
	t.total.write += t1.Sub(t0)
	t.total.bytes += int64(n)
	t.mu.Unlock()
	t.tr.add(parent, "journal.write", seq, t0, t1, nil)
	return n, err
}

func (t *timedFile) Sync() error {
	t.mu.Lock()
	timing, parent, seq := t.timing, t.parent, t.seq
	t.mu.Unlock()
	if !timing {
		err := t.f.Sync()
		t.mu.Lock()
		t.total.syncs++
		t.mu.Unlock()
		return err
	}
	t0 := time.Now()
	err := t.f.Sync()
	t1 := time.Now()
	t.mu.Lock()
	t.total.sync += t1.Sub(t0)
	t.total.syncs++
	t.mu.Unlock()
	t.tr.add(parent, "journal.sync", seq, t0, t1, nil)
	return err
}

// trace turns timing on for the window whose span is parent, or off.
func (t *timedFile) trace(on bool, parent, seq int) {
	t.mu.Lock()
	t.timing, t.parent, t.seq = on, parent, seq
	t.mu.Unlock()
}

// journalCounters is a reading of the timing wrapper's totals.
type journalCounters struct {
	write, sync  time.Duration
	syncs, bytes int64
}

func (a journalCounters) minus(b journalCounters) journalCounters {
	return journalCounters{a.write - b.write, a.sync - b.sync, a.syncs - b.syncs, a.bytes - b.bytes}
}

func (t *timedFile) counters() journalCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// setup builds the fixture and opens the journal; it is what setup_s times.
func (r *runner) setup(n int) error {
	fx, err := r.cfg.build(r.seed, r.smoke)
	if err != nil {
		return err
	}
	r.closeJournal()
	if r.tr != nil {
		f, err := os.OpenFile(r.journalPath(n), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		r.jfile = &timedFile{f: f, tr: r.tr}
		r.j = warehouse.NewJournal(r.jfile)
	} else {
		if r.j, err = warehouse.OpenJournal(r.journalPath(n)); err != nil {
			return err
		}
	}
	r.fx = fx
	return nil
}

// closeJournal closes the journal and, in a traced run, the file behind it;
// closing twice is harmless.
func (r *runner) closeJournal() {
	if r.j != nil {
		r.j.Close()
	}
	if r.jfile != nil {
		r.jfile.f.Close()
	}
}

func (r *runner) journalPath(n int) string {
	return filepath.Join(r.dir, fmt.Sprintf("window-%d.journal", n))
}

func (r *runner) run() error {
	for i := 0; i < r.cfg.setupRounds; i++ {
		// Collect the previous round's warehouse first, so that no round
		// pays for its predecessor's garbage.
		r.fx = nil
		runtime.GC()
		t0 := time.Now()
		if err := r.setup(i); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		r.setupAt = append(r.setupAt, time.Now())
		r.hostSetup.sample()
	}
	defer r.closeJournal()
	if r.tr != nil {
		r.follower = r.fx.w.Clone()
	}
	w := r.fx.w

	sv := serve.New(w, serve.Config{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: sv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	qctx, stopQueries := context.WithCancel(context.Background())
	r.qs = newQueryStream("http://"+ln.Addr().String(), r.fx.queries, r.cfg.queryRate, r.seed, r.tr)
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() { defer qwg.Done(); r.qs.run(qctx) }()

	if r.cfg.open != nil {
		err = r.openLoop()
	} else {
		r.closedLoop()
	}

	r.lay.serverStats = sv.Stats()
	stopQueries()
	qwg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	<-served
	_ = sv.Close(ctx)
	if err != nil {
		return err
	}
	r.verify()
	return nil
}

// stage hands a batch to the warehouse, view by view in sorted order.
func stage(w *warehouse.Warehouse, b batch) error {
	for _, v := range b.views() {
		if err := w.StageDelta(v, b.deltas[v]); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) windowOpts(j *warehouse.Journal) warehouse.WindowOptions {
	return warehouse.WindowOptions{
		Planner: r.cfg.eng.planner,
		Mode:    r.cfg.eng.mode,
		Workers: r.cfg.eng.workers,
		Journal: j,
	}
}

// operatorBatch is the closed loop's batch size in row-changes.
func (r *runner) operatorBatch() int {
	n := int(r.cfg.batchFrac * float64(r.fx.baseRows))
	if n < 8 {
		n = 8
	}
	return n
}

// closedLoop is the operator's loop: the warm-up windows, then a fixed
// number of sampled ones.
func (r *runner) closedLoop() {
	n := r.cfg.windows(r.seconds, r.tr != nil)
	var busy time.Duration
	installed := 0
	r.operatorWindows(r.cfg.warmup+n, func(i int, rep warehouse.WindowReport, s windowSample) {
		if i < r.cfg.warmup {
			r.lay.probed(s)
			return
		}
		r.windowMS = append(r.windowMS, s.windowMS)
		r.windowAt = append(r.windowAt, time.Now())
		r.hostMain.sample()
		busy += time.Duration((s.stageMS + s.windowMS) * float64(time.Millisecond))
		installed += s.changes
		r.lay.window(rep, s)
	})
	r.mainEnd = time.Now()
	if busy > 0 {
		r.closedChangesPerS = float64(installed) / busy.Seconds()
	}
}

// operatorWindows runs n operator windows back to back and hands each
// committed one to sample. In a traced run every crashEvery-th batch is first
// crashed and recovered on a copy, and odd windows carry the probes, the
// spans and the journal timing while even ones run bare.
func (r *runner) operatorWindows(n int, sample func(i int, rep warehouse.WindowReport, s windowSample)) {
	steps := 0
	for i := 0; i < n; i++ {
		b := r.fx.gen.next(r.operatorBatch())
		var recovered uint64
		if every := r.cfg.crashEvery; r.tr != nil && every > 0 && i%every == every-1 && steps > 0 {
			recovered = r.crashAndRecover(i, b, steps)
		}
		rep, s, ok := r.operatorWindow(i, b, r.tr != nil && i%2 == 1)
		if !ok {
			continue
		}
		steps = len(rep.Report.Steps)
		if recovered != 0 {
			r.ops++
			if got := r.fx.w.StateDigest(); got != recovered {
				r.fail("window %d: recovered copy digests %016x, the uninterrupted window %016x", i, recovered, got)
			}
		}
		sample(i, rep, s)
		if i < r.cfg.prefix {
			r.prefix.operandTuples += rep.Report.CompWork
			r.prefix.syncs += s.jSyncs
			r.prefix.examined += int64(s.probes.examined)
			for _, st := range rep.Report.Steps {
				r.prefix.terms += int64(st.Terms)
			}
		}
		if i == r.cfg.prefix-1 {
			r.prefix.digest = r.fx.w.StateDigest()
		}
	}
}

// operatorWindow stages one batch, runs its window and reads the new epoch.
// The window sample runs from RunWindowOpts entry — planning included,
// staging excluded — to the first query answered at the new epoch. A traced
// window's probes repeat the layers' public calls on the staged state
// between staging and the window, outside both clocks.
func (r *runner) operatorWindow(i int, b batch, traced bool) (warehouse.WindowReport, windowSample, bool) {
	w := r.fx.w
	var tr *tracer
	if traced {
		tr = r.tr
	}
	s := windowSample{changes: b.changes, traced: traced}
	before := w.Epoch()
	t0 := time.Now()
	root := tr.reserve(0, "window", i, t0)
	err := stage(w, b)
	t1 := time.Now()
	r.ops++
	if err != nil {
		r.fail("window %d: staging: %v", i, err)
		return warehouse.WindowReport{}, s, false
	}
	tr.add(root, "stage", i, t0, t1, map[string]any{"changes": b.changes})
	if traced {
		s.probes = r.probe(root, i)
	}
	var j0 journalCounters
	if r.jfile != nil {
		j0 = r.jfile.counters()
	}
	tw := time.Now()
	runSpan := tr.reserve(root, "window.run", i, tw)
	if traced {
		r.jfile.trace(true, runSpan, i)
	}
	rep, err := w.RunWindowOpts(r.windowOpts(r.j))
	t2 := time.Now()
	if traced {
		r.jfile.trace(false, 0, 0)
	}
	if err != nil {
		r.fail("window %d: %v", i, err)
		return rep, s, false
	}
	_, epoch, qerr := w.QueryEpoch(r.fx.firstQuery)
	t3 := time.Now()
	if qerr != nil || epoch != before+1 {
		r.fail("window %d: first query at epoch %d (want %d): %v", i, epoch, before+1, qerr)
		return rep, s, false
	}
	r.windows++
	tr.finish(runSpan, t2, map[string]any{"work": rep.Report.TotalWork(), "planner": string(rep.Planner)})
	tr.add(root, "first_query", i, t2, t3, nil)
	tr.finish(root, t3, nil)
	if traced {
		r.stepSpans(runSpan, i, tw, rep)
	}
	s.stageMS, s.windowMS, s.firstQueryUS = ms(t1.Sub(t0)), ms(t3.Sub(tw)), us(t3.Sub(t2))
	if r.jfile != nil {
		d := r.jfile.counters().minus(j0)
		s.jWriteMS, s.jSyncMS, s.jSyncs, s.jBytes = ms(d.write), ms(d.sync), d.syncs, d.bytes
	}
	r.intervals = append(r.intervals, interval{tw, t3})
	if r.follower != nil {
		r.replay(i)
	}
	return rep, s, true
}

// crashAndRecover runs the batch on a copy with a crash injected at a seeded
// step, then does what a restarted process does: reopen the journal file,
// recover the in-flight window on the pre-window state, and answer a query.
// It returns the recovered copy's state digest, which the uninterrupted
// window on the live warehouse must reproduce.
func (r *runner) crashAndRecover(i int, b batch, steps int) uint64 {
	r.ops++
	pre := r.fx.w.Clone()
	victim := pre.Clone()
	path := filepath.Join(r.dir, fmt.Sprintf("crash-%d.journal", i))
	defer os.Remove(path)
	defer os.RemoveAll(path + ".spill")
	j, err := warehouse.OpenJournal(path)
	if err != nil {
		r.fail("crash %d: %v", i, err)
		return 0
	}
	if err := stage(victim, b); err != nil {
		j.Close()
		r.fail("crash %d: staging: %v", i, err)
		return 0
	}
	inj := warehouse.NewFaultInjector(r.seed)
	inj.CrashAt("step", 1+r.rng.Intn(steps))
	opts := r.windowOpts(j)
	opts.Faults = inj
	_, err = victim.RunWindowOpts(opts)
	j.Close()
	if err == nil || !inj.Crashed() {
		r.fail("crash %d: the injected crash did not fire: %v", i, err)
		return 0
	}

	t0 := time.Now()
	j2, err := warehouse.OpenJournal(path)
	if err != nil {
		r.fail("recover %d: %v", i, err)
		return 0
	}
	defer j2.Close()
	t1 := time.Now()
	before := pre.Epoch()
	_, err = pre.Recover(j2)
	t2 := time.Now()
	if err != nil {
		r.fail("recover %d: %v", i, err)
		return 0
	}
	_, epoch, err := pre.QueryEpoch(r.fx.firstQuery)
	t3 := time.Now()
	if err != nil || epoch != before+1 || j2.Committed() != 1 || j2.NeedsRecovery() {
		r.fail("recover %d: epoch %d (want %d), committed %d: %v", i, epoch, before+1, j2.Committed(), err)
		return 0
	}
	r.recoverMS = append(r.recoverMS, ms(t3.Sub(t0)))
	r.lay.recoverMS = append(r.lay.recoverMS, ms(t2.Sub(t1)))
	id := r.tr.add(0, "recover", i, t0, t3, nil)
	r.tr.add(id, "journal.open", i, t0, t1, nil)
	r.tr.add(id, "recovery.recover", i, t1, t2, nil)
	r.tr.add(id, "first_query", i, t2, t3, nil)
	return pre.StateDigest()
}

// replay ships the follower what the journal file has gained since the last
// call and applies every committed window in it, as a replica would.
func (r *runner) replay(seq int) {
	f, err := os.Open(r.jfile.f.Name())
	if err != nil {
		r.fail("follower: %v", err)
		return
	}
	chunk, err := io.ReadAll(io.NewSectionReader(f, r.shipped, math.MaxInt64-r.shipped))
	f.Close()
	if err != nil {
		r.fail("follower: reading the journal file: %v", err)
		return
	}
	t0 := time.Now()
	lg, err := journal.ReadLog(bytes.NewReader(chunk))
	t1 := time.Now()
	if err != nil || lg.Truncated {
		r.fail("follower: reading shipped journal: truncated=%v err=%v", lg.Truncated, err)
		return
	}
	r.shipped += int64(len(chunk))
	r.lay.shipBytes += int64(len(chunk))
	id := r.tr.add(0, "replay", seq, t0, t0, nil)
	r.tr.add(id, "journal.readlog", seq, t0, t1, nil)
	for k := range lg.Windows {
		if !lg.Windows[k].Committed() {
			continue
		}
		a0 := time.Now()
		_, err := r.follower.ApplyWindow(&lg.Windows[k])
		a1 := time.Now()
		if err != nil {
			r.fail("follower: applying window: %v", err)
			return
		}
		r.lay.replayMS = append(r.lay.replayMS, ms(a1.Sub(a0)))
		r.tr.add(id, "replicate.apply", seq, a0, a1, nil)
	}
	r.tr.finish(id, time.Now(), map[string]any{"bytes": len(chunk)})
}

// verify checks the run's outputs: views equal to recomputation, base views
// equal to the generator's mirror, the journal file complete, the follower
// in step.
func (r *runner) verify() {
	w := r.fx.w
	r.ops++
	if err := w.Verify(); err != nil {
		r.fail("verify: %v", err)
	}
	for view, rows := range r.fx.gen.mirror() {
		r.ops++
		got, err := w.Rows(view)
		if err != nil {
			r.fail("verify %s: %v", view, err)
			continue
		}
		if !sameBag(got, rows) {
			r.fail("verify %s: %d row(s) in the warehouse do not match the %d the generator holds", view, len(got), len(rows))
		}
	}
	r.ops++
	if p := w.Pending(); len(p) > 0 {
		r.fail("verify: changes still pending on %v", p)
	}
	if r.follower != nil {
		r.ops++
		r.replay(-1)
		if a, b := r.follower.StateDigest(), w.StateDigest(); a != b {
			r.fail("follower digests %016x, leader %016x", a, b)
		}
	}
	// The journal on disk, read back the way a restart would.
	r.ops++
	r.closeJournal()
	t0 := time.Now()
	j, err := warehouse.OpenJournal(r.journalPath(r.cfg.setupRounds - 1))
	r.lay.journalOpenMS = ms(time.Since(t0))
	if err != nil {
		r.fail("reopening the journal: %v", err)
		return
	}
	if j.Committed() != r.windows || j.NeedsRecovery() {
		r.fail("journal file holds %d committed window(s), the run committed %d (needs recovery: %v)",
			j.Committed(), r.windows, j.NeedsRecovery())
	}
	j.Close()
}

// sameBag reports whether the warehouse rows equal the mirror rows as bags.
func sameBag(got []warehouse.CountedRow, want []relation.Tuple) bool {
	bag := make(map[string]int64, len(want))
	for _, t := range want {
		bag[t.Encode()]++
	}
	for _, g := range got {
		k := g.Tuple.Encode()
		bag[k] -= g.Count
		if bag[k] == 0 {
			delete(bag, k)
		}
	}
	return len(bag) == 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
