package recovery

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/journal/journaltest"
	"repro/internal/relation"
	"repro/internal/strategy"
)

// newWindowDisk is the journal file of the power-loss tests: a disk that
// already holds prior, flushed, and whose next flush — the begin record's of
// the window about to run — does not return, when inj is set, before that
// window has started a step (inj's count of the "step" point). A window whose
// Begin waited for its flush would never start one, and hang.
func newWindowDisk(t testing.TB, prior []byte, inj *faults.Injector) *journaltest.Disk {
	t.Helper()
	d := &journaltest.Disk{}
	if inj != nil {
		d.BeforeSync = func(nth int) error { // Sync 0 is the one below
			for nth == 1 && inj.Hits("step") == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			return nil
		}
	}
	d.Write(prior)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestBeginDoesNotWaitForItsFlush runs one journaled window whose begin
// flush cannot return until its first step has started: it deadlocks, and
// times out, if Begin ever blocks on the disk again. The window's begin flush
// is its only one, and its commit record reaches the disk only once that
// flush has returned.
func TestBeginDoesNotWaitForItsFlush(t *testing.T) {
	w, s := newFixture(t)
	inj := faults.New(1)
	disk := newWindowDisk(t, nil, inj)
	done := make(chan error, 1)
	go func() {
		_, err := Run(w, s, Options{Journal: journal.NewWriter(disk), Seq: 1, Mode: exec.ModeSequential, Validate: true, Faults: inj})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the window is waiting for its begin record's flush before running its first step")
	}
	if now := disk.Now(); disk.Syncs() != 2 || now.Durable >= now.Written {
		t.Fatalf("after the window: %d syncs (want the preload's and the begin record's), %+v (want the commit record written, not flushed)", disk.Syncs(), now)
	}
	closeFollowsDurableBegin(t, disk, 0)
}

// TestCommittedWindowMakesOneSync is the window's one wait for the disk: a
// journaled window returns while the flush after its begin record's is held,
// so it does not wait for its commit record to be flushed, and every
// committed window makes exactly one sync — its begin record's, which carries
// the commit record of the window before it.
func TestCommittedWindowMakesOneSync(t *testing.T) {
	w, s := newFixture(t)
	disk := &journaltest.Disk{}
	release := disk.Hold(1, nil) // Sync 0 is the first window's begin record's
	defer release()
	jw := journal.NewWriter(disk)
	run := func(seq int) error {
		_, err := Run(w, s, Options{Journal: jw, Seq: seq, Mode: exec.ModeSequential, Validate: true})
		return err
	}
	done := make(chan error, 1)
	go func() { done <- run(1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the window waits for a flush after its begin record's, which can only be its commit record's")
	}
	if now := disk.Now(); disk.Syncs() != 1 || now.Durable >= now.Written {
		t.Fatalf("after the first window: %d syncs, %+v; want 1 and the commit record not flushed", disk.Syncs(), now)
	}
	closeFollowsDurableBegin(t, disk, 0)
	release()
	// Run leaves w as it was, so every window is the same one again.
	for seq := 2; seq <= 5; seq++ {
		base := disk.Now().Written
		if err := run(seq); err != nil {
			t.Fatal(err)
		}
		if disk.Syncs() != seq {
			t.Fatalf("after %d committed windows: %d syncs", seq, disk.Syncs())
		}
		closeFollowsDurableBegin(t, disk, base)
	}
}

// writeCounter is a journal sink that counts the writes it is handed.
type writeCounter struct{ writes int }

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// TestCommittedWindowMakesThreeWrites: a committed operator's window hands
// the journal three writes — its batch's accept, its begin record and its
// commit record — however many steps its strategy has, because the steps'
// records ride the commit record.
func TestCommittedWindowMakesThreeWrites(t *testing.T) {
	bases := core.New(core.Options{})
	for _, v := range []struct {
		name   string
		schema relation.Schema
	}{{"R", schemaR}, {"S", schemaS}} {
		if err := bases.DefineBase(v.name, v.schema); err != nil {
			t.Fatal(err)
		}
	}
	dr, ds := delta.New(schemaR), delta.New(schemaS)
	dr.Add(intRow(1, 10), 1)
	ds.Add(intRow(10, 100), 1)
	two := stageBatch(t, bases, dr, ds)
	w, full := newFixture(t)
	for _, c := range []struct {
		w *core.Warehouse
		s strategy.Strategy
	}{{bases, two}, {w, full}} {
		sink := &writeCounter{}
		res, err := Run(c.w, c.s, Options{Journal: journal.NewWriter(sink), Seq: 1, Mode: exec.ModeDAG, Workers: 2, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Report.Steps) != len(c.s) || sink.writes != 3 {
			t.Errorf("a window of %d steps (%s) ran %d and made %d writes, want 3", len(c.s), c.s, len(res.Report.Steps), sink.writes)
		}
	}
	if len(two) != 2 || len(full) <= 2 {
		t.Fatalf("strategies of %d and %d steps", len(two), len(full))
	}
}

// closeFollowsDurableBegin checks the ordering the reachable power-loss
// images rest on, over every moment the disk recorded: no byte of the
// closing record of the window journaled from base on is on the disk before
// that window's begin record is durable.
func closeFollowsDurableBegin(t testing.TB, disk *journaltest.Disk, base int) {
	t.Helper()
	whole := disk.Bytes()
	_, beginEnd, closeStart, _, _ := windowFrames(t, whole, base)
	for _, m := range disk.Moments() {
		if m.Written > closeStart && m.Durable < beginEnd {
			t.Fatalf("closing record written at %+v with the begin record (ends at %d) not durable", m, beginEnd)
		}
	}
}

// windowFrames locates the one window journaled from base to the end of
// whole: ends holds the end offset of every frame of the journal, beginEnd
// where the window's begin record ends and closeStart where its closing
// record starts — len(whole) when closed is not set. committed tells a
// commit record from an abort.
func windowFrames(t testing.TB, whole []byte, base int) (ends []int, beginEnd, closeStart int, closed, committed bool) {
	t.Helper()
	ends = frameEnds(t, whole)
	first, start := 0, 0 // index in ends of the begin frame, and where it starts
	for ends[first] <= base || whole[start] != journal.TypeBegin {
		start = ends[first]
		first++
	}
	beginEnd, closeStart = ends[first], len(whole)
	lastStart := ends[len(ends)-2]
	if typ := whole[lastStart]; typ == journal.TypeCommit || typ == journal.TypeAbort {
		closeStart, closed, committed = lastStart, true, typ == journal.TypeCommit
	}
	return ends, beginEnd, closeStart, closed, committed
}

// frameEnds returns the end offset of every frame of a whole journal.
func frameEnds(t testing.TB, buf []byte) []int {
	t.Helper()
	var ends []int
	n, err := journal.Scan(buf, func(_ byte, _ []byte, end int) error {
		ends = append(ends, end)
		return nil
	})
	if err != nil || n != len(buf) {
		t.Fatalf("journal does not parse at offset %d of %d: %v", n, len(buf), err)
	}
	return ends
}

// reopened is what a restart finds and makes of a journal image.
type reopened struct {
	found journal.Log       // the image as read
	final journal.Log       // after recovery appended to it
	steps map[int]uint64    // the last window's journaled install digests
	state map[string]string // the warehouse's views
}

// reopen restarts from a journal image the way the facade does: the torn
// tail is cut, the committed windows are replayed onto the initial state,
// and an in-flight window is recovered, appending to the image.
func reopen(t testing.TB, image []byte) reopened {
	t.Helper()
	found, err := journal.ReadLog(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	intact := bytes.NewBuffer(image[:found.Size:found.Size])
	w := buildPristine(t)
	for i := range found.Windows {
		if wl := &found.Windows[i]; wl.Committed() {
			res, err := Replay(w, wl, Options{})
			if err != nil {
				t.Fatalf("replaying committed window %d: %v", wl.Begin.Seq, err)
			}
			w = res.Core
		}
	}
	if found.InFlight() != nil {
		res, err := Recover(w, found.InFlight(), Options{Journal: journal.NewWriter(intact)})
		if err != nil {
			t.Fatalf("recovering the in-flight window: %v", err)
		}
		w = res.Core
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	out := reopened{found: found, final: readLog(t, intact), state: bags(t, w), steps: map[int]uint64{}}
	if n := len(out.final.Windows); n > 0 && out.final.Windows[n-1].Committed() {
		for i, sr := range out.final.Windows[n-1].Commit.Steps {
			out.steps[i] = sr.Digest
		}
	}
	return out
}

// TestPowerLossDifferential is the journal's durability statement, checked
// against a disk that knows what each flush made durable. A window runs on
// top of a journal holding one committed window, in every scheduling mode and
// to every outcome — commit, abort at each step, crash at each step — and
// power is lost at every moment the disk recorded (after each write, after
// each flush, and with the begin record's flush held open past the first
// step), leaving the flushed bytes and any prefix of the rest, cut at and
// inside every frame, or all of it with a hole through a frame not flushed.
// Whatever is left, a restart lands on exactly one of two states: the
// pre-window one — no begin record, or a torn or holed one, or a durable
// abort — or, through Recover where the window is found in flight, the
// uninterrupted window's, with the same install digests journaled.
func TestPowerLossDifferential(t *testing.T) {
	// Window 1, committed: the prior content of every disk below.
	w0, s1 := newFixture(t)
	var first bytes.Buffer
	res, err := Run(w0, s1, Options{Journal: journal.NewWriter(&first), Seq: 1, Mode: exec.ModeSequential, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	pre := res.Core
	preState := bags(t, pre)
	preFirst := bags(t, w0)
	base := first.Len()

	// Window 2, the one that loses power.
	dr := delta.New(schemaR)
	dr.Add(intRow(5, 10), 1)
	dr.Add(intRow(2, 10), -1)
	ds := delta.New(schemaS)
	ds.Add(intRow(20, 400), 1)
	s := stageBatch(t, pre, dr, ds)

	prior := readLog(t, bytes.NewBuffer(first.Bytes()))
	var ref bytes.Buffer
	ref.Write(first.Bytes())
	res, err = Run(pre, s, Options{Journal: prior.Writer(&ref), Seq: 2, Mode: exec.ModeSequential, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	postState := bags(t, res.Core)
	postSteps := stepDigestsOf(t, &ref)
	if fmt.Sprint(preState) == fmt.Sprint(postState) {
		t.Fatal("the second window changes nothing")
	}

	type outcome struct {
		name string
		arm  func(*Options)
	}
	outcomes := []outcome{{name: "commit"}}
	for k := 1; k <= len(s); k++ {
		k := k
		outcomes = append(outcomes,
			outcome{fmt.Sprintf("abort@%d", k), func(o *Options) {
				o.Faults = faults.New(1)
				o.Faults.FailAt("step", k)
				o.Context = interruptAt{Context: context.Background(), inj: o.Faults, k: k}
			}},
			outcome{fmt.Sprintf("crash@%d", k), func(o *Options) {
				o.Faults = faults.New(1)
				o.Faults.CrashAt("step", k)
			}})
	}
	modes := []struct {
		mode    exec.Mode
		workers int
	}{{exec.ModeSequential, 0}, {exec.ModeStaged, 0}, {exec.ModeDAG, 2}}

	for _, m := range modes {
		for _, oc := range outcomes {
			t.Run(fmt.Sprintf("%s/%s", m.mode, oc.name), func(t *testing.T) {
				opts := Options{Seq: 2, Mode: m.mode, Workers: m.workers, Validate: true, Faults: faults.New(1)}
				if oc.arm != nil {
					oc.arm(&opts)
				}
				disk := newWindowDisk(t, first.Bytes(), opts.Faults)
				opts.Journal = prior.Writer(disk)
				if _, err := Run(pre, s, opts); (err == nil) != (oc.arm == nil) {
					t.Fatalf("the window returned %v", err)
				}
				powerLossCases(t, disk, base, preState, postState, postSteps)
			})
			// The same window journaled behind window 1 as it returned, on
			// one disk: window 1's commit record is written and, unless
			// Commit syncs it, not flushed.
			t.Run(fmt.Sprintf("%s/%s/behind-unflushed-commit", m.mode, oc.name), func(t *testing.T) {
				disk := &journaltest.Disk{}
				jw := journal.NewWriter(disk)
				if _, err := Run(w0, s1, Options{Journal: jw, Seq: 1, Mode: exec.ModeSequential, Validate: true}); err != nil {
					t.Fatal(err)
				}
				now := disk.Now()
				unflushed := now.Durable < now.Written
				returned := len(disk.Moments()) - 1
				opts := Options{Journal: jw, Seq: 2, Mode: m.mode, Workers: m.workers, Validate: true}
				if oc.arm != nil {
					oc.arm(&opts)
				}
				if _, err := Run(pre, s, opts); (err == nil) != (oc.arm == nil) {
					t.Fatalf("the window returned %v", err)
				}
				if lost := powerLossBehindReturned(t, disk, returned, preFirst, preState, postState); unflushed && !lost {
					t.Fatal("window 1's commit record was not flushed when it returned, and no image lost it")
				}
			})
		}
	}
}

// powerLossBehindReturned loses power at every moment of a disk from moment
// returned on, when window 1 had returned, its commit record perhaps not yet
// flushed, and window 2 was then journaled behind it; it cuts each image at
// what was flushed, at every frame boundary and inside every frame of the
// rest. A restart lands on the state after window 1 or after window 2, never
// on the one before window 1: window 1 returned as recoverable, and is
// recovered where its commit record was lost. It reports whether any image
// lost it.
func powerLossBehindReturned(t *testing.T, disk *journaltest.Disk, returned int, preFirst, postFirst, postSecond map[string]string) (lostCommit bool) {
	whole := disk.Bytes()
	ends := frameEnds(t, whole)
	for _, m := range disk.Moments()[returned:] {
		cuts := []int{m.Durable}
		for i, start := 0, 0; i < len(ends); start, i = ends[i], i+1 {
			cuts = append(cuts, start+(ends[i]-start)/2, ends[i])
		}
		for _, cut := range cuts {
			if cut < m.Durable || cut > m.Written {
				continue
			}
			what := fmt.Sprintf("power lost at %+v, cut at %d", m, cut)
			got := reopen(t, disk.PowerLoss(m, cut-m.Durable))
			committed := got.final.CommittedCount()
			if got.final.InFlight() != nil || committed < 1 || committed > 2 {
				t.Fatalf("%s: %d windows committed after the restart, in flight=%v", what, committed, got.final.InFlight() != nil)
			}
			switch state := fmt.Sprint(got.state); {
			case state == fmt.Sprint(preFirst):
				t.Fatalf("%s: restarted before window 1, which had returned", what)
			case committed == 1:
				sameBags(t, what, postFirst, got.state)
			default:
				sameBags(t, what, postSecond, got.state)
			}
			if wl := got.found.InFlight(); wl != nil && wl.Begin.Seq == 1 {
				lostCommit = true
			}
		}
	}
	return lostCommit
}

// interruptAt is a window's context cancelled at the window's k-th step
// boundary, where a transient fault (armed beside it) fails the step: the
// attempt aborts, and no rung of the ladder follows a cancellation, so the
// abort closes the window.
type interruptAt struct {
	context.Context
	inj *faults.Injector
	k   int
}

func (c interruptAt) Err() error {
	if c.inj.Hits("step") >= c.k {
		return context.Canceled
	}
	return nil
}

// powerLossCases loses power at every recorded moment of a disk that held
// base flushed bytes before one window was journaled to it, and checks what
// a restart makes of each image.
func powerLossCases(t *testing.T, disk *journaltest.Disk, base int, preState, postState map[string]string, postSteps map[int]uint64) {
	whole := disk.Bytes()
	// The window's frames start at base with its own accept; the begin
	// record behind it ends at beginEnd.
	ends, beginEnd, closeStart, closed, committed := windowFrames(t, whole, base)
	closeFollowsDurableBegin(t, disk, base)

	// check restarts from image, which holds the begin record whole when
	// begun is set and holds the window's every frame as written when intact
	// is.
	check := func(what string, image []byte, begun, intact bool) {
		t.Helper()
		got := reopen(t, image)
		switch {
		case !begun:
			// No begin record, or a torn or holed one: cut off with whatever
			// follows it, and the window never happened. Its own accept, if
			// whole, is void: no ingester requeues it.
			if got.found.Size >= int64(beginEnd) || got.found.InFlight() != nil || len(got.final.Windows) != 1 || len(got.found.Pending()) != 0 {
				t.Fatalf("%s: read as %d windows over %d bytes, in flight=%v, %d accepts pending; want window 1 alone, nothing pending, within %d",
					what, len(got.found.Windows), got.found.Size, got.found.InFlight() != nil, len(got.found.Pending()), beginEnd)
			}
			sameBags(t, what, preState, got.state)
		case intact && closed && !committed:
			if got.found.InFlight() != nil || got.final.CommittedCount() != 1 || len(got.final.Windows) != 2 {
				t.Fatalf("%s: a durable abort reads as in flight=%v, %d committed", what, got.found.InFlight() != nil, got.final.CommittedCount())
			}
			sameBags(t, what, preState, got.state)
		default:
			// Committed, or found in flight and recovered: the uninterrupted
			// window either way.
			if inFlight := got.found.InFlight() != nil; inFlight == (intact && committed) {
				t.Fatalf("%s: in flight=%v", what, inFlight)
			}
			if got.final.InFlight() != nil || got.final.CommittedCount() != 2 {
				t.Fatalf("%s: journal not completed: %d committed", what, got.final.CommittedCount())
			}
			sameBags(t, what, postState, got.state)
			if len(got.steps) != len(postSteps) {
				t.Fatalf("%s: %d steps journaled, the uninterrupted window %d", what, len(got.steps), len(postSteps))
			}
			for idx, d := range postSteps {
				if got.steps[idx] != d {
					t.Fatalf("%s: step %d installed-delta digest %016x, uninterrupted %016x", what, idx, got.steps[idx], d)
				}
			}
		}
	}

	tried := map[int]bool{}
	holedClose := false
	for _, m := range disk.Moments() {
		if m.Written <= base {
			continue
		}
		// Cuts: what is flushed, then every frame boundary and a point
		// inside every frame of what is written and not flushed.
		cuts := []int{m.Durable}
		for i, start := 0, 0; i < len(ends); start, i = ends[i], i+1 {
			if ends[i] > base {
				cuts = append(cuts, start+(ends[i]-start)/2, ends[i])
			}
		}
		for _, cut := range cuts {
			if cut < m.Durable || cut > m.Written || tried[cut] {
				continue
			}
			tried[cut] = true
			image := disk.PowerLoss(m, cut-m.Durable)
			if len(image) != cut {
				t.Fatalf("PowerLoss(%+v, %d) left %d bytes", m, cut-m.Durable, len(image))
			}
			check(fmt.Sprintf("cut at %d of %d", cut, len(whole)), image, cut >= beginEnd, cut == len(whole))
		}
		// A flush in progress may have written the later sectors of a frame,
		// and whatever is behind it, and not an earlier one: a holed frame —
		// the begin record, or the closing record — followed by the rest.
		for i, start := 0, 0; i < len(ends); start, i = ends[i], i+1 {
			if start < base || start < m.Durable || ends[i] > m.Written {
				continue
			}
			image := disk.PowerLoss(m, m.Written)
			mid := start + (ends[i]-start)/2
			for j := mid; j < mid+8; j++ {
				image[j] ^= 0xff
			}
			check(fmt.Sprintf("frame %d of %d holed, %d bytes written", start, len(whole), m.Written), image, start >= beginEnd, false)
			holedClose = holedClose || start == closeStart
		}
	}
	if closed && !holedClose {
		t.Fatal("no moment left the closing record written and not flushed")
	}
	if !tried[beginEnd] || !tried[base] || !tried[len(whole)] {
		t.Fatalf("cuts tried: %v; want %d (no begin), %d (begin whole) and %d (everything) among them", tried, base, beginEnd, len(whole))
	}
}

// BenchmarkJournaledWindow is a journaled window against a disk whose every
// flush takes 300 µs, beside the same window unjournaled: the difference is
// what the journal costs a window. The window makes one flush (syncs/op), its
// begin record's, which runs beside the steps, and its commit record rides
// the next window's; it hands the disk three writes (writes/op): its batch's
// accept, its begin record and its commit record. Once the steps take as long
// as a flush does, what is left is encoding and writing the records.
func BenchmarkJournaledWindow(b *testing.B) {
	const flush = 300 * time.Microsecond
	w, s := benchFixture(b)
	for _, journaled := range []bool{false, true} {
		name := "unjournaled"
		if journaled {
			name = "journaled"
		}
		b.Run(name, func(b *testing.B) {
			disk := &journaltest.Disk{BeforeSync: func(int) error { time.Sleep(flush); return nil }}
			opts := Options{Mode: exec.ModeSequential}
			if journaled {
				opts.Journal = journal.NewWriter(disk)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seq = i + 1
				if _, err := Run(w, s, opts); err != nil {
					b.Fatal(err)
				}
			}
			syncs := disk.Syncs()
			b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
			b.ReportMetric(float64(len(disk.Moments())-syncs)/float64(b.N), "writes/op") // a moment per write and per sync
		})
	}
}

// benchFixture is the package fixture's catalog over enough rows, and with a
// large enough batch staged, for a window's steps to outlast a disk flush.
func benchFixture(b *testing.B) (*core.Warehouse, strategy.Strategy) {
	const rRows, sRows, batch = 2000, 50, 100
	r := make([]relation.Tuple, rRows)
	for i := range r {
		r[i] = intRow(int64(i), int64(i%sRows))
	}
	s := make([]relation.Tuple, sRows)
	for i := range s {
		s[i] = intRow(int64(i), int64(100*i))
	}
	w := loadCatalog(b, r, s)
	dr := delta.New(schemaR)
	for i := 0; i < batch; i++ {
		dr.Add(intRow(int64(rRows+i), int64(i%sRows)), 1)
		dr.Add(r[i*(rRows/batch)], -1)
	}
	ds := delta.New(schemaS)
	ds.Add(intRow(0, 7), 1)
	return w, stageBatch(b, w, dr, ds)
}
