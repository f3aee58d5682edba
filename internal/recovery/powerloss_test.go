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

// windowDisk is the journal file of the power-loss tests: a disk that
// already holds prior, flushed, and whose next flush — the begin record's of
// the window about to run — is, when held, not allowed to return before that
// window's first step record has been written. A window whose Begin waited
// for its flush would never write one, and hang.
type windowDisk struct {
	*journaltest.Disk
	release func()
}

func newWindowDisk(t testing.TB, prior []byte, held bool) *windowDisk {
	t.Helper()
	d := &windowDisk{Disk: &journaltest.Disk{}, release: func() {}}
	if held {
		d.release = d.Disk.Hold(1, nil) // Sync 0 is the one below
	}
	d.Disk.Write(prior)
	if err := d.Disk.Sync(); err != nil {
		t.Fatal(err)
	}
	return d
}

// Write releases the held flush from inside the OnStep that journals the
// window's first completed step.
func (d *windowDisk) Write(p []byte) (int, error) {
	n, err := d.Disk.Write(p)
	if len(p) > 0 && p[0] == journal.TypeStep {
		d.release()
	}
	return n, err
}

// TestBeginDoesNotWaitForItsFlush runs one journaled window whose begin
// flush cannot return until its first step has been journaled: it deadlocks,
// and times out, if Begin ever blocks on the disk again.
func TestBeginDoesNotWaitForItsFlush(t *testing.T) {
	w, s := newFixture(t)
	disk := newWindowDisk(t, nil, true)
	done := make(chan error, 1)
	go func() {
		_, err := Run(w, s, Options{Journal: journal.NewWriter(disk), Seq: 1, Mode: exec.ModeSequential, Validate: true})
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
	if now := disk.Now(); disk.Syncs() != 3 || now.Durable != now.Written {
		t.Fatalf("after the window: %d syncs (want the preload's, begin's, commit's), %+v", disk.Syncs(), now)
	}
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
		res, err := Recover(w, &found, Options{Journal: journal.NewWriter(intact)})
		if err != nil {
			t.Fatalf("recovering the in-flight window: %v", err)
		}
		w = res.Core
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	out := reopened{found: found, final: readLog(t, intact), state: bags(t, w), steps: map[int]uint64{}}
	if n := len(out.final.Windows); n > 0 {
		for _, sr := range out.final.Windows[n-1].Steps {
			out.steps[sr.Index] = sr.Digest
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
// inside every frame. Whatever is left, a restart lands on exactly one of two
// states: the pre-window one — no begin record, or a torn one, or a durable
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
	postSteps := instDigestsOf(t, &ref)
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
				// Only a window that commits is sure to journal a step,
				// which is what lets go of a held flush.
				held := oc.arm == nil
				disk := newWindowDisk(t, first.Bytes(), held)
				opts := Options{Journal: prior.Writer(disk), Seq: 2, Mode: m.mode, Workers: m.workers, Validate: true}
				if oc.arm != nil {
					oc.arm(&opts)
				}
				if _, err := Run(pre, s, opts); (err == nil) != (oc.arm == nil) {
					t.Fatalf("the window returned %v", err)
				}
				powerLossCases(t, disk.Disk, base, held, preState, postState, postSteps)
			})
		}
	}
}

// interruptAt is a window's context cancelled at the window's k-th step
// boundary: the k-th step's record is refused and the attempt aborts, as it
// does at a transient fault there — but no rung of the ladder follows a
// cancellation, so the abort closes the window.
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
func powerLossCases(t *testing.T, disk *journaltest.Disk, base int, held bool, preState, postState map[string]string, postSteps map[int]uint64) {
	whole := disk.Bytes()
	ends := frameEnds(t, whole)
	// The window's frames start at base with its own accept; the begin
	// record behind it ends at beginEnd.
	first, start := 0, 0 // index in ends of the begin frame, and where it starts
	for ends[first] <= base || whole[start] != journal.TypeBegin {
		start = ends[first]
		first++
	}
	beginStart, beginEnd := base, ends[first]
	// Where the closing record starts, if the window got one.
	closeStart, closed := len(whole), false
	lastStart := ends[len(ends)-2]
	if typ := whole[lastStart]; typ == journal.TypeCommit || typ == journal.TypeAbort {
		closeStart, closed = lastStart, true
	}
	committed := closed && whole[lastStart] == journal.TypeCommit

	check := func(what string, image []byte, begun bool) {
		t.Helper()
		got := reopen(t, image)
		switch {
		case !begun:
			// No begin record, or a torn one: cut off with whatever follows
			// it, and the window never happened. Its own accept, if whole,
			// is void: no ingester requeues it.
			if got.found.Size >= int64(beginEnd) || got.found.InFlight() != nil || len(got.final.Windows) != 1 || len(got.found.Pending()) != 0 {
				t.Fatalf("%s: read as %d windows over %d bytes, in flight=%v, %d accepts pending; want window 1 alone, nothing pending, within %d",
					what, len(got.found.Windows), got.found.Size, got.found.InFlight() != nil, len(got.found.Pending()), beginEnd)
			}
			sameBags(t, what, preState, got.state)
		case len(image) == len(whole) && closed && !committed:
			if got.found.InFlight() != nil || got.final.CommittedCount() != 1 || len(got.final.Windows) != 2 {
				t.Fatalf("%s: a durable abort reads as in flight=%v, %d committed", what, got.found.InFlight() != nil, got.final.CommittedCount())
			}
			sameBags(t, what, preState, got.state)
		default:
			// Committed, or found in flight and recovered: the uninterrupted
			// window either way.
			if inFlight := got.found.InFlight() != nil; inFlight == (len(image) == len(whole) && committed) {
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
	holedWithSteps := false
	for _, m := range disk.Moments() {
		if m.Written <= base {
			continue
		}
		// The contract the reachable images rest on: no byte of the closing
		// record is on the disk before the begin record is durable.
		if m.Written > closeStart && m.Durable < beginEnd {
			t.Fatalf("closing record written at %+v with the begin record (ends at %d) not durable", m, beginEnd)
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
			check(fmt.Sprintf("cut at %d of %d", cut, len(whole)), image, cut >= beginEnd)
		}
		// A flush in progress may have written the later sectors of the
		// begin record and the step frames behind it, and not an earlier
		// one: a holed begin frame followed by intact frames.
		if m.Durable < beginEnd && m.Written >= beginEnd {
			image := disk.PowerLoss(m, m.Written)
			mid := beginStart + (beginEnd-beginStart)/2
			for i := mid; i < mid+8; i++ {
				image[i] ^= 0xff
			}
			check(fmt.Sprintf("holed begin record, %d bytes behind it", m.Written-beginEnd), image, false)
			holedWithSteps = holedWithSteps || m.Written > beginEnd
		}
	}
	if held && !holedWithSteps {
		t.Fatal("the held flush saw no step frame written beside it")
	}
	if !tried[beginEnd] || !tried[base] || !tried[len(whole)] {
		t.Fatalf("cuts tried: %v; want %d (no begin), %d (begin whole) and %d (everything) among them", tried, base, beginEnd, len(whole))
	}
}

// BenchmarkJournaledWindow is a journaled window against a disk whose every
// flush takes 300 µs, beside the same window unjournaled: the difference is
// what the journal costs a window, and with the begin record's flush running
// beside the steps it is about one flush — not the two the window makes
// (syncs/op) — once the steps take as long as a flush does.
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
			b.ReportMetric(float64(disk.Syncs())/float64(b.N), "syncs/op")
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
