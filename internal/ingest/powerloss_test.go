package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/journal/journaltest"
	"repro/internal/recovery"
)

// heldDisk is a journal disk whose first flush after hold does not start
// until release is called.
type heldDisk struct {
	*journaltest.Disk
	mu   sync.Mutex
	gate chan struct{}
}

func newHeldDisk() *heldDisk {
	d := &heldDisk{Disk: &journaltest.Disk{}}
	d.BeforeSync = func(int) error {
		d.mu.Lock()
		gate := d.gate
		d.gate = nil
		d.mu.Unlock()
		if gate != nil {
			<-gate
		}
		return nil
	}
	return d
}

func (d *heldDisk) hold() (release func()) {
	gate := make(chan struct{})
	d.mu.Lock()
	d.gate = gate
	d.mu.Unlock()
	return sync.OnceFunc(func() { close(gate) })
}

// frames counts the frames of type typ on the disk.
func (d *heldDisk) frames(typ byte) (n int) {
	_, _ = journal.Scan(d.Bytes(), func(t byte, _ []byte, _ int) error {
		if t == typ {
			n++
		}
		return nil
	})
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestSubmitsShareAFlush is group commit: producers that submit while a
// flush is held share the next one, so k accepts complete on fewer than k
// syncs, and none returns before its accept is durable.
func TestSubmitsShareAFlush(t *testing.T) {
	const k = 8
	disk := newHeldDisk()
	release := disk.hold()
	defer release()
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	wj := warehouse.NewJournal(disk)
	ing, err := New(Config{Warehouse: w, Journal: wj})
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, fixSales, k, 3)
	durableAt := make([]int, k) // the disk's durable bytes when Submit returned
	returned := make(chan int, k)
	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ing.Submit("SALES", sets[g].delta(t, w)); err != nil {
				t.Error(err)
			}
			durableAt[g] = disk.Now().Durable
			returned <- g
		}()
	}
	waitFor(t, "every accept written", func() bool { return disk.frames(journal.TypeAccept) == k })
	select {
	case g := <-returned:
		t.Fatalf("Submit %d returned while the flush was held", g)
	default:
	}
	release()
	wg.Wait()
	if n := disk.Syncs(); n >= k {
		t.Fatalf("%d accepts took %d syncs", k, n)
	}
	var ends []int // of the accept frames, in sequence order
	_, _ = journal.Scan(disk.Bytes(), func(_ byte, _ []byte, end int) error {
		ends = append(ends, end)
		return nil
	})
	seqOf := make(map[string]uint64) // by the accept's first row
	for _, a := range wj.Pending() {
		seqOf[a.Batch[0].Rows[0].Key] = a.Seq
	}
	for g := range sets {
		d := sets[g].delta(t, w)
		d.Seal()
		seq := seqOf[recovery.RowsOf(d)[0].Key]
		if seq == 0 || durableAt[g] < ends[seq-1] {
			t.Fatalf("Submit %d returned with %d bytes durable, its accept %d ends at %d", g, durableAt[g], seq, ends[seq-1])
		}
	}
}

// TestPowerLossOverTheOneLog is the exactly-once statement of the one log,
// checked against a disk that knows what each flush made durable. A
// producer's accepts land before an ingester window, inside it and between it
// and a second window, which commits, aborts at a step and is retried, or
// crashes at a step; one more lands behind the second window when it does
// not crash. Power is lost at every moment the disk recorded, leaving the
// flushed bytes and the unflushed ones cut at and inside every frame. However
// it is cut, a restart — reopen, Restore, a new ingester drained — lands on
// the recomputation of exactly the accepts the image holds, each applied
// once, and the image holds every accept whose Submit had returned.
func TestPowerLossOverTheOneLog(t *testing.T) {
	const stores, sales = 4, 40
	sets := genSets(fixSeed, stores, sales, 6, 3)
	oracles := make(map[int]uint64) // by how many of sets the accepts hold
	oracle := func(n int) uint64 {
		if _, ok := oracles[n]; !ok {
			oracles[n] = oracleDigest(t, fixSeed, stores, sales, sets[:n])
		}
		return oracles[n]
	}

	// run journals the two windows to a fresh disk, the second's faults
	// armed by arm, and returns the disk and, per set, how many moments the
	// disk had recorded when its Submit returned (-1: not accepted).
	run := func(t *testing.T, arm func(inj *faults.Injector, hits int)) (*heldDisk, []int, int) {
		disk := newHeldDisk()
		w := buildFixture(t, fixSeed, stores, sales)
		inj := faults.New(1)
		steps := 0
		ing, err := New(Config{Warehouse: w, Journal: warehouse.NewJournal(disk), Faults: inj,
			OnWindow: func(rep warehouse.WindowReport) { steps = len(rep.Report.Steps) }})
		if err != nil {
			t.Fatal(err)
		}
		acked := []int{-1, -1, -1, -1, -1, -1}
		deltas := make([]*warehouse.Delta, len(sets)) // made now: a window holds the warehouse
		for i := range sets {
			deltas[i] = sets[i].delta(t, w)
		}
		submit := func(i int) {
			if err := ing.Submit("SALES", deltas[i]); err == nil {
				acked[i] = len(disk.Moments())
			}
		}
		ctx := context.Background()
		for i := 0; i < 3; i++ {
			submit(i)
		}
		// Window 1 installs sets 0–2. Its begin record's flush is held until
		// set 3 is accepted among its steps.
		release := disk.hold()
		done := make(chan error, 1)
		go func() { done <- ing.drain(ctx, false) }()
		waitFor(t, "a step of window 1", func() bool { return inj.Hits("step") > 0 })
		accepted := make(chan struct{})
		go func() { submit(3); close(accepted) }()
		waitFor(t, "set 3's accept", func() bool { return disk.frames(journal.TypeAccept) == 4 })
		release()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		<-accepted
		submit(4)
		// Window 2 installs sets 3 and 4.
		arm(inj, inj.Hits("step"))
		if err := ing.drain(ctx, false); err == nil {
			submit(5)
		}
		return disk, acked, steps
	}

	type outcome struct {
		name string
		arm  func(inj *faults.Injector, hits int)
	}
	outcomes := []outcome{{"commit", func(*faults.Injector, int) {}}}
	_, _, steps := run(t, outcomes[0].arm)
	for k := 1; k <= steps; k++ {
		outcomes = append(outcomes,
			outcome{fmt.Sprintf("abort@%d", k), func(inj *faults.Injector, hits int) { inj.FailAt("step", hits+k) }},
			outcome{fmt.Sprintf("crash@%d", k), func(inj *faults.Injector, hits int) { inj.CrashAt("step", hits+k) }})
	}
	for _, oc := range outcomes {
		t.Run(oc.name, func(t *testing.T) {
			disk, acked, _ := run(t, oc.arm)
			whole := disk.Bytes()
			var ends []int
			_, _ = journal.Scan(whole, func(_ byte, _ []byte, end int) error {
				ends = append(ends, end)
				return nil
			})
			held := func(image []byte) (n int) { // how many accepts the image holds whole
				_, _ = journal.Scan(image, func(typ byte, _ []byte, _ int) error {
					if typ == journal.TypeAccept {
						n++
					}
					return nil
				})
				return n
			}
			tried := make(map[int]bool)
			for mi, m := range disk.Moments() {
				// What the flushes had made durable holds every accept whose
				// Submit had returned.
				n := held(disk.PowerLoss(m, 0))
				for i, at := range acked {
					if at >= 0 && mi >= at && n <= i {
						t.Fatalf("power lost at moment %d (%+v): the image holds %d accepts, and Submit of set %d had returned", mi, m, n, i)
					}
				}
				// The image depends on the cut alone: restart from each once.
				cuts := []int{m.Durable}
				for i, start := 0, 0; i < len(ends); start, i = ends[i], i+1 {
					cuts = append(cuts, start+(ends[i]-start)/2, ends[i])
				}
				for _, cut := range cuts {
					if cut < m.Durable || cut > m.Written || tried[cut] {
						continue
					}
					tried[cut] = true
					image := disk.PowerLoss(m, cut-m.Durable)
					if got, want := restart(t, image, stores, sales), oracle(held(image)); got != want {
						t.Fatalf("cut at %d of %d, %d accepts held: a restart lands on %016x, the recomputation of them on %016x", cut, len(whole), held(image), got, want)
					}
				}
			}
			if !tried[len(whole)] {
				t.Fatal("no power loss left the whole log")
			}
		})
	}
}

// restart is a process that finds image on its disk: it reopens the journal,
// restores the warehouse from it, and drains a new ingester, which must
// requeue every accept no committed window installs. It returns the state
// digest it lands on.
func restart(t *testing.T, image []byte, stores, sales int) uint64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "window.journal")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	wj, err := warehouse.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wj.Close()
	w := buildFixture(t, fixSeed, stores, sales)
	if err := w.Restore(wj); err != nil {
		t.Fatal(err)
	}
	ing, err := New(Config{Warehouse: w, Journal: wj})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if wj.NeedsRecovery() || len(wj.Pending()) != 0 {
		t.Fatalf("after the restart the journal is in flight (%v) or holds %d accepts no window installed", wj.NeedsRecovery(), len(wj.Pending()))
	}
	return w.StateDigest()
}
