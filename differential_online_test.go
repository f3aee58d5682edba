package warehouse

// Online-window differential harness: the snapshot-isolation leg. For ~100
// seeded update windows over randomized multi-level warehouses, concurrent
// readers hammer the serving warehouse while each window runs — windows
// that commit (across execution modes, some planned by the sharing-aware
// search with shared computation on under a tiny budget), windows that
// abort on a nanosecond deadline, and windows that die to an injected crash
// and are completed by Recover on a snapshot-restored rebuild. Every read pins an epoch and
// captures the full bag of every view; the capture must equal exactly the
// pre-window or the post-window state — never a blend — and aborted or
// crashed windows must leave the serving epoch unchanged.
//
// This complements internal/recovery's crash differential harness (which
// proves the recovered *state* is bag-identical to an uninterrupted run):
// here the property under test is what concurrent readers can observe.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
)

// buildOnline constructs a random leveled warehouse through the public SQL
// API: 2–3 integer base views, then 1–3 derivation levels mixing
// filter/projection, join, and aggregate views. Integer columns keep bag
// comparisons exact. Deterministic in seed, so a "process restart" can
// rebuild the identical catalog before restoring a snapshot.
func buildOnline(t *testing.T, seed int64) *Warehouse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := New()
	type vi struct {
		name string
		cols []string
	}
	var all, prev []vi

	nBase := 2 + rng.Intn(2)
	for i := 0; i < nBase; i++ {
		name := fmt.Sprintf("B%d", i)
		w.MustDefineBase(name, Schema{
			{Name: "c0", Kind: KindInt},
			{Name: "c1", Kind: KindInt},
		})
		var rows []Tuple
		for r := 0; r < 8+rng.Intn(16); r++ {
			rows = append(rows, Tuple{Int(rng.Int63n(5)), Int(rng.Int63n(5))})
		}
		if err := w.Load(name, rows); err != nil {
			t.Fatal(err)
		}
		v := vi{name, []string{"c0", "c1"}}
		all = append(all, v)
		prev = append(prev, v)
	}

	levels := 1 + rng.Intn(3)
	id := 0
	for level := 1; level <= levels; level++ {
		var cur []vi
		for k := 0; k < 1+rng.Intn(2); k++ {
			name := fmt.Sprintf("D%d", id)
			id++
			var sql string
			var cols []string
			switch rng.Intn(3) {
			case 0: // filter + projection
				src := prev[rng.Intn(len(prev))]
				a := src.cols[rng.Intn(len(src.cols))]
				b := src.cols[rng.Intn(len(src.cols))]
				sql = fmt.Sprintf("SELECT %s AS p0, %s AS p1 FROM %s WHERE %s <= %d",
					a, b, src.name, a, 1+rng.Int63n(6))
				cols = []string{"p0", "p1"}
			case 1: // join a previous-level view with any earlier view
				s1 := prev[rng.Intn(len(prev))]
				s2 := all[rng.Intn(len(all))]
				a := s1.cols[rng.Intn(len(s1.cols))]
				b := s2.cols[rng.Intn(len(s2.cols))]
				sql = fmt.Sprintf("SELECT x.%s AS j0, y.%s AS j1 FROM %s x, %s y WHERE x.%s = y.%s",
					a, b, s1.name, s2.name, a, b)
				cols = []string{"j0", "j1"}
			default: // aggregate
				src := prev[rng.Intn(len(prev))]
				g := src.cols[0]
				m := src.cols[len(src.cols)-1]
				sql = fmt.Sprintf("SELECT %s, SUM(%s) AS s, COUNT(*) AS n FROM %s GROUP BY %s",
					g, m, src.name, g)
				cols = []string{g, "s", "n"}
			}
			if err := w.DefineViewSQL(name, sql); err != nil {
				t.Fatalf("seed %d view %s (%s): %v", seed, name, sql, err)
			}
			v := vi{name, cols}
			cur = append(cur, v)
			all = append(all, v)
		}
		prev = cur
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

// stageOnline stages a random change batch on every base view: inserts
// only, deletes only, or mixed.
func stageOnline(t *testing.T, w *Warehouse, rng *rand.Rand) {
	t.Helper()
	kind := rng.Intn(3)
	for _, name := range w.Views() {
		if name[0] != 'B' {
			continue
		}
		d, err := w.NewDelta(name)
		if err != nil {
			t.Fatal(err)
		}
		if kind != 0 {
			rows, err := w.Rows(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if rng.Intn(4) == 0 {
					d.Add(r.Tuple, -1)
				}
			}
		}
		if kind != 1 {
			for i := 0; i < 1+rng.Intn(5); i++ {
				d.Add(Tuple{Int(rng.Int63n(5)), Int(rng.Int63n(5))}, 1)
			}
		}
		if err := w.StageDelta(name, d); err != nil {
			t.Fatal(err)
		}
	}
}

// captureBags reads every view's full sorted bag under one epoch pin,
// returning the bag set and the epoch it was served from. Because all views
// come from the same pin, any cross-view inconsistency is a blend.
func captureBags(p *PinnedEpoch) (map[string][]string, error) {
	bags := make(map[string][]string)
	for _, v := range p.Views() {
		rows, err := p.Rows(v)
		if err != nil {
			return nil, err
		}
		lines := make([]string, 0, len(rows))
		for _, r := range rows {
			lines = append(lines, fmt.Sprintf("%v x%d", r.Tuple, r.Count))
		}
		bags[v] = lines
	}
	return bags, nil
}

func snapshotBags(t *testing.T, w *Warehouse) (map[string][]string, uint64) {
	t.Helper()
	p := w.PinEpoch()
	defer p.Close()
	bags, err := captureBags(p)
	if err != nil {
		t.Fatal(err)
	}
	return bags, p.Epoch()
}

func bagsEqual(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for v, ar := range a {
		br, ok := b[v]
		if !ok || len(ar) != len(br) {
			return false
		}
		for i := range ar {
			if ar[i] != br[i] {
				return false
			}
		}
	}
	return true
}

type onlineRead struct {
	epoch uint64
	bags  map[string][]string
}

// checkOrderedQuery runs one random ad-hoc ORDER BY/LIMIT query against a
// pinned epoch and checks the presentation-clause contract: the full
// result is sorted per the keys, and the LIMIT n OFFSET m result is
// exactly the corresponding contiguous slice of the full result (both
// queries hit the same pin, so they see the same state; the sort is
// stable over a deterministic input order, so the slice comparison is
// exact even with ties).
func checkOrderedQuery(t *testing.T, p *PinnedEpoch, rng *rand.Rand) {
	views := p.Views()
	name := views[rng.Intn(len(views))]
	v := p.pin.Warehouse().View(name)
	if v == nil {
		t.Errorf("pinned view %q vanished", name)
		return
	}
	schema := v.Schema()
	var sel []string
	for _, c := range schema {
		sel = append(sel, c.Name)
	}
	type key struct {
		col  int
		desc bool
	}
	var keys []key
	var obys []string
	for _, k := range rng.Perm(len(schema))[:1+rng.Intn(len(schema))] {
		desc := rng.Intn(2) == 0
		ref := schema[k].Name
		if rng.Intn(2) == 0 {
			ref = fmt.Sprintf("%d", k+1) // 1-based ordinal
		}
		if desc {
			ref += " DESC"
		}
		keys = append(keys, key{k, desc})
		obys = append(obys, ref)
	}
	base := fmt.Sprintf("SELECT %s FROM %s ORDER BY %s",
		strings.Join(sel, ", "), name, strings.Join(obys, ", "))
	full, err := p.Query(base)
	if err != nil {
		t.Errorf("%s: %v", base, err)
		return
	}
	for i := 1; i < len(full); i++ {
		for _, k := range keys {
			c := relation.Compare(full[i-1][k.col], full[i][k.col])
			if c == 0 {
				continue
			}
			if (k.desc && c < 0) || (!k.desc && c > 0) {
				t.Errorf("%s: rows %d,%d out of order: %v then %v", base, i-1, i, full[i-1], full[i])
			}
			break
		}
	}
	limit, offset := rng.Intn(len(full)+2), rng.Intn(len(full)+2)
	limited, err := p.Query(fmt.Sprintf("%s LIMIT %d OFFSET %d", base, limit, offset))
	if err != nil {
		t.Errorf("%s LIMIT %d OFFSET %d: %v", base, limit, offset, err)
		return
	}
	want := full
	if offset >= len(want) {
		want = nil
	} else {
		want = want[offset:]
	}
	if len(want) > limit {
		want = want[:limit]
	}
	if len(limited) != len(want) {
		t.Errorf("%s LIMIT %d OFFSET %d: %d rows, want %d", base, limit, offset, len(limited), len(want))
		return
	}
	for i := range want {
		if limited[i].String() != want[i].String() {
			t.Errorf("%s LIMIT %d OFFSET %d: row %d = %v, want %v", base, limit, offset, i, limited[i], want[i])
			return
		}
	}
}

// TestOnlineSnapshotIsolationDifferential is the harness entry point:
// 12 trials x 9 windows = 108 seeded windows (27 under -short).
func TestOnlineSnapshotIsolationDifferential(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 3
	}
	const windowsPer = 9
	modes := []Mode{ModeSequential, ModeStaged, ModeDAG}
	dir := t.TempDir()

	for trial := 0; trial < trials; trial++ {
		catalogSeed := int64(88400 + trial)
		rng := rand.New(rand.NewSource(catalogSeed * 7))
		w := buildOnline(t, catalogSeed)

		for win := 0; win < windowsPer; win++ {
			// 0..4 commit (mode cycles), 5 deadline abort, 6 injected crash.
			variant := rng.Intn(7)
			preBags, preEpoch := snapshotBags(t, w)

			var snap bytes.Buffer
			if variant == 6 {
				if err := w.SaveSnapshot(&snap); err != nil {
					t.Fatal(err)
				}
			}
			stageOnline(t, w, rng)

			// Readers race the window on the current serving warehouse.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			reads := make([][]onlineRead, 3)
			for g := range reads {
				wg.Add(1)
				go func(g int, out *[]onlineRead) {
					defer wg.Done()
					qrng := rand.New(rand.NewSource(catalogSeed*1000 + int64(win*10+g)))
					for len(*out) < 200 {
						select {
						case <-stop:
							return
						default:
						}
						p := w.PinEpoch()
						bags, err := captureBags(p)
						epoch := p.Epoch()
						if len(*out)%8 == 0 {
							// Ad-hoc ORDER BY/LIMIT queries race the window on
							// the same pin the bag capture used.
							checkOrderedQuery(t, p, qrng)
						}
						p.Close()
						if err != nil {
							t.Error(err)
							return
						}
						*out = append(*out, onlineRead{epoch, bags})
					}
					<-stop
				}(g, &reads[g])
			}

			crashed := false
			switch variant {
			case 5: // deadline abort, then a clean rerun commits the batch
				_, err := w.RunWindowOpts(WindowOptions{Mode: ModeDAG, Timeout: time.Nanosecond})
				if !errors.Is(err, ErrWindowAborted) {
					t.Fatalf("trial %d win %d: abort returned %v", trial, win, err)
				}
				if got := w.Epoch(); got != preEpoch {
					t.Fatalf("trial %d win %d: abort moved epoch %d -> %d", trial, win, preEpoch, got)
				}
				if _, err := w.RunWindowOpts(WindowOptions{Mode: modes[win%len(modes)]}); err != nil {
					t.Fatalf("trial %d win %d: rerun after abort: %v", trial, win, err)
				}
			case 6: // crash mid-window, recover on a restored rebuild
				crashed = true
				plan, err := w.PlanMinWork()
				if err != nil {
					t.Fatal(err)
				}
				jpath := filepath.Join(dir, fmt.Sprintf("t%d-w%d.journal", trial, win))
				j, err := OpenJournal(jpath)
				if err != nil {
					t.Fatal(err)
				}
				inj := NewFaultInjector(catalogSeed + int64(win))
				inj.CrashAt("step", 1+rng.Intn(len(plan.Strategy)))
				_, err = w.RunWindowOpts(WindowOptions{
					Mode: modes[win%len(modes)], Journal: j, Faults: inj,
				})
				if err == nil {
					t.Fatalf("trial %d win %d: injected crash did not fire", trial, win)
				}
				if got := w.Epoch(); got != preEpoch {
					t.Fatalf("trial %d win %d: crash moved epoch %d -> %d", trial, win, preEpoch, got)
				}
				if !j.NeedsRecovery() {
					t.Fatalf("trial %d win %d: crashed journal not in-flight", trial, win)
				}
				j.Close()
			default: // plain commit
				opts := WindowOptions{Mode: modes[win%len(modes)], Workers: 1 + rng.Intn(4)}
				if variant >= 3 {
					// Sharing-on commit: the window is planned by the
					// sharing-aware search at a tiny 1 MiB transient budget
					// (variant 4 widens the term engine to 2) while the readers
					// race it — shared builds must never blend epochs.
					w.SetSharing(true, 1<<20)
					opts.Planner = SharedPlanner
					if variant == 4 {
						w.SetParallelism(2, true)
					}
				}
				_, err := w.RunWindowOpts(opts)
				if variant >= 3 {
					w.SetSharing(false, 0)
					w.SetParallelism(0, false)
				}
				if err != nil {
					t.Fatalf("trial %d win %d: window failed: %v", trial, win, err)
				}
			}

			close(stop)
			wg.Wait()

			if crashed {
				// Every read raced a window that died: all must have seen
				// exactly the pre-window state.
				for g := range reads {
					for i, r := range reads[g] {
						if r.epoch != preEpoch || !bagsEqual(r.bags, preBags) {
							t.Fatalf("trial %d win %d reader %d read %d: crashed window leaked state (epoch %d, pre %d)",
								trial, win, g, i, r.epoch, preEpoch)
						}
					}
				}
				// "Process restart": rebuild the identical catalog, restore
				// the pre-window snapshot, and complete the in-flight window.
				// The recovered state must be bag-identical to running the
				// same window uninterrupted on the old warehouse.
				ref := w.Clone()
				if _, err := ref.RunWindowOpts(WindowOptions{Mode: ModeSequential}); err != nil {
					t.Fatalf("trial %d win %d: reference rerun: %v", trial, win, err)
				}
				refBags, _ := snapshotBags(t, ref)

				fresh := buildOnline(t, catalogSeed)
				if err := fresh.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
					t.Fatalf("trial %d win %d: restoring snapshot: %v", trial, win, err)
				}
				j2, err := OpenJournal(filepath.Join(dir, fmt.Sprintf("t%d-w%d.journal", trial, win)))
				if err != nil {
					t.Fatal(err)
				}
				if !j2.NeedsRecovery() {
					t.Fatalf("trial %d win %d: reopened journal lost the in-flight window", trial, win)
				}
				if _, err := fresh.Recover(j2); err != nil {
					t.Fatalf("trial %d win %d: recovery: %v", trial, win, err)
				}
				if j2.NeedsRecovery() {
					t.Fatalf("trial %d win %d: journal still in-flight after recovery", trial, win)
				}
				j2.Close()
				got, _ := snapshotBags(t, fresh)
				if !bagsEqual(got, refBags) {
					t.Fatalf("trial %d win %d: recovered state diverges from uninterrupted run", trial, win)
				}
				if err := fresh.Verify(); err != nil {
					t.Fatalf("trial %d win %d: recovered warehouse inconsistent: %v", trial, win, err)
				}
				w = fresh // the recovered process serves from here on
				continue
			}

			postBags, postEpoch := snapshotBags(t, w)
			if postEpoch != preEpoch+1 {
				t.Fatalf("trial %d win %d: commit epochs %d -> %d", trial, win, preEpoch, postEpoch)
			}
			for g := range reads {
				var last uint64
				for i, r := range reads[g] {
					if r.epoch < last {
						t.Fatalf("trial %d win %d reader %d: epoch went backwards %d -> %d", trial, win, g, last, r.epoch)
					}
					last = r.epoch
					switch r.epoch {
					case preEpoch:
						if !bagsEqual(r.bags, preBags) {
							t.Fatalf("trial %d win %d reader %d read %d: epoch %d does not match pre-window state",
								trial, win, g, i, r.epoch)
						}
					case postEpoch:
						if !bagsEqual(r.bags, postBags) {
							t.Fatalf("trial %d win %d reader %d read %d: epoch %d does not match post-window state",
								trial, win, g, i, r.epoch)
						}
					default:
						t.Fatalf("trial %d win %d reader %d read %d: impossible epoch %d (window was %d -> %d)",
							trial, win, g, i, r.epoch, preEpoch, postEpoch)
					}
				}
			}
			if err := w.Verify(); err != nil {
				t.Fatalf("trial %d win %d: %v", trial, win, err)
			}
			if live := w.LiveEpochs(); live != 1 {
				t.Fatalf("trial %d win %d: %d live epochs after readers unpinned", trial, win, live)
			}
		}
	}
}
