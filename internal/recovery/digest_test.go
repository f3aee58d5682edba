package recovery

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/journal"
	"repro/internal/relation"
	"repro/internal/snapshot"
)

var digestSchema = relation.Schema{
	{Name: "k", Kind: relation.KindInt},
	{Name: "g", Kind: relation.KindString},
	{Name: "x", Kind: relation.KindFloat},
	{Name: "d", Kind: relation.KindDate},
}

// digestWarehouse is a base view, an SPJ view over it and an aggregate view
// over that, loaded with rows and refreshed.
func digestWarehouse(t testing.TB, rows []relation.Tuple) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	if err := w.DefineBase("B", digestSchema); err != nil {
		t.Fatal(err)
	}
	defineSQL(t, w, "P", "SELECT b.g, b.x, b.k FROM B b")
	defineSQL(t, w, "A", "SELECT p.g, SUM(p.x) AS total, COUNT(*) AS n, MAX(p.x) AS top FROM P p GROUP BY p.g")
	if err := w.LoadBase("B", rows); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	return w
}

func digestRow(k int64, g string, x float64, day int64) relation.Tuple {
	return relation.Tuple{relation.NewInt(k), relation.NewString(g), relation.NewFloat(x), relation.NewDate(day)}
}

// scanEncodeDigest is StateDigest as it was first written and as journals
// and followers recorded it: scan every view's decoded rows, re-encode each,
// CRC the encoding and the count. It is the oracle the running digests the
// stores maintain are held to.
func scanEncodeDigest(w *core.Warehouse) uint64 {
	ecma := crc64.MakeTable(crc64.ECMA)
	var h uint64
	var buf [binary.MaxVarintLen64]byte
	for _, name := range w.ViewNames() {
		var vh uint64
		w.MustView(name).Scan(func(tup relation.Tuple, count int64) bool {
			crc := crc64.Update(0, ecma, []byte(tup.Encode()))
			n := binary.PutVarint(buf[:], count)
			vh ^= crc64.Update(crc, ecma, buf[:n])
			return true
		})
		h ^= nameFold(name, vh)
	}
	return h
}

// TestStateDigestGolden pins the digest of a fixed tiny warehouse to the
// value the scan-and-encode implementation gave it, so journals written and
// followers verified before the digest read stored keys still check out.
func TestStateDigestGolden(t *testing.T) {
	w := digestWarehouse(t, []relation.Tuple{
		digestRow(1, "west", 10.5, 9000),
		digestRow(2, "west", 0.25, 9001),
		digestRow(3, "east", -4, 9002),
		digestRow(3, "east", -4, 9002), // a duplicate: count 2
		digestRow(4, "", 0, 0),
	})
	const golden = 0x4ef93d3d0c9bf5e5
	if got := StateDigest(w); got != golden {
		t.Fatalf("StateDigest = %#016x, want the pinned %#016x", got, uint64(golden))
	}
}

// TestStateDigestMatchesScanEncode: on random warehouses, before and after
// random installed batches, the digest over stored keys is the digest the
// scan-and-encode formula gives.
func TestStateDigestMatchesScanEncode(t *testing.T) {
	groups := []string{"north", "south", "east", "west", ""}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRow := func() relation.Tuple {
			return digestRow(rng.Int63n(30), groups[rng.Intn(len(groups))], float64(rng.Intn(64))/4, 9000+rng.Int63n(5))
		}
		var rows []relation.Tuple
		for i := rng.Intn(60); i >= 0; i-- {
			rows = append(rows, randRow())
		}
		w := digestWarehouse(t, rows)
		for round := 0; ; round++ {
			if got, want := StateDigest(w), scanEncodeDigest(w); got != want {
				t.Fatalf("seed %d round %d: StateDigest %#016x, scan-and-encode %#016x", seed, round, got, want)
			}
			if round == 3 {
				break
			}
			d := delta.New(digestSchema)
			for i := 0; i < 10; i++ {
				d.Add(randRow(), 1)
			}
			present := w.MustView("B").SortedRows()
			d.Add(present[rng.Intn(len(present))].Tuple, -1)
			if err := w.StageDelta("B", d); err != nil {
				t.Fatal(err)
			}
			for _, step := range []struct{ comp, over string }{{"P", "B"}, {"", "B"}, {"A", "P"}, {"", "P"}, {"", "A"}} {
				var err error
				if step.comp != "" {
					_, err = w.ComputeCtx(nil, step.comp, []string{step.over})
				} else {
					_, _, err = w.Install(step.over)
				}
				if err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			}
		}
	}
}

// propWarehouse is digestWarehouse with every aggregate kind in the summary
// view: SUM, COUNT, AVG, MIN and MAX per group.
func propWarehouse(t testing.TB, rows []relation.Tuple) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DefineBase("B", digestSchema))
	defineSQL(t, w, "P", "SELECT b.g, b.x, b.k FROM B b")
	defineSQL(t, w, "A", "SELECT p.g, SUM(p.x) AS total, COUNT(*) AS n, AVG(p.x) AS mean, MIN(p.k) AS lo, MAX(p.k) AS hi FROM P p GROUP BY p.g")
	must(w.LoadBase("B", rows))
	must(w.RefreshAll())
	return w
}

// TestRunningDigestMatchesScan: whatever a store goes through — direct
// inserts and deletes, installed windows (ApplyDelta on the tables, Apply on
// the summary view, with groups appearing, changing and vanishing), a group
// built in from another handle, Clear and refresh, clones that then
// diverge, a snapshot written and read back — the digest it maintains is the
// digest a scan of its rows gives, on every live handle, after every
// operation.
func TestRunningDigestMatchesScan(t *testing.T) {
	groups := []string{"north", "south", "east", "west", ""}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRow := func() relation.Tuple {
			// Few keys and quarter-unit amounts: duplicates are common, a
			// group is often deleted to nothing, float sums are exact.
			return digestRow(rng.Int63n(8), groups[rng.Intn(len(groups))], float64(rng.Intn(16))/4, 9000+rng.Int63n(2))
		}
		var rows []relation.Tuple
		for i := rng.Intn(30); i >= 0; i-- {
			rows = append(rows, randRow())
		}
		live := []*core.Warehouse{propWarehouse(t, rows)}
		// check holds every live handle to the oracle; between a direct
		// write to a store and the refresh that follows it (settled false)
		// the derived views are, as expected, not what Verify recomputes.
		check := func(op int, what string, settled bool) {
			t.Helper()
			for i, w := range live {
				if got, want := StateDigest(w), scanEncodeDigest(w); got != want {
					t.Fatalf("seed %d op %d (%s): handle %d digests to %#016x, a scan of its rows to %#016x", seed, op, what, i, got, want)
				}
				if !settled {
					continue
				}
				if err := w.VerifyAll(); err != nil {
					t.Fatalf("seed %d op %d (%s): handle %d: %v", seed, op, what, i, err)
				}
			}
		}
		check(0, "load", true)
		for op := 1; op <= 120; op++ {
			w := live[rng.Intn(len(live))]
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
			var what string
			switch r := rng.Intn(20); {
			case r < 8:
				what = "window"
				d := delta.New(digestSchema)
				for i := rng.Intn(6); i >= 0; i-- {
					d.Add(randRow(), 1+rng.Int63n(2))
				}
				for _, present := range w.MustView("B").SortedRows() {
					if rng.Intn(3) == 0 { // deletes heavy enough to empty groups
						d.Add(present.Tuple, -(1 + rng.Int63n(present.Count)))
					}
				}
				must(w.StageDelta("B", d))
				for _, step := range []struct{ comp, over string }{{"P", "B"}, {"", "B"}, {"A", "P"}, {"", "P"}, {"", "A"}} {
					if step.comp != "" {
						_, err := w.ComputeCtx(nil, step.comp, []string{step.over})
						must(err)
					} else {
						_, _, err := w.Install(step.over)
						must(err)
					}
				}
			case r < 11:
				what = "insert, delete and refresh"
				base := w.MustView("B").Table()
				base.Insert(randRow(), 1+rng.Int63n(3))
				if present := base.SortedRows(); len(present) > 0 {
					victim := present[rng.Intn(len(present))]
					must(base.Delete(victim.Tuple, 1+rng.Int63n(victim.Count)))
				}
				check(op, "insert and delete", false)
				must(w.RefreshAll())
			case r < 13:
				what = "empty and refresh"
				if p := w.MustView("P"); rng.Intn(2) == 0 {
					p.Replace(p.NewTable())
				} else {
					a := w.MustView("A")
					a.Replace(a.NewTable())
				}
				check(op, "empty", false)
				must(w.RefreshAll())
			case r < 15:
				what = "restore group"
				// A group's state taken from another handle replaces, or
				// adds, the group here; the refresh puts the view right.
				from := live[rng.Intn(len(live))].MustView("A").Table()
				var key string
				var support int64
				var accums []delta.Accum
				skip := rng.Intn(len(groups))
				from.ScanGroups(func(k string, s int64, as []delta.Accum) bool {
					key, support, accums = k, s, as
					skip--
					return skip >= 0
				})
				if accums != nil {
					owned := make([]*delta.Accum, len(accums))
					for i := range accums {
						c := accums[i].Clone()
						owned[i] = &c
					}
					b := w.MustView("A").Table().BuildGroups(1)
					must(b.Add([]byte(key), support+rng.Int63n(2), owned))
					b.Done()
					check(op, "restore group", false)
					must(w.RefreshAll())
				}
			case r < 18 && len(live) < 6:
				what = "clone"
				live = append(live, w.Clone())
			default:
				what = "snapshot write and read"
				var buf bytes.Buffer
				must(snapshot.Write(w, &buf))
				back := propWarehouse(t, nil)
				must(snapshot.Read(back, &buf))
				if got, want := StateDigest(back), StateDigest(w); got != want {
					t.Fatalf("seed %d op %d: a snapshot read back digests to %#016x, its source to %#016x", seed, op, got, want)
				}
				live[rng.Intn(len(live))] = back
			}
			check(op, what, true)
		}
	}
}

// TestStateDigestAllocatesNothingPerRow: the digest folds one maintained
// value per view, reading the views by graph id, so it allocates nothing,
// however many rows the views hold.
func TestStateDigestAllocatesNothingPerRow(t *testing.T) {
	for _, n := range []int{1000, 8000} {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = digestRow(int64(i), []string{"n", "s", "e", "w", ""}[i%5], float64(i%16), 9000)
		}
		w := digestWarehouse(t, rows)
		if allocs := testing.AllocsPerRun(5, func() { StateDigest(w) }); allocs != 0 {
			t.Fatalf("StateDigest over %d rows allocated %v times, want 0 whatever the row count", n, allocs)
		}
	}
}

// BenchmarkStateDigest digests warehouses of 3 000 and of 24 000 base rows
// (as many in an SPJ view, and five groups): the fold of maintained digests
// a window pays, which does not see the row count, beside the scan it
// replaced, kept as the test oracle. Run with -benchmem.
func BenchmarkStateDigest(b *testing.B) {
	for _, n := range []int{3_000, 24_000} {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = digestRow(int64(i), []string{"n", "s", "e", "w", ""}[i%5], float64(i%16), 9000+int64(i%100))
		}
		w := digestWarehouse(b, rows)
		b.Run(fmt.Sprintf("fold/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				StateDigest(w)
			}
		})
		b.Run(fmt.Sprintf("scan/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scanEncodeDigest(w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/row")
		})
	}
}

func TestBatchRoundTripThroughWarehouse(t *testing.T) {
	schema := relation.Schema{
		{Name: "a", Kind: relation.KindInt},
		{Name: "b", Kind: relation.KindInt},
	}
	build := func() *core.Warehouse {
		w := core.New(core.Options{})
		if err := w.DefineBase("B0", schema); err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := build()
	d := delta.New(schema)
	d.Add(relation.Tuple{relation.NewInt(1), relation.NewInt(2)}, 3)
	d.Add(relation.Tuple{relation.NewInt(4), relation.NewInt(5)}, -1)
	if err := w.StageDelta("B0", d); err != nil {
		t.Fatal(err)
	}
	batch, _, err := stagedBatch(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || batch[0].View != "B0" || len(batch[0].Rows) != 2 {
		t.Fatalf("batch: %+v", batch)
	}
	w2 := build()
	if err := RestoreBatch(w2, batch); err != nil {
		t.Fatal(err)
	}
	d2, err := w2.DeltaOf("B0")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Digest() != d.Digest() || d2.Size() != d.Size() {
		t.Fatalf("restored delta digest %x size %d, want %x size %d",
			d2.Digest(), d2.Size(), d.Digest(), d.Size())
	}
	if journal.BatchDigest(batch) == 0 {
		t.Fatal("batch digest is zero for a non-empty batch")
	}
}

func TestStateDigestDetectsChanges(t *testing.T) {
	schema := relation.Schema{{Name: "a", Kind: relation.KindInt}}
	w := core.New(core.Options{})
	if err := w.DefineBase("B0", schema); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("B0", []relation.Tuple{{relation.NewInt(1)}, {relation.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	h1 := StateDigest(w)
	clone := w.Clone()
	if StateDigest(clone) != h1 {
		t.Fatal("clone digests differently")
	}
	// Pending changes do not contribute until installed.
	d := delta.New(schema)
	d.Add(relation.Tuple{relation.NewInt(9)}, 1)
	if err := clone.StageDelta("B0", d); err != nil {
		t.Fatal(err)
	}
	if StateDigest(clone) != h1 {
		t.Fatal("staged-but-uninstalled delta changed the state digest")
	}
	if _, _, err := clone.Install("B0"); err != nil {
		t.Fatal(err)
	}
	if StateDigest(clone) == h1 {
		t.Fatal("installed delta did not change the state digest")
	}
}

// TestStagedDigestIsBatchDigest: on drawn batches over several base views —
// views defined in an order that is not their names', a derived view among
// them, long keys and counts of either sign — the digest a window takes
// straight from the staged deltas, without collecting them, and the one it
// takes while collecting its own batch are both journal.BatchDigest of the
// collected batch, bit for bit.
func TestStagedDigestIsBatchDigest(t *testing.T) {
	schema := relation.Schema{{Name: "a", Kind: relation.KindInt}, {Name: "s", Kind: relation.KindString}}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 50; trial++ {
		w := core.New(core.Options{})
		bases := []string{"Z", "B", "M", "A"}
		for _, name := range bases {
			if err := w.DefineBase(name, schema); err != nil {
				t.Fatal(err)
			}
		}
		defineSQL(t, w, "P", "SELECT z.a FROM Z z")
		for _, name := range bases {
			if rng.Intn(4) == 0 {
				continue // nothing staged on this view
			}
			d := delta.New(schema)
			for i, n := 0, rng.Intn(200); i < n; i++ {
				s := strings.Repeat("x", rng.Intn(100))
				d.Add(relation.Tuple{relation.NewInt(rng.Int63n(1000)), relation.NewString(s)}, rng.Int63n(9)-4)
			}
			if err := w.StageDelta(name, d); err != nil {
				t.Fatal(err)
			}
		}
		batch, got, err := stagedBatch(w, true)
		if err != nil {
			t.Fatal(err)
		}
		want := journal.BatchDigest(batch)
		if got != want {
			t.Fatalf("trial %d: collecting digest %016x, BatchDigest of the batch %016x", trial, got, want)
		}
		if _, got, err := stagedBatch(w, false); err != nil || got != want {
			t.Fatalf("trial %d: digest of the staged deltas %016x (%v), BatchDigest of the batch %016x", trial, got, err, want)
		}
	}
}
