package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

// probeBag collects what an index yields for the projection of like on its
// columns, as row encoding → count.
func probeBag(ix *Index, like relation.Tuple) map[string]int64 {
	bag := make(map[string]int64)
	ix.Probe(ix.appendKey(nil, like), func(tup relation.Tuple, count int64) bool {
		bag[tup.Encode()] += count
		return true
	})
	return bag
}

// checkIndexes fails the test when a resident index of the handle differs
// from a rebuild from its rows (Table.CheckIndexes).
func checkIndexes(t *testing.T, what string, tbl *Table) {
	t.Helper()
	if err := tbl.CheckIndexes(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestEnsureIndexAndLookup: JoinIndex builds an index once and hands the same
// one out after, and a probe finds the rows of a key with their counts.
func TestEnsureIndexAndLookup(t *testing.T) {
	tbl := NewTable(schema) // (k INTEGER, v VARCHAR)
	tbl.Insert(row(1, "a"), 2)
	tbl.Insert(row(1, "b"), 1)
	tbl.Insert(row(2, "a"), 1)
	ix, scanned := tbl.JoinIndex([]int{0})
	if scanned != 3 || !slices.Equal(ix.cols, []int{0}) {
		t.Fatalf("first JoinIndex scanned %d rows for columns %v, want 3 and [0]", scanned, ix.cols)
	}
	if again, scanned := tbl.JoinIndex([]int{0}); again != ix || scanned != 0 {
		t.Fatalf("second JoinIndex built again (scanned %d)", scanned)
	}
	want := map[string]int64{row(1, "a").Encode(): 2, row(1, "b").Encode(): 1}
	if got := probeBag(ix, row(1, "")); !sameBag(got, want) {
		t.Errorf("probe of key 1 yields %v, want %v", got, want)
	}
	if got := probeBag(ix, row(9, "")); len(got) != 0 {
		t.Errorf("probe of an absent key yields %v", got)
	}
	// A probe may stop early.
	calls := 0
	ix.Probe(ix.appendKey(nil, row(1, "")), func(relation.Tuple, int64) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("a probe whose callback returned false called it %d times", calls)
	}
	ix.CountProbes(4)
	st := tbl.IndexStats()
	if len(st) != 1 || st[0].Keys != 2 || st[0].Rows != 3 || st[0].Probes != 4 || st[0].Upkeep != 0 {
		t.Errorf("IndexStats = %v", st)
	}
}

// TestIndexMaintenance: rows that appear and vanish move through an index's
// keys — one row under a key, several, back to one, gone, and back again —
// and a count that changes rewrites that row's entry in every index, under
// a key it shares and under one of its own, once per index, which upkeep
// counts.
func TestIndexMaintenance(t *testing.T) {
	tbl := NewTable(schema)
	ix, _ := tbl.JoinIndex([]int{1})   // on v: the rows share one key
	uniq, _ := tbl.JoinIndex([]int{0}) // on k: a key a row
	count := func() int64 {
		var n int64
		for _, c := range probeBag(ix, row(0, "x")) {
			n += c
		}
		return n
	}
	upkeep := func() (onV, onK int64) {
		st := tbl.IndexStats()
		return st[0].Upkeep, st[1].Upkeep
	}
	tbl.Insert(row(1, "x"), 1)
	tbl.Insert(row(2, "x"), 2)
	tbl.Insert(row(3, "x"), 1)
	if count() != 4 {
		t.Fatalf("after three inserts: %d", count())
	}
	v0, k0 := upkeep()
	// A partial delete and a repeated insert change counts only.
	if err := tbl.Delete(row(2, "x"), 1); err != nil {
		t.Fatal(err)
	}
	tbl.Insert(row(3, "x"), 5)
	want := map[string]int64{row(1, "x").Encode(): 1, row(2, "x").Encode(): 1, row(3, "x").Encode(): 6}
	if got := probeBag(ix, row(0, "x")); !sameBag(got, want) {
		t.Errorf("after count changes the shared key yields %v, want %v", got, want)
	}
	if got := probeBag(uniq, row(3, "")); !sameBag(got, map[string]int64{row(3, "x").Encode(): 6}) {
		t.Errorf("after a count change the row's own key yields %v", got)
	}
	if v1, k1 := upkeep(); v1-v0 != 2 || k1-k0 != 2 {
		t.Errorf("two count changes cost upkeep %d on [1] and %d on [0], want 2 and 2", v1-v0, k1-k0)
	}
	checkIndexes(t, "after count changes", tbl)
	for _, r := range []relation.Tuple{row(2, "x"), row(3, "x"), row(1, "x")} {
		if err := tbl.Delete(r, countOf(tbl, r)); err != nil {
			t.Fatal(err)
		}
		checkIndexes(t, "after deleting "+r.String(), tbl)
	}
	if count() != 0 || tbl.IndexStats()[0].Keys != 0 {
		t.Errorf("an emptied key still yields %d copies", count())
	}
	tbl.Insert(row(5, "x"), 1)
	if count() != 1 {
		t.Errorf("a refilled key yields %d copies", count())
	}
}

// TestCountChangeSparesClones: a count change rewrites the index entry on
// the handle that makes it; a clone taken before keeps probing the count it
// had, under a key of several rows and under a key of one.
func TestCountChangeSparesClones(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(1, "a"), 1)
	tbl.Insert(row(1, "b"), 2)
	tbl.Insert(row(2, "c"), 1)
	ix, _ := tbl.JoinIndex([]int{0})
	before := tbl.Clone()
	old, _ := before.JoinIndex([]int{0})
	tbl.Insert(row(1, "b"), 3)
	tbl.Insert(row(2, "c"), 4)
	for _, c := range []struct {
		what string
		ix   *Index
		key  relation.Tuple
		want map[string]int64
	}{
		{"live, shared key", ix, row(1, ""), map[string]int64{row(1, "a").Encode(): 1, row(1, "b").Encode(): 5}},
		{"live, own key", ix, row(2, ""), map[string]int64{row(2, "c").Encode(): 5}},
		{"clone, shared key", old, row(1, ""), map[string]int64{row(1, "a").Encode(): 1, row(1, "b").Encode(): 2}},
		{"clone, own key", old, row(2, ""), map[string]int64{row(2, "c").Encode(): 1}},
	} {
		if got := probeBag(c.ix, c.key); !sameBag(got, c.want) {
			t.Errorf("%s: probe yields %v, want %v", c.what, got, c.want)
		}
	}
	checkIndexes(t, "live", tbl)
	checkIndexes(t, "clone", before)
}

// TestIndexErrors: column lists that are empty, out of range or not strictly
// ascending are a caller's bug.
func TestIndexErrors(t *testing.T) {
	for _, cols := range [][]int{nil, {5}, {-1}, {0, 0}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("columns %v accepted", cols)
				}
			}()
			NewTable(schema).JoinIndex(cols)
		}()
	}
}

// fannedTable holds keys × perKey rows (k, v): perKey distinct values of v
// under every key k.
func fannedTable(keys, perKey int) *Table {
	tbl := NewTable(schema)
	for k := 0; k < keys; k++ {
		for v := 0; v < perKey; v++ {
			tbl.Insert(row(int64(k), fmt.Sprint("v", v)), 1)
		}
	}
	return tbl
}

// TestCompositeIndexCanonicalOrder: a composite key is the columns'
// encodings in ascending column order, which is the order a prober that
// sorts its equi-keys by column encodes them in.
func TestCompositeIndexCanonicalOrder(t *testing.T) {
	tbl := NewTable(schema)
	tbl.Insert(row(1, "a"), 1)
	tbl.Insert(row(1, "b"), 2)
	ix, _ := tbl.JoinIndex([]int{0, 1})
	key := relation.Tuple{relation.NewInt(1), relation.NewString("b")}.AppendEncoded(nil)
	var hits, copies int64
	ix.Probe(key, func(_ relation.Tuple, c int64) bool {
		hits++
		copies += c
		return true
	})
	if hits != 1 || copies != 2 {
		t.Errorf("composite probe found %d rows, %d copies; want 1 row, 2 copies", hits, copies)
	}
}

// TestCloneSharesIndexes: a clone has its source's indexes without building
// them, the two diverge with their rows, and an index made on one handle
// does not appear on the other.
func TestCloneSharesIndexes(t *testing.T) {
	tbl := NewTable(schema)
	for i := int64(0); i < 100; i++ {
		tbl.Insert(row(i%10, fmt.Sprint("v", i)), 1)
	}
	ix, _ := tbl.JoinIndex([]int{0})
	ix.CountProbes(7)
	cl := tbl.Clone()
	cix, scanned := cl.JoinIndex([]int{0})
	if scanned != 0 || cix == ix {
		t.Fatalf("the clone built its index again (scanned %d) or shares the handle's Index value", scanned)
	}
	if st := cl.IndexStats(); len(st) != 1 || st[0].Probes != 7 {
		t.Fatalf("the clone's index does not carry its source's counts: %v", st)
	}
	cl.Insert(row(3, "new"), 1)
	if err := cl.Delete(row(4, "v4"), 1); err != nil {
		t.Fatal(err)
	}
	tbl.Insert(row(5, "old-side"), 1)
	cl.JoinIndex([]int{1})
	checkIndexes(t, "source", tbl)
	checkIndexes(t, "clone", cl)
	if len(probeBag(ix, row(3, ""))) != 10 || len(probeBag(cix, row(3, ""))) != 11 {
		t.Error("a write through the clone shows in the source's index, or not in the clone's")
	}
	if len(tbl.IndexStats()) != 1 || len(cl.IndexStats()) != 2 {
		t.Errorf("index sets: source %d, clone %d, want 1 and 2", len(tbl.IndexStats()), len(cl.IndexStats()))
	}
	if st := cl.IndexStats()[0]; st.Upkeep != 2 || tbl.IndexStats()[0].Upkeep != 1 {
		t.Errorf("upkeep counts: clone %d, source %d, want 2 and 1", st.Upkeep, tbl.IndexStats()[0].Upkeep)
	}
}

// TestIndexesEqualScanUnderRandomOps drives random writes through a family
// of handles cloned from one another, with indexes on single, composite and
// NULL-bearing columns made at random moments, and after every operation compares every index of every live handle with
// a scan. Row and key ranges are small, so rows repeat (counts change
// without a row appearing or vanishing), keys empty and refill, and the
// index directories double.
func TestIndexesEqualScanUnderRandomOps(t *testing.T) {
	sch := relation.Schema{
		{Name: "a", Kind: relation.KindInt},
		{Name: "b", Kind: relation.KindString},
		{Name: "c", Kind: relation.KindInt},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randRow := func() relation.Tuple {
			r := relation.Tuple{relation.NewInt(rng.Int63n(12)), relation.NewString(string(rune('a' + rng.Intn(3)))), relation.NewInt(rng.Int63n(200))}
			if rng.Intn(8) == 0 {
				r[0] = relation.Null
			}
			if rng.Intn(8) == 0 {
				r[1] = relation.Null
			}
			return r
		}
		handles := []*Table{NewTable(sch)}
		colSets := [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {0, 1, 2}}
		for op := 0; op < 600; op++ {
			tbl := handles[rng.Intn(len(handles))]
			switch r := rng.Intn(100); {
			case r < 4 && len(handles) < 5:
				handles = append(handles, tbl.Clone())
			case r < 6:
				handles[rng.Intn(len(handles))] = tbl.Clone() // a handle is dropped
			case r < 7:
				handles[rng.Intn(len(handles))] = NewTable(sch) // a store built fresh
			case r < 10:
				b := tbl.Build(rng.Intn(40))
				for i := rng.Intn(40); i > 0; i-- {
					if err := b.Add(randRow().AppendEncoded(nil), 1+rng.Int63n(3)); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
				b.Done()
			case r < 18:
				cols := colSets[rng.Intn(len(colSets))]
				if ix, _ := tbl.JoinIndex(cols); !slices.Equal(ix.cols, cols) {
					t.Fatalf("seed %d op %d: JoinIndex(%v) handed out the index on %v", seed, op, cols, ix.cols)
				}
			case r < 40:
				d := delta.New(sch)
				for i := 0; i < 1+rng.Intn(40); i++ {
					d.Add(randRow(), 1+rng.Int63n(2))
				}
				tbl.Scan(func(tup relation.Tuple, count int64) bool {
					if rng.Intn(4) == 0 {
						d.Add(tup, -1-rng.Int63n(count))
					}
					return true
				})
				d.Seal()
				if _, err := tbl.ApplyDelta(d); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			case r < 60:
				if r := randRow(); countOf(tbl, r) > 0 {
					if err := tbl.Delete(r, 1+rng.Int63n(countOf(tbl, r))); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, op, err)
					}
				}
			default:
				tbl.Insert(randRow(), 1+rng.Int63n(3))
			}
			for i, h := range handles {
				checkIndexes(t, fmt.Sprintf("seed %d op %d handle %d", seed, op, i), h)
			}
		}
	}
}

// TestIndexOnLiveHandleWhileCloned: readers create and probe indexes on a
// handle while another goroutine clones it and writes the clones, the shape
// of a reader of the serving epoch beside update windows. Run under -race.
func TestIndexOnLiveHandleWhileCloned(t *testing.T) {
	live := NewTable(schema)
	for i := int64(0); i < 500; i++ {
		live.Insert(row(i%50, fmt.Sprint("v", i%7)), 1)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ix, _ := live.JoinIndex([][]int{{0}, {1}, {0, 1}}[(i+r)%3])
				var n int64
				ix.Probe(ix.appendKey(nil, row(int64(i%50), fmt.Sprint("v", i%7))), func(_ relation.Tuple, c int64) bool {
					n += c
					return true
				})
				if n == 0 {
					t.Errorf("a probe of the live handle found nothing")
					return
				}
			}
		}(r)
	}
	for w := 0; w < 50; w++ {
		c := live.Clone()
		c.Insert(row(int64(w), "window"), 1)
		if err := c.Delete(row(int64(w), fmt.Sprint("v", w%7)), 1); err != nil {
			t.Error(err)
		}
		checkIndexes(t, fmt.Sprintf("clone %d", w), c)
	}
	close(stop)
	readers.Wait()
	checkIndexes(t, "live", live)
	if live.Cardinality() != 500 {
		t.Errorf("the live handle changed under its clones' writes: %d rows", live.Cardinality())
	}
}

// indexedCloneWriteAllocs is the allocation count of a clone followed by
// one inserted row, on a table of n rows with a unique index and one of
// four rows a key.
func indexedCloneWriteAllocs(n int64) float64 {
	tbl := NewTable(testSchema())
	for i := int64(0); i < n; i++ {
		tbl.Insert(cowRow(i, fmt.Sprint("p", i/4)), 1)
	}
	tbl.JoinIndex([]int{0})
	tbl.JoinIndex([]int{1})
	extra := cowRow(n, fmt.Sprint("p", (n-1)/4))
	return testing.AllocsPerRun(20, func() {
		c := tbl.Clone()
		c.Insert(extra, 1)
	})
}

// TestIndexedCloneAndWriteAllocationsIgnoreRowCount: with indexes a clone
// and one write copy a directory and a bucket per map, the same count at two
// thousand rows and at thirty-two thousand.
func TestIndexedCloneAndWriteAllocationsIgnoreRowCount(t *testing.T) {
	small, large := indexedCloneWriteAllocs(2_000), indexedCloneWriteAllocs(32_000)
	if small != large || large > 30 {
		t.Fatalf("indexed clone + one insert allocated %v times at 2 000 rows and %v at 32 000, want the same small number", small, large)
	}
}

// TestLineItemIndexUpkeepBytes: TPC-D's joins ask LINEITEM for one index,
// on L_ORDERKEY (four rows a key) — the step that also binds L_SUPPKEY checks
// it on each row the probe yields — and once a window has installed into the
// table its rows are placed by L_ORDERKEY and the row map serves that index,
// so a window's clone plus the 1 % batch (BenchmarkIndexApply's lineitem
// case) copies the row map's buckets and no index's (≈ 670 B a changed
// row). An index the row map cannot serve, the unique one on (L_ORDERKEY,
// L_LINENUMBER), files the rows in a map of its own: the second case bounds
// that map's copy-on-write upkeep (≈ 2 000 B with the row map's; a window
// that copied the whole index would add ≈ 8 000).
func TestLineItemIndexUpkeepBytes(t *testing.T) {
	for _, c := range []struct {
		name  string
		cols  [][]int
		bound float64 // bytes per changed row
	}{
		{"placed", [][]int{{0}}, 1_000},
		{"own map", [][]int{{0, 1}}, 2_500},
	} {
		tbl, d := indexApplyTable(c.cols, false)
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			d.Seal()
			if _, err := tbl.Clone().ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*d.Size())
		t.Logf("%s: %.0f B a changed row", c.name, perRow)
		if perRow > c.bound {
			t.Errorf("%s: clone + the 1 %% batch allocated %.0f B a changed row with indexes %v, want at most %.0f", c.name, perRow, tbl.IndexStats(), c.bound)
		}
	}
}

// TestIndexProbeAllocatesNothing: a probe reads the index's entries under
// the key's hash, which carry the stored tuples and their counts, and hands
// them out; or, once an install has placed the rows by their first column,
// the row map's.
func TestIndexProbeAllocatesNothing(t *testing.T) {
	for _, placed := range []bool{false, true} {
		tbl := NewTable(testSchema())
		for i := int64(0); i < 2000; i++ {
			tbl.Insert(cowRow(i/4, fmt.Sprint("p", i)), 1)
		}
		ix, _ := tbl.JoinIndex([]int{0})
		if placed {
			d := delta.New(testSchema())
			d.Add(cowRow(0, "new"), 1)
			d.Seal()
			if _, err := tbl.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		}
		if st := tbl.IndexStats(); st[0].Placed != placed {
			t.Fatalf("placed=%v: the index reports %v", placed, st[0])
		}
		key := make([]byte, 0, 16)
		var rows int64
		probe := relation.Tuple{relation.NewInt(0)}
		allocs := testing.AllocsPerRun(100, func() {
			probe[0] = relation.NewInt(rows % 500)
			key = probe.AppendEncoded(key[:0])
			ix.Probe(key, func(_ relation.Tuple, count int64) bool {
				rows += count
				return true
			})
		})
		if allocs != 0 || rows == 0 {
			t.Fatalf("placed=%v: a probe allocated %v times (and found %d rows), want 0", placed, allocs, rows)
		}
	}
}
