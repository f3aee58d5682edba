package storage

import (
	"math/rand"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

// scanBag collects a table's Scan output as encoding → count.
func scanBag(t *Table) map[string]int64 {
	bag := make(map[string]int64)
	t.Scan(func(tup relation.Tuple, count int64) bool {
		bag[tup.Encode()] += count
		return true
	})
	return bag
}

func sameBag(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestStoredTupleIsPrivate: the table's stored tuple is reachable neither
// through the tuple the caller inserted nor through an append to a scanned
// one, whichever way the row came in.
func TestStoredTupleIsPrivate(t *testing.T) {
	tbl := NewTable(testSchema())
	mine := cowRow(1, "a")
	tbl.Insert(mine, 1)
	mine[0], mine[1] = relation.NewInt(99), relation.NewString("zz")

	d := delta.New(testSchema())
	d.Add(cowRow(2, "b"), 3)
	d.Seal()
	if _, err := tbl.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	ix, _ := tbl.JoinIndex([]int{0})
	want := map[string]int64{cowRow(1, "a").Encode(): 1, cowRow(2, "b").Encode(): 3}
	if got := scanBag(tbl); !sameBag(got, want) {
		t.Fatalf("after mutating the inserted tuple: scan yields %d rows, want the two inserted", len(got))
	}

	// Appending to a handed-out tuple must copy, not grow into the store.
	grow := func(tup relation.Tuple, _ int64) bool {
		longer := append(tup, relation.NewInt(7))
		longer[0] = relation.NewInt(-1)
		return true
	}
	tbl.Scan(grow)
	for _, r := range tbl.SortedRows() {
		grow(r.Tuple, r.Count)
	}
	ix.Probe(relation.Tuple{relation.NewInt(2)}.AppendEncoded(nil), grow)
	if got := scanBag(tbl); !sameBag(got, want) {
		t.Fatal("append to a scanned tuple changed the stored rows")
	}
}

// TestScanMatchesScanEncoded: after random mixes of inserts, deletes, delta
// installs and clone-detaches, the decoded rows Scan hands out are exactly
// the decodings of the keys ScanEncoded hands out, count for count.
func TestScanMatchesScanEncoded(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(testSchema())
		randRow := func() relation.Tuple {
			return cowRow(rng.Int63n(40), string(rune('a'+rng.Intn(3))))
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(10) {
			case 0:
				tbl = tbl.Clone() // the old handle is dropped; the next write detaches
			case 1, 2:
				d := delta.New(testSchema())
				for i := 0; i < 5; i++ {
					d.Add(randRow(), 1+rng.Int63n(2))
				}
				if r := randRow(); countOf(tbl, r) > 0 {
					d.Add(r, -1)
				}
				d.Seal()
				if _, err := tbl.ApplyDelta(d); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			case 3, 4, 5:
				if r := randRow(); countOf(tbl, r) > 0 {
					if err := tbl.Delete(r, 1+rng.Int63n(countOf(tbl, r))); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			default:
				tbl.Insert(randRow(), 1+rng.Int63n(3))
			}
		}
		decoded := make(map[string]int64)
		var card int64
		tbl.ScanEncoded(func(key string, count int64) bool {
			tup, err := relation.DecodeTuple(key)
			if err != nil {
				t.Fatalf("seed %d: stored key does not decode: %v", seed, err)
			}
			decoded[tup.Encode()] += count
			card += count
			return true
		})
		if got := scanBag(tbl); !sameBag(got, decoded) {
			t.Fatalf("seed %d: Scan bag (%d rows) differs from decoded ScanEncoded bag (%d rows)", seed, len(got), len(decoded))
		}
		if card != tbl.Cardinality() || int64(len(decoded)) != tbl.DistinctCount() {
			t.Fatalf("seed %d: scanned %d copies of %d rows, table says %d of %d", seed, card, len(decoded), tbl.Cardinality(), tbl.DistinctCount())
		}
	}
}

// TestAggTableScanEncoded: a summary table holds each output row under its
// encoding, which Apply wrote from the group key and the outputs without
// the tuple at hand.
func TestAggTableScanEncoded(t *testing.T) {
	agg := newAgg()
	p := delta.NewGroupPartials(groupSchema, sumSpecs)
	accumulate(p, "west", 10, 1)
	accumulate(p, "west", 2.5, 1)
	accumulate(p, "east", 4, 2)
	if _, _, err := agg.Apply(p, nil); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int64)
	agg.Scan(func(tup relation.Tuple, count int64) bool {
		want[tup.Encode()] += count
		return true
	})
	got := make(map[string]int64)
	agg.ScanEncoded(func(key string, count int64) bool {
		got[key] += count
		return true
	})
	if len(want) != 2 || !sameBag(got, want) {
		t.Fatalf("ScanEncoded yields %v, Scan+Encode %v", got, want)
	}
}

// TestTableScanAllocatesNothing: a scan hands out stored tuples, so it
// allocates nothing however many rows it visits.
func TestTableScanAllocatesNothing(t *testing.T) {
	tbl := NewTable(testSchema())
	for i := int64(0); i < 2000; i++ {
		tbl.Insert(cowRow(i, "payload"), 1)
	}
	var rows, width int64
	allocs := testing.AllocsPerRun(5, func() {
		tbl.Scan(func(tup relation.Tuple, count int64) bool {
			rows += count
			width += int64(len(tup))
			return true
		})
	})
	if allocs != 0 {
		t.Fatalf("Scan of 2000 rows allocated %v times, want 0", allocs)
	}
}

// cloneWriteAllocs is the allocation count of a clone followed by one
// inserted row, on a table of n rows.
func cloneWriteAllocs(n int64) float64 {
	tbl := NewTable(testSchema())
	for i := int64(0); i < n; i++ {
		tbl.Insert(cowRow(i, "payload"), 1)
	}
	extra := cowRow(n, "payload")
	return testing.AllocsPerRun(20, func() {
		c := tbl.Clone()
		c.Insert(extra, 1)
	})
}

// TestCloneAndWriteAllocationsIgnoreRowCount: a clone and one write copy the
// directory and one bucket, each one allocation: the count is the same for
// a table of two thousand rows and one of thirty-two thousand.
func TestCloneAndWriteAllocationsIgnoreRowCount(t *testing.T) {
	small, large := cloneWriteAllocs(2_000), cloneWriteAllocs(32_000)
	if small != large || large > 12 {
		t.Fatalf("clone + one insert allocated %v times at 2 000 rows and %v at 32 000, want the same small number", small, large)
	}
}
