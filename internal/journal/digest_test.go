package journal

import (
	"encoding/binary"
	"hash/crc64"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
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
	spj := algebra.NewBuilder().From("b", "B", digestSchema).
		SelectCol("b.g").SelectCol("b.x").SelectCol("b.k")
	if err := w.DefineDerived("P", spj.MustBuild()); err != nil {
		t.Fatal(err)
	}
	ps := w.MustView("P").Schema()
	agg := algebra.NewBuilder().From("p", "P", ps)
	agg.GroupByCol("p.g").
		Agg("total", delta.AggSum, agg.Col("p.x")).
		Agg("n", delta.AggCount, nil).
		Agg("top", delta.AggMax, agg.Col("p.x"))
	if err := w.DefineDerived("A", agg.MustBuild()); err != nil {
		t.Fatal(err)
	}
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
// CRC the encoding and the count.
func scanEncodeDigest(w *core.Warehouse) uint64 {
	var h uint64
	var buf [binary.MaxVarintLen64]byte
	for _, name := range w.ViewNames() {
		var vh uint64
		w.MustView(name).Scan(func(tup relation.Tuple, count int64) bool {
			crc := crc64.Update(0, crcTable, []byte(tup.Encode()))
			n := binary.PutVarint(buf[:], count)
			vh ^= crc64.Update(crc, crcTable, buf[:n])
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
					_, err = w.Compute(step.comp, []string{step.over})
				} else {
					_, err = w.Install(step.over)
				}
				if err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			}
		}
	}
}

// TestStateDigestAllocatesNothingPerRow: digesting reads stored keys in
// place, so a base table of eight thousand rows costs no more allocations
// than one of a thousand. (Aggregate views encode one output row per group;
// both warehouses here have the same five groups.)
func TestStateDigestAllocatesNothingPerRow(t *testing.T) {
	allocs := func(n int) float64 {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = digestRow(int64(i), []string{"n", "s", "e", "w", ""}[i%5], float64(i%16), 9000)
		}
		w := digestWarehouse(t, rows)
		return testing.AllocsPerRun(5, func() { StateDigest(w) })
	}
	small, large := allocs(1000), allocs(8000)
	if large != small {
		t.Fatalf("StateDigest allocated %v times over 1000 rows and %v over 8000, want the same", small, large)
	}
}

// BenchmarkStateDigest digests a warehouse of 24 000 base rows, as many in
// an SPJ view and five groups. Run with -benchmem.
func BenchmarkStateDigest(b *testing.B) {
	const n = 24_000
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = digestRow(int64(i), []string{"n", "s", "e", "w", ""}[i%5], float64(i%16), 9000+int64(i%100))
	}
	w := digestWarehouse(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StateDigest(w)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/row")
}
