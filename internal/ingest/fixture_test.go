package ingest

import (
	"math/rand"
	"testing"

	warehouse "repro"
)

// The test fixture mirrors the repo's online-serving demo: STORES and SALES
// bases, a join, and two aggregates. Quarter-unit amounts keep float sums
// order-independent, so state digests compare exactly across warehouses
// built from the same accepted stream — the property every differential
// check here rests on.
func buildFixture(t testing.TB, seed int64, stores, sales int) *warehouse.Warehouse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := warehouse.New()
	w.MustDefineBase("STORES", warehouse.Schema{
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "region", Kind: warehouse.KindString},
	})
	w.MustDefineBase("SALES", warehouse.Schema{
		{Name: "sale_id", Kind: warehouse.KindInt},
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "amount", Kind: warehouse.KindFloat},
	})
	w.MustDefineViewSQL("SALES_BY_STORE", `
		SELECT s.sale_id, s.store_id, s.amount, st.region
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id`)
	w.MustDefineViewSQL("REGION_TOTALS", `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)
	regions := []string{"north", "south", "east", "west"}
	srows := make([]warehouse.Tuple, stores)
	for i := range srows {
		srows[i] = warehouse.Tuple{warehouse.Int(int64(i)), warehouse.String(regions[i%len(regions)])}
	}
	if err := w.Load("STORES", srows); err != nil {
		t.Fatal(err)
	}
	rows := make([]warehouse.Tuple, sales)
	for i := range rows {
		rows[i] = warehouse.Tuple{
			warehouse.Int(int64(i)),
			warehouse.Int(rng.Int63n(int64(stores))),
			warehouse.Float(float64(rng.Intn(200)) / 4),
		}
	}
	if err := w.Load("SALES", rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

// saleSet is one producer change set, kept so the oracle can replay exactly
// the accepted stream.
type saleSet struct {
	ids     []int64
	stores  []int64
	amounts []float64
}

// genSets produces deterministic change sets of n sales each.
func genSets(seed int64, stores, startID, sets, n int) []saleSet {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	next := int64(startID)
	out := make([]saleSet, sets)
	for i := range out {
		s := saleSet{}
		for j := 0; j < n; j++ {
			s.ids = append(s.ids, next)
			s.stores = append(s.stores, rng.Int63n(int64(stores)))
			s.amounts = append(s.amounts, float64(rng.Intn(200))/4)
			next++
		}
		out[i] = s
	}
	return out
}

func (s saleSet) delta(t testing.TB, w *warehouse.Warehouse) *warehouse.Delta {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.ids {
		d.Add(warehouse.Tuple{
			warehouse.Int(s.ids[i]),
			warehouse.Int(s.stores[i]),
			warehouse.Float(s.amounts[i]),
		}, 1)
	}
	return d
}

// oracleDigest replays the accepted sets sequentially — stage everything,
// one window — and returns the resulting state digest. Incremental
// maintenance is batching-invariant, so however the ingester micro-batched
// the same accepted stream, the digests must agree.
func oracleDigest(t testing.TB, seed int64, stores, sales int, accepted []saleSet) uint64 {
	t.Helper()
	w := buildFixture(t, seed, stores, sales)
	for _, s := range accepted {
		if err := w.StageDelta("SALES", s.delta(t, w)); err != nil {
			t.Fatal(err)
		}
	}
	if len(accepted) > 0 {
		if _, err := w.RunWindowOpts(warehouse.WindowOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return w.StateDigest()
}
