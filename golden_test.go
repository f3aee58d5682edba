package warehouse

import (
	"fmt"
	"testing"
)

// goldenFloatDigest is the state digest TestGoldenFloatDigest must land on.
// It was computed at the commit before the two term evaluators became one
// (f7a74ea, the sequential Compute branch), so it pins that the default
// engine — the term engine at width 1, accumulating straight into the
// view's pending state — adds the same floats in the same order.
const goldenFloatDigest = 0x64a5d93987c453a9

// TestGoldenFloatDigest runs ten windows of non-dyadic float data on the
// default engine and compares the final state digest with a golden value.
// Float sums are order-sensitive and both operand scans and delta scans
// iterate Go maps, so the fixture keeps every accumulation to at most two
// contributions per group (a + b is commutative; only a third operand makes
// the order show): two sales per (store, day) group at load, one insert and
// one delete per group per window. Across windows the order is fixed —
// state' = state + partial — and that is where a changed accumulation
// (a shard merged at a different point, a partial folded twice, a sum kept
// in a different precision) would move the digest.
func TestGoldenFloatDigest(t *testing.T) {
	const stores, days = 7, 5
	w := New()
	w.MustDefineBase("STORES", Schema{{Name: "store", Kind: KindInt}, {Name: "rate", Kind: KindFloat}})
	w.MustDefineBase("SALES", Schema{
		{Name: "id", Kind: KindInt}, {Name: "store", Kind: KindInt},
		{Name: "day", Kind: KindInt}, {Name: "amount", Kind: KindFloat},
	})
	w.MustDefineViewSQL("DAILY", `SELECT s.store, s.day, SUM(s.amount) AS total, AVG(s.amount) AS mean, COUNT(*) AS n
		FROM SALES s GROUP BY s.store, s.day`)
	w.MustDefineViewSQL("TAXED", `SELECT s.store, SUM(s.amount * st.rate) AS tax
		FROM SALES s, STORES st WHERE s.store = st.store AND s.day = 0 GROUP BY s.store`)
	w.MustDefineViewSQL("LINES", `SELECT s.id, s.amount * st.rate AS tax
		FROM SALES s, STORES st WHERE s.store = st.store`)

	var storeRows []Tuple
	for s := 0; s < stores; s++ {
		storeRows = append(storeRows, Tuple{Int(int64(s)), Float(0.07 + float64(s)/300)})
	}
	if err := w.Load("STORES", storeRows); err != nil {
		t.Fatal(err)
	}
	// sale returns the k-th sale of a (store, day) group: amounts are cents
	// and thirds, none of them dyadic.
	sale := func(s, d, k int) Tuple {
		id := int64((s*days+d)*1000 + k)
		amount := float64(id%977)/100 + float64(k)/3 + 0.01
		return Tuple{Int(id), Int(int64(s)), Int(int64(d)), Float(amount)}
	}
	var sales []Tuple
	for s := 0; s < stores; s++ {
		for d := 0; d < days; d++ {
			sales = append(sales, sale(s, d, 0), sale(s, d, 1))
		}
	}
	if err := w.Load("SALES", sales); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}

	for win := 0; win < 10; win++ {
		d, err := w.NewDelta("SALES")
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < stores; s++ {
			for day := 0; day < days; day++ {
				d.Add(sale(s, day, win+2), 1)
				d.Add(sale(s, day, win), -1)
			}
		}
		if err := w.StageDelta("SALES", d); err != nil {
			t.Fatal(err)
		}
		if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
			t.Fatalf("window %d: %v", win+1, err)
		}
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", w.StateDigest()); got != fmt.Sprintf("%016x", uint64(goldenFloatDigest)) {
		t.Fatalf("state digest after 10 float windows = %s, golden %016x", got, uint64(goldenFloatDigest))
	}
}
