package delta

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

var schema = relation.Schema{{Name: "k", Kind: relation.KindInt}}

func tup(i int64) relation.Tuple { return relation.Tuple{relation.NewInt(i)} }

func TestDeltaAddAndCounts(t *testing.T) {
	d := New(schema)
	d.Add(tup(1), 3)
	d.Add(tup(2), -2)
	if d.PlusCount() != 3 || d.MinusCount() != 2 || d.Size() != 5 || d.NetGrowth() != 1 {
		t.Errorf("counts = +%d -%d size %d net %d", d.PlusCount(), d.MinusCount(), d.Size(), d.NetGrowth())
	}
	d.Add(tup(1), -3) // cancel
	if d.PlusCount() != 0 || d.Size() != 2 {
		t.Errorf("after cancel: +%d size %d", d.PlusCount(), d.Size())
	}
	if d.IsEmpty() {
		t.Errorf("delta should not be empty")
	}
	d.Add(tup(2), 2)
	if !d.IsEmpty() {
		t.Errorf("delta should be empty after full cancel")
	}
	d.Add(tup(5), 0) // no-op
	if !d.IsEmpty() {
		t.Errorf("Add(0) should be a no-op")
	}
}

func TestDeltaSignTransition(t *testing.T) {
	d := New(schema)
	d.Add(tup(1), 2)
	d.Add(tup(1), -5) // 2 -> -3: plus goes 2->0, minus 0->3
	if d.PlusCount() != 0 || d.MinusCount() != 3 {
		t.Errorf("after sign flip: +%d -%d", d.PlusCount(), d.MinusCount())
	}
}

func TestDeltaMerge(t *testing.T) {
	a := New(schema)
	a.Add(tup(1), 2)
	b := New(schema)
	b.Add(tup(1), -1)
	b.Add(tup(2), 4)
	a.Merge(b)
	ch := a.Sorted()
	if len(ch) != 2 || ch[0].Count != 1 || ch[1].Count != 4 {
		t.Errorf("merged = %v", ch)
	}
}

func TestDeltaMergeSchemaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on schema mismatch")
		}
	}()
	a := New(schema)
	b := New(relation.Schema{{Name: "x", Kind: relation.KindString}})
	a.Merge(b)
}

func TestDeltaNegateClone(t *testing.T) {
	d := New(schema)
	d.Add(tup(1), 2)
	d.Add(tup(2), -3)
	n := d.Negate()
	if n.PlusCount() != 3 || n.MinusCount() != 2 {
		t.Errorf("negate counts = +%d -%d", n.PlusCount(), n.MinusCount())
	}
	c := d.Clone()
	c.Add(tup(1), 10)
	if d.Sorted()[0].Count != 2 {
		t.Errorf("Clone aliases state")
	}
	d.Merge(n) // d + (-d) = 0... wait n is negate of original d, and d unchanged
	if !d.IsEmpty() {
		t.Errorf("d + negate(d) should be empty")
	}
}

func TestDeltaCountsInvariantQuick(t *testing.T) {
	f := func(keys []int8, counts []int8) bool {
		d := New(schema)
		n := len(keys)
		if len(counts) < n {
			n = len(counts)
		}
		for i := 0; i < n; i++ {
			d.Add(tup(int64(keys[i]%4)), int64(counts[i]))
		}
		// Recompute plus/minus from scratch and compare to incremental totals.
		var plus, minus int64
		d.Scan(func(_ relation.Tuple, c int64) bool {
			if c > 0 {
				plus += c
			} else {
				minus -= c
			}
			return true
		})
		return plus == d.PlusCount() && minus == d.MinusCount() && d.Size() == plus+minus
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccumSumInt(t *testing.T) {
	a := NewAccum(AggSpec{Kind: AggSum, ValueKind: relation.KindInt})
	a.Add(relation.NewInt(5), 2)
	a.Add(relation.NewInt(3), -1)
	if got := a.Output(1); got.Int() != 7 {
		t.Errorf("sum = %v, want 7", got)
	}
	if a.Spec().OutputKind() != relation.KindInt {
		t.Errorf("int sum output kind = %v", a.Spec().OutputKind())
	}
}

func TestAccumSumFloat(t *testing.T) {
	a := NewAccum(AggSpec{Kind: AggSum, ValueKind: relation.KindFloat})
	a.Add(relation.NewFloat(1.5), 2)
	if got := a.Output(2); got.Float() != 3.0 {
		t.Errorf("sum = %v, want 3", got)
	}
}

func TestAccumCountAvg(t *testing.T) {
	c := NewAccum(AggSpec{Kind: AggCount, ValueKind: relation.KindInt})
	c.Add(relation.NewInt(9), 5) // ignored; COUNT derives from support
	if got := c.Output(4); got.Int() != 4 {
		t.Errorf("count = %v, want 4", got)
	}
	av := NewAccum(AggSpec{Kind: AggAvg, ValueKind: relation.KindInt})
	av.Add(relation.NewInt(10), 1)
	av.Add(relation.NewInt(20), 1)
	if got := av.Output(2); got.Float() != 15 {
		t.Errorf("avg = %v, want 15", got)
	}
	if got := av.Output(0); !got.IsNull() {
		t.Errorf("avg of empty group = %v, want NULL", got)
	}
}

func TestAccumMinMaxWithDeletes(t *testing.T) {
	mn := NewAccum(AggSpec{Kind: AggMin, ValueKind: relation.KindInt})
	mx := NewAccum(AggSpec{Kind: AggMax, ValueKind: relation.KindInt})
	for _, v := range []int64{5, 2, 9, 2} {
		mn.Add(relation.NewInt(v), 1)
		mx.Add(relation.NewInt(v), 1)
	}
	if mn.Output(4).Int() != 2 || mx.Output(4).Int() != 9 {
		t.Fatalf("min/max = %v/%v", mn.Output(4), mx.Output(4))
	}
	// Delete both 2s: min becomes 5. Delete 9: max becomes 5.
	mn.Add(relation.NewInt(2), -2)
	mx.Add(relation.NewInt(9), -1)
	if mn.Output(2).Int() != 5 {
		t.Errorf("min after delete = %v, want 5", mn.Output(2))
	}
	if mx.Output(3).Int() != 5 {
		t.Errorf("max after delete = %v, want 5", mx.Output(3))
	}
	if !mn.Valid() {
		t.Errorf("accumulator should be valid")
	}
	mn.Add(relation.NewInt(99), -1)
	if mn.Valid() {
		t.Errorf("negative value count should be invalid")
	}
}

func TestAccumNullIgnored(t *testing.T) {
	a := NewAccum(AggSpec{Kind: AggSum, ValueKind: relation.KindInt})
	a.Add(relation.Null, 3)
	if got := a.Output(3); got.Int() != 0 {
		t.Errorf("sum with nulls = %v, want 0", got)
	}
	m := NewAccum(AggSpec{Kind: AggMin, ValueKind: relation.KindInt})
	m.Add(relation.Null, 1)
	if got := m.Output(1); !got.IsNull() {
		t.Errorf("min of all-null group = %v, want NULL", got)
	}
}

func TestAccumFoldClone(t *testing.T) {
	a := NewAccum(AggSpec{Kind: AggMin, ValueKind: relation.KindInt})
	a.Add(relation.NewInt(3), 1)
	b := a.Clone()
	b.Add(relation.NewInt(1), 1)
	if a.Output(1).Int() != 3 {
		t.Errorf("Clone aliases vals map")
	}
	a.Fold(b) // a now has 3 (x2) and 1
	if a.Output(3).Int() != 1 {
		t.Errorf("fold min = %v, want 1", a.Output(3))
	}
	defer func() {
		if recover() == nil {
			t.Errorf("fold of mismatched specs should panic")
		}
	}()
	a.Fold(NewAccum(AggSpec{Kind: AggMax, ValueKind: relation.KindInt}))
}

func TestGroupPartials(t *testing.T) {
	gs := relation.Schema{{Name: "g", Kind: relation.KindString}}
	specs := []AggSpec{{Kind: AggSum, ValueKind: relation.KindInt}, {Kind: AggCount, ValueKind: relation.KindInt}}
	p := NewGroupPartials(gs, specs)
	g := relation.Tuple{relation.NewString("a")}
	p.Accumulate(g, []relation.Value{relation.NewInt(10), relation.Null}, 2)
	p.Accumulate(g, []relation.Value{relation.NewInt(5), relation.Null}, -1)
	if p.GroupCount() != 1 || p.IsEmpty() {
		t.Fatalf("group count = %d", p.GroupCount())
	}
	q := NewGroupPartials(gs, specs)
	q.Accumulate(relation.Tuple{relation.NewString("b")}, []relation.Value{relation.NewInt(7), relation.Null}, 1)
	q.Accumulate(g, []relation.Value{relation.NewInt(1), relation.Null}, 1)
	p.Merge(q)
	if p.GroupCount() != 2 {
		t.Fatalf("merged group count = %d", p.GroupCount())
	}
	var supportA, sumA int64
	p.Scan(func(key string, gp *GroupPartial) bool {
		tupKey, _ := relation.DecodeTuple(key)
		if tupKey[0].Str() == "a" {
			supportA = gp.Support
			sumA = gp.Accums[0].Output(gp.Support).Int()
		}
		return true
	})
	if supportA != 2 { // 2 - 1 + 1
		t.Errorf("support(a) = %d, want 2", supportA)
	}
	if sumA != 16 { // 20 - 5 + 1
		t.Errorf("sum(a) = %d, want 16", sumA)
	}
}

func TestGroupPartialsAccumulateArityPanics(t *testing.T) {
	gs := relation.Schema{{Name: "g", Kind: relation.KindInt}}
	p := NewGroupPartials(gs, []AggSpec{{Kind: AggCount, ValueKind: relation.KindInt}})
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on arity mismatch")
		}
	}()
	p.Accumulate(tup(1), nil, 1)
}

func TestAggKindStrings(t *testing.T) {
	want := map[AggKind]string{AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX", AggKind(42): "AggKind(42)"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q, want %q", uint8(k), k.String(), s)
		}
	}
}

func TestOutputKinds(t *testing.T) {
	cases := []struct {
		spec AggSpec
		want relation.Kind
	}{
		{AggSpec{AggCount, relation.KindFloat}, relation.KindInt},
		{AggSpec{AggSum, relation.KindInt}, relation.KindInt},
		{AggSpec{AggSum, relation.KindFloat}, relation.KindFloat},
		{AggSpec{AggAvg, relation.KindInt}, relation.KindFloat},
		{AggSpec{AggMin, relation.KindDate}, relation.KindDate},
		{AggSpec{AggMax, relation.KindString}, relation.KindString},
	}
	for _, c := range cases {
		if got := c.spec.OutputKind(); got != c.want {
			t.Errorf("OutputKind(%v) = %v, want %v", c.spec, got, c.want)
		}
	}
}

// scanned collects what one Scan hands out, keyed by the tuple's value.
func scanned(d *Delta) map[int64]relation.Tuple {
	out := make(map[int64]relation.Tuple)
	d.Scan(func(tp relation.Tuple, _ int64) bool {
		out[tp[0].Int()] = tp
		return true
	})
	return out
}

// sameTuple reports whether a and b are one tuple in memory, not two equal
// ones.
func sameTuple(a, b relation.Tuple) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestScanDecodesOncePerChange: the tuples of a second Scan are the first
// Scan's, a change drops them (and the next Scan sees it), and a clone
// decodes for itself.
func TestScanDecodesOncePerChange(t *testing.T) {
	d := New(schema)
	for i := int64(1); i <= 4; i++ {
		d.Add(tup(i), i)
	}
	first, second := scanned(d), scanned(d)
	for k, tp := range first {
		if !sameTuple(tp, second[k]) {
			t.Fatalf("tuple %d was decoded again by the second Scan", k)
		}
	}
	if c := scanned(d.Clone()); len(c) != 4 || sameTuple(c[1], first[1]) {
		t.Fatalf("a clone scans %d tuples, sharing=%v; want 4 of its own", len(c), sameTuple(c[1], first[1]))
	}

	d.Add(tup(1), -1) // cancels tuple 1
	d.AddEncoded(tup(9).Encode(), 2)
	after := scanned(d)
	if _, ok := after[1]; ok || len(after) != 4 || after[9] == nil {
		t.Fatalf("Scan after a change walks %v", after)
	}
	other := New(schema)
	other.Add(tup(2), -2)
	d.Merge(other)
	if after = scanned(d); len(after) != 3 || after[2] != nil {
		t.Fatalf("Scan after a merge walks %v", after)
	}

	calls := 0
	d.Scan(func(relation.Tuple, int64) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Scan made %d calls after fn returned false", calls)
	}
	New(schema).Scan(func(relation.Tuple, int64) bool {
		t.Fatal("Scan of an empty delta called fn")
		return false
	})
}

// TestScanKeyedHandsOutDecodedTuples: nil tuples until a Scan has decoded
// the delta, that Scan's tuples afterwards, nil again after a change — and
// the keys and counts of ScanEncoded throughout.
func TestScanKeyedHandsOutDecodedTuples(t *testing.T) {
	d := New(schema)
	d.Add(tup(1), 1)
	d.Add(tup(2), -2)
	keyed := func() (tuples int, counts map[string]int64) {
		counts = make(map[string]int64)
		d.ScanKeyed(func(key string, tp relation.Tuple, count int64) bool {
			counts[key] = count
			if tp != nil {
				if tp.Encode() != key {
					t.Fatalf("key %q came with tuple %v", key, tp)
				}
				tuples++
			}
			return true
		})
		return tuples, counts
	}
	want := map[string]int64{tup(1).Encode(): 1, tup(2).Encode(): -2}
	check := func(when string, wantTuples int) {
		t.Helper()
		tuples, counts := keyed()
		if tuples != wantTuples || len(counts) != len(want) {
			t.Fatalf("%s: %d tuples, changes %v; want %d tuples, %v", when, tuples, counts, wantTuples, want)
		}
		for k, c := range want {
			if counts[k] != c {
				t.Fatalf("%s: changes %v, want %v", when, counts, want)
			}
		}
	}
	check("before any Scan", 0)
	first := scanned(d)
	check("after a Scan", 2)
	d.ScanKeyed(func(_ string, tp relation.Tuple, _ int64) bool {
		if !sameTuple(tp, first[tp[0].Int()]) {
			t.Fatalf("ScanKeyed decoded tuple %v again", tp)
		}
		return true
	})
	d.Add(tup(3), 3)
	want[tup(3).Encode()] = 3
	check("after a change", 0)
}

// TestConcurrentScansDecodeOnce: two DAG workers may run Comps over one view
// together; both read the tuples one of them decoded (run with -race).
func TestConcurrentScansDecodeOnce(t *testing.T) {
	d := New(schema)
	for i := int64(0); i < 256; i++ {
		d.Add(tup(i), 1)
	}
	const scanners = 4
	got := make([]map[int64]relation.Tuple, scanners)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = scanned(d)
		}(g)
	}
	wg.Wait()
	for g := 1; g < scanners; g++ {
		if len(got[g]) != 256 {
			t.Fatalf("scanner %d saw %d tuples", g, len(got[g]))
		}
		for k, tp := range got[0] {
			if !sameTuple(tp, got[g][k]) {
				t.Fatalf("scanners 0 and %d hold different decodings of tuple %d", g, k)
			}
		}
	}
}
