package delta

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

var schema = relation.Schema{{Name: "k", Kind: relation.KindInt}}

func tup(i int64) relation.Tuple { return relation.Tuple{relation.NewInt(i)} }

// sealed seals d for a test and returns it.
func sealed(t testing.TB, d *Delta) *Delta {
	t.Helper()
	if err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeltaAddAndCounts(t *testing.T) {
	d := New(schema)
	d.Add(tup(1), 3)
	d.Add(tup(2), -2)
	sealed(t, d)
	if d.PlusCount() != 3 || d.MinusCount() != 2 || d.Size() != 5 {
		t.Errorf("counts = +%d -%d size %d", d.PlusCount(), d.MinusCount(), d.Size())
	}
	d.Add(tup(1), -3) // cancel
	if sealed(t, d).PlusCount() != 0 || d.Size() != 2 {
		t.Errorf("after cancel: +%d size %d", d.PlusCount(), d.Size())
	}
	if d.IsEmpty() {
		t.Errorf("delta should not be empty")
	}
	d.Add(tup(2), 2)
	if !sealed(t, d).IsEmpty() {
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
	if sealed(t, d).PlusCount() != 0 || d.MinusCount() != 3 {
		t.Errorf("after sign flip: +%d -%d", d.PlusCount(), d.MinusCount())
	}
}

func TestDeltaMerge(t *testing.T) {
	a := New(schema)
	a.Add(tup(1), 2)
	b := New(schema)
	b.Add(tup(1), -1)
	b.Add(tup(2), 4)
	sealed(t, a).Merge(sealed(t, b))
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
	n := New(schema)
	sealed(t, d).Scan(func(tp relation.Tuple, count int64) bool { n.Add(tp, -count); return true })
	if sealed(t, n).PlusCount() != 3 || n.MinusCount() != 2 {
		t.Errorf("negate counts = +%d -%d", n.PlusCount(), n.MinusCount())
	}
	c := d.Clone()
	c.Add(tup(1), 10)
	sealed(t, c)
	if d.Sorted()[0].Count != 2 {
		t.Errorf("Clone aliases state")
	}
	d.Merge(n) // d + (-d) = 0
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
		// Recompute plus/minus from scratch and compare to the sealed totals.
		var plus, minus int64
		sealed(t, d).Scan(func(_ relation.Tuple, c int64) bool {
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
	a.Fold(&b) // a now has 3 (x2) and 1
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

// TestScanDecodesOncePerChange: Seal decodes each tuple once — every Scan,
// and every clone, hands out the same tuples — and a Seal that folds in a
// change decodes only the tuples new to the run: the rows it keeps keep
// their tuples, and so do those a Merge keeps.
func TestScanDecodesOncePerChange(t *testing.T) {
	d := New(schema)
	for i := int64(1); i <= 4; i++ {
		d.Add(tup(i), i)
	}
	first, second := scanned(sealed(t, d)), scanned(d)
	for k, tp := range first {
		if !sameTuple(tp, second[k]) {
			t.Fatalf("tuple %d was decoded again by the second Scan", k)
		}
	}
	if c := scanned(d.Clone()); len(c) != 4 || !sameTuple(c[1], first[1]) {
		t.Fatalf("a clone scans %d tuples, sharing=%v; want the same 4", len(c), sameTuple(c[1], first[1]))
	}

	d.Add(tup(1), -1) // cancels tuple 1
	d.AddEncoded(tup(9).Encode(), 2)
	after := scanned(sealed(t, d))
	if _, ok := after[1]; ok || len(after) != 4 || after[9] == nil || !sameTuple(after[3], first[3]) {
		t.Fatalf("Scan after a change walks %v", after)
	}
	other := New(schema)
	other.Add(tup(2), -2)
	d.Merge(sealed(t, other))
	if after = scanned(d); len(after) != 3 || after[2] != nil || !sameTuple(after[4], first[4]) {
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

// TestScanEncodedHandsOutTheRun: ScanEncoded walks Scan's rows, each key
// beside the tuple Seal decoded from it, in ascending key order.
func TestScanEncodedHandsOutTheRun(t *testing.T) {
	d := New(schema)
	for _, i := range []int64{300, -2, 7, 1 << 40, 0} {
		d.Add(tup(i), i%5+1)
	}
	first := scanned(sealed(t, d))
	prev := ""
	n := 0
	d.ScanEncoded(func(key string, tp relation.Tuple, count int64) bool {
		if n > 0 && key <= prev {
			t.Fatalf("key %q after %q", key, prev)
		}
		if tp.Encode() != key || !sameTuple(tp, first[tp[0].Int()]) || count != tp[0].Int()%5+1 {
			t.Fatalf("key %q came with tuple %v, count %d", key, tp, count)
		}
		prev, n = key, n+1
		return true
	})
	if n != 5 {
		t.Fatalf("ScanEncoded walked %d rows, want 5", n)
	}
}

// TestConcurrentScansDecodeOnce: DAG workers read one sealed δ together —
// the Comps of its parents and its install. Eight goroutines Scan,
// ScanEncoded, Digest and Sort one sealed delta at once, with no lock (run
// with -race), and all see the tuples its Seal decoded.
func TestConcurrentScansDecodeOnce(t *testing.T) {
	d := New(schema)
	for i := int64(0); i < 256; i++ {
		d.Add(tup(i), i%3-1)
	}
	sealed(t, d)
	want, digest := scanned(d), d.Digest()
	const readers = 8
	errs := make(chan string, readers)
	var wg sync.WaitGroup
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got := scanned(d)
				d.ScanEncoded(func(key string, tp relation.Tuple, _ int64) bool {
					if !sameTuple(tp, got[tp[0].Int()]) {
						errs <- fmt.Sprintf("reader %d: ScanEncoded and Scan disagree on %q", g, key)
						return false
					}
					return true
				})
				if d.Digest() != digest || len(d.Sorted()) != len(want) || len(got) != len(want) {
					errs <- fmt.Sprintf("reader %d: digest, Sorted or Scan changed under readers", g)
				}
				for k, tp := range want {
					if !sameTuple(tp, got[k]) {
						errs <- fmt.Sprintf("reader %d holds another decoding of tuple %d", g, k)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestReadOfUnsealedDeltaPanics: every read that hands out tuples of a
// delta holding appends no Seal has folded in panics with ErrUnsealed —
// there is no lazy seal — and a fresh delta reads as sealed and empty.
func TestReadOfUnsealedDeltaPanics(t *testing.T) {
	if d := New(schema); !d.IsEmpty() || d.Size() != 0 {
		t.Fatal("a fresh delta is not empty")
	}
	reads := map[string]func(d *Delta){
		"Scan":        func(d *Delta) { d.Scan(func(relation.Tuple, int64) bool { return true }) },
		"ScanEncoded": func(d *Delta) { d.ScanEncoded(func(string, relation.Tuple, int64) bool { return true }) },
		"Sorted":      func(d *Delta) { d.Sorted() },
		"Merge":       func(d *Delta) { New(schema).Merge(d) },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			d := New(schema)
			d.Add(tup(1), 1)
			sealed(t, d)
			d.Add(tup(2), 1)
			defer func() {
				if r := recover(); r != ErrUnsealed {
					t.Fatalf("%s of an unsealed delta recovered %v, want ErrUnsealed", name, r)
				}
			}()
			read(d)
		})
	}
}

// TestCountingReadsSeeUnsealedAppends: Size, PlusCount, MinusCount,
// Distinct, IsEmpty and Digest of a delta holding appends read what a Seal
// would fold in, and leave the appends unsealed.
func TestCountingReadsSeeUnsealedAppends(t *testing.T) {
	d := New(schema)
	d.Add(tup(1), 2)
	d.Add(tup(2), -1)
	sealed(t, d)
	d.Add(tup(2), 1) // cancels a sealed row
	d.Add(tup(3), -3)
	d.Add(tup(4), 1)
	d.Add(tup(4), -1) // cancels within the appends
	d.Add(tup(1), 1)
	want := New(schema)
	want.Add(tup(1), 3)
	want.Add(tup(3), -3)
	sealed(t, want)
	if d.Size() != 6 || d.PlusCount() != 3 || d.MinusCount() != 3 || d.Distinct() != 2 || d.IsEmpty() || d.Digest() != want.Digest() {
		t.Fatalf("unsealed reads size %d +%d -%d distinct %d empty %v digest %016x, want 6 +3 -3 2 false %016x",
			d.Size(), d.PlusCount(), d.MinusCount(), d.Distinct(), d.IsEmpty(), d.Digest(), want.Digest())
	}
	if len(d.tail) != 5 {
		t.Fatalf("a counting read sealed the delta: %d appends left", len(d.tail))
	}
	if sealed(t, d).Digest() != want.Digest() || d.Size() != 6 {
		t.Fatal("the sealed delta disagrees with its unsealed reads")
	}
}

// TestSealRefusesABadKey: a key that is not a row of the schema's width is
// Seal's error, which leaves the run as it was.
func TestSealRefusesABadKey(t *testing.T) {
	d := New(schema)
	d.Add(tup(1), 1)
	sealed(t, d)
	for _, key := range []string{"\xff", relation.Tuple{relation.NewInt(1), relation.NewInt(2)}.Encode()} {
		d.AddEncoded(key, 1)
		if err := d.Seal(); err == nil {
			t.Fatalf("Seal took key %q", key)
		}
		if d.Size() != 1 {
			t.Fatalf("a refused Seal left %d rows", d.Size())
		}
	}
}

// TestDigestIsTheCRCOfKeyAndCount: Digest is the XOR over rows of
// hash/crc64's CRC-64/ECMA of the encoded tuple followed by the varint count
// — the value journals record — on drawn deltas with keys shorter and
// longer than a slicing step.
func TestDigestIsTheCRCOfKeyAndCount(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(52))
	schema := relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "s", Kind: relation.KindString}}
	for trial := 0; trial < 50; trial++ {
		d := New(schema)
		for i, n := 0, rng.Intn(100); i < n; i++ {
			d.Add(relation.Tuple{relation.NewInt(rng.Int63()), relation.NewString(strings.Repeat("y", rng.Intn(90)))}, rng.Int63n(2001)-1000)
		}
		var want uint64
		var buf [binary.MaxVarintLen64]byte
		sealed(t, d).ScanEncoded(func(key string, _ relation.Tuple, count int64) bool {
			crc := crc64.Update(0, table, []byte(key))
			want ^= crc64.Update(crc, table, buf[:binary.PutVarint(buf[:], count)])
			return true
		})
		if got := d.Digest(); got != want {
			t.Fatalf("trial %d: Digest %016x, CRC of key and count %016x", trial, got, want)
		}
	}
}

// FuzzSealedDelta applies drawn Add, AddEncoded, Merge and Seal sequences to
// a delta and to a reference map of signed counts. After every Seal it holds
// the run to the map: keys strictly ascending, each tuple its key decoded, no
// zero count. After every op, sealed or not, Size, PlusCount, MinusCount,
// Distinct and Digest are the map's. Each op is three bytes: the op, a row
// and a count.
func FuzzSealedDelta(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 254, 3, 0, 0})
	f.Add([]byte{0, 17, 5, 2, 17, 251, 0, 40, 1, 3, 0, 0, 1, 40, 255, 3, 0, 0})
	f.Add([]byte{2, 3, 7, 0, 3, 249, 2, 200, 128, 3, 0, 0})
	schema := relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "s", Kind: relation.KindString}}
	row := func(b byte) relation.Tuple {
		return relation.Tuple{relation.NewInt(int64(b%16) - 8), relation.NewString(strings.Repeat("x", int(b/16)))}
	}
	ecma := crc64.MakeTable(crc64.ECMA)
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := New(schema)
		ref, appended := make(map[string]int64), make(map[string]int64)
		// check holds the counting reads to ref and appended summed and, on a
		// sealed delta, the run to ref.
		check := func() {
			want := maps.Clone(ref)
			for k, c := range appended {
				want[k] += c
			}
			var plus, minus int64
			var digest uint64
			var buf [binary.MaxVarintLen64]byte
			n := 0
			for k, c := range want {
				switch {
				case c > 0:
					plus += c
				case c < 0:
					minus -= c
				default:
					continue
				}
				n++
				digest ^= crc64.Update(crc64.Update(0, ecma, []byte(k)), ecma, buf[:binary.PutVarint(buf[:], c)])
			}
			if d.Distinct() != n || d.PlusCount() != plus || d.MinusCount() != minus || d.Size() != plus+minus || d.Digest() != digest || d.IsEmpty() != (n == 0) {
				t.Fatalf("distinct %d +%d -%d size %d digest %016x; the reference holds %d rows +%d -%d digest %016x",
					d.Distinct(), d.PlusCount(), d.MinusCount(), d.Size(), d.Digest(), n, plus, minus, digest)
			}
			if len(appended) > 0 {
				return
			}
			prev, rows := "", 0
			d.ScanEncoded(func(key string, tp relation.Tuple, count int64) bool {
				if rows > 0 && key <= prev {
					t.Fatalf("key %q after %q", key, prev)
				}
				if count == 0 || count != ref[key] || tp.Encode() != key {
					t.Fatalf("row %v (%q) count %d, the reference holds %d", tp, key, count, ref[key])
				}
				prev, rows = key, rows+1
				return true
			})
			if rows != n {
				t.Fatalf("run of %d rows; the reference holds %d", rows, n)
			}
		}
		seal := func() {
			sealed(t, d)
			for k, c := range appended {
				ref[k] += c
			}
			clear(appended)
			check()
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			tp, count := row(ops[1]), int64(int8(ops[2]))
			switch ops[0] % 4 {
			case 0:
				d.Add(tp, count)
				appended[tp.Encode()] += count
			case 1:
				d.AddEncoded(tp.Encode(), count)
				appended[tp.Encode()] += count
			case 2:
				// A sealed delta of two rows, the second cancelling part of
				// the first's neighbour, merged into d sealed.
				seal()
				o := New(schema)
				o.Add(tp, count)
				o.Add(row(ops[1]+1), -count/2)
				d.Merge(sealed(t, o))
				ref[tp.Encode()] += count
				ref[row(ops[1]+1).Encode()] -= count / 2
			default:
				seal()
			}
			check()
		}
		seal()
	})
}

// BenchmarkSeal prices a delta of LINEITEM-shaped rows — seven columns,
// half of them inserts and half deletes — from its appends to its first
// read: Add of every row, Seal, and Digest, at a serve-ingest batch's size
// and at a batch-seq window's. ns/row is per row.
func BenchmarkSeal(b *testing.B) {
	schema := relation.Schema{
		{Name: "orderkey", Kind: relation.KindInt}, {Name: "partkey", Kind: relation.KindInt},
		{Name: "suppkey", Kind: relation.KindInt}, {Name: "linenumber", Kind: relation.KindInt},
		{Name: "quantity", Kind: relation.KindFloat}, {Name: "price", Kind: relation.KindFloat},
		{Name: "shipdate", Kind: relation.KindDate},
	}
	for _, n := range []int{610, 24_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = relation.Tuple{relation.NewInt(rng.Int63n(600_000)), relation.NewInt(rng.Int63n(20_000)),
				relation.NewInt(rng.Int63n(1_000)), relation.NewInt(int64(i % 7)), relation.NewFloat(float64(rng.Intn(50))),
				relation.NewFloat(float64(rng.Intn(10_000_000)) / 100), relation.NewDate(8_000 + rng.Int63n(2_500))}
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := New(schema)
				for j, r := range rows {
					d.Add(r, int64(1-2*(j%2)))
				}
				if err := d.Seal(); err != nil {
					b.Fatal(err)
				}
				d.Digest()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
