package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

func testSchema() relation.Schema {
	return relation.Schema{
		{Name: "id", Kind: relation.KindInt},
		{Name: "v", Kind: relation.KindString},
	}
}

func cowRow(id int64, v string) relation.Tuple {
	return relation.Tuple{relation.NewInt(id), relation.NewString(v)}
}

// TestTableCloneIsolation: mutations through either handle of a COW clone
// pair are invisible to the other.
func TestTableCloneIsolation(t *testing.T) {
	a := NewTable(testSchema())
	a.Insert(cowRow(1, "x"), 2)
	a.Insert(cowRow(2, "y"), 1)

	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone differs from original before any mutation")
	}

	// Mutate the clone: the original must not move.
	b.Insert(cowRow(3, "z"), 1)
	if err := b.Delete(cowRow(1, "x"), 1); err != nil {
		t.Fatal(err)
	}
	if a.Cardinality() != 3 || a.Count(cowRow(3, "z")) != 0 || a.Count(cowRow(1, "x")) != 2 {
		t.Fatalf("original changed under clone mutation: card=%d", a.Cardinality())
	}
	if b.Cardinality() != 3 || b.Count(cowRow(1, "x")) != 1 || b.Count(cowRow(3, "z")) != 1 {
		t.Fatalf("clone state wrong: card=%d", b.Cardinality())
	}

	// Mutate the original afterwards: the clone must not move either.
	a.Insert(cowRow(4, "w"), 5)
	if b.Count(cowRow(4, "w")) != 0 {
		t.Fatal("clone saw the original's post-clone insert")
	}
}

// TestTableCloneChain: clones of clones stay independent.
func TestTableCloneChain(t *testing.T) {
	a := NewTable(testSchema())
	a.Insert(cowRow(1, "x"), 1)
	b := a.Clone()
	c := b.Clone()
	c.Insert(cowRow(2, "y"), 1)
	b.Insert(cowRow(3, "z"), 1)
	if a.Cardinality() != 1 || b.Cardinality() != 2 || c.Cardinality() != 2 {
		t.Fatalf("cards: a=%d b=%d c=%d", a.Cardinality(), b.Cardinality(), c.Cardinality())
	}
	if b.Count(cowRow(2, "y")) != 0 || c.Count(cowRow(3, "z")) != 0 {
		t.Fatal("sibling clones leaked mutations into each other")
	}
}

// TestTableClearDetaches: Clear on one handle abandons the shared map
// instead of emptying it under the other handle.
func TestTableClearDetaches(t *testing.T) {
	a := NewTable(testSchema())
	a.Insert(cowRow(1, "x"), 1)
	b := a.Clone()
	b.Clear()
	if a.Cardinality() != 1 {
		t.Fatal("Clear on clone emptied the original")
	}
	b.Insert(cowRow(9, "q"), 1)
	if a.Count(cowRow(9, "q")) != 0 {
		t.Fatal("post-Clear insert leaked into the original")
	}
}

// TestTableApplyDeltaDetaches: installing a change batch through one handle
// leaves the other handle's bag untouched (the epoch-isolation property the
// online window layer builds on).
func TestTableApplyDeltaDetaches(t *testing.T) {
	a := NewTable(testSchema())
	a.Insert(cowRow(1, "x"), 2)
	b := a.Clone()

	d := delta.New(testSchema())
	d.Add(cowRow(1, "x"), -1)
	d.Add(cowRow(2, "y"), 3)
	if err := b.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if a.Count(cowRow(1, "x")) != 2 || a.Count(cowRow(2, "y")) != 0 {
		t.Fatal("ApplyDelta on clone mutated the original")
	}
}

// TestTableConcurrentReadersDuringCloneMutation: readers scanning the
// original handle race a clone that detaches and mutates — the exact shape
// of serving an epoch while an update window runs on its successor. Run
// under -race.
func TestTableConcurrentReadersDuringCloneMutation(t *testing.T) {
	a := NewTable(testSchema())
	for i := int64(0); i < 64; i++ {
		a.Insert(cowRow(i, "x"), 1)
	}
	b := a.Clone()

	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var n int64
				a.Scan(func(_ relation.Tuple, count int64) bool {
					n += count
					return true
				})
				if n != 64 {
					panic(fmt.Sprintf("reader saw cardinality %d", n))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(100); i < 200; i++ {
			b.Insert(cowRow(i, "y"), 1)
		}
	}()
	wg.Wait()
	if a.Cardinality() != 64 || b.Cardinality() != 164 {
		t.Fatalf("cards after race: a=%d b=%d", a.Cardinality(), b.Cardinality())
	}
}

// TestPinnedTuplesSurviveSuccessor: the tuples a reader scanned from a
// pinned epoch's table are the stored ones, shared with the successor's
// clone — and stay bit-identical while the successor detaches, inserts,
// deletes every shared row and clears, with a reader scanning the pinned
// handle throughout. Run under -race.
func TestPinnedTuplesSurviveSuccessor(t *testing.T) {
	pinned := NewTable(testSchema())
	for i := int64(0); i < 64; i++ {
		pinned.Insert(cowRow(i, fmt.Sprint("v", i)), 1+i%3)
	}
	held := pinned.SortedRows() // what a reader of the pinned epoch keeps
	want := make([]string, len(held))
	for i, r := range held {
		want[i] = r.Tuple.Encode()
	}
	wantBag := scanBag(pinned)
	next := pinned.Clone()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !sameBag(scanBag(pinned), wantBag) {
				panic("pinned handle's scan changed under the successor's writes")
			}
		}
	}()
	for i := int64(100); i < 200; i++ {
		next.Insert(cowRow(i, "new"), 1)
	}
	for _, r := range held {
		if err := next.Delete(r.Tuple, r.Count); err != nil {
			t.Error(err)
			break
		}
	}
	d := delta.New(testSchema())
	d.Add(cowRow(0, "v0"), 2)
	d.Add(cowRow(150, "new"), -1)
	if err := next.ApplyDelta(d); err != nil {
		t.Error(err)
	}
	next.Clear()
	close(stop)
	wg.Wait()

	for i, r := range held {
		if r.Tuple.Encode() != want[i] {
			t.Fatalf("held tuple %d changed: %v", i, r.Tuple)
		}
	}
	if !sameBag(scanBag(pinned), wantBag) || next.Cardinality() != 0 {
		t.Fatalf("after the successor's writes: pinned card %d, successor card %d", pinned.Cardinality(), next.Cardinality())
	}
}

// TestAggTableCloneIsolation: Apply through either handle of a cloned
// aggregate table leaves the other untouched, including in-place
// accumulator folds.
func TestAggTableCloneIsolation(t *testing.T) {
	gs := relation.Schema{{Name: "g", Kind: relation.KindString}}
	specs := []delta.AggSpec{{Kind: delta.AggSum, ValueKind: relation.KindInt}}
	a := NewAggTable(gs, specs, []string{"total"})

	apply := func(tbl *AggTable, g string, v, support int64) {
		t.Helper()
		p := delta.NewGroupPartials(gs, specs)
		p.Accumulate(relation.Tuple{relation.NewString(g)}, []relation.Value{relation.NewInt(v)}, support)
		if err := tbl.Apply(p); err != nil {
			t.Fatal(err)
		}
	}
	apply(a, "west", 10, 2)
	b := a.Clone()

	apply(b, "west", 5, 1) // folds into the shared accumulator unless detached
	apply(b, "east", 7, 1)

	aRows, bRows := a.SortedRows(), b.SortedRows()
	if len(aRows) != 1 || aRows[0].Tuple.String() != "(west, 20)" {
		t.Fatalf("original moved under clone Apply: %v", aRows)
	}
	if len(bRows) != 2 || bRows[1].Tuple.String() != "(west, 25)" {
		t.Fatalf("clone state wrong: %v", bRows)
	}

	// And the reverse direction.
	apply(a, "west", 100, 1)
	if b.SortedRows()[1].Tuple.String() != "(west, 25)" {
		t.Fatal("original's post-clone Apply leaked into the clone")
	}
}

// TestAggTableRestoreGroupDetaches: snapshot restore through one handle
// must not overwrite groups the other handle still serves.
func TestAggTableRestoreGroupDetaches(t *testing.T) {
	gs := relation.Schema{{Name: "g", Kind: relation.KindString}}
	specs := []delta.AggSpec{{Kind: delta.AggCount}}
	a := NewAggTable(gs, specs, []string{"n"})
	p := delta.NewGroupPartials(gs, specs)
	p.Accumulate(relation.Tuple{relation.NewString("g1")}, []relation.Value{relation.Null}, 3)
	if err := a.Apply(p); err != nil {
		t.Fatal(err)
	}
	b := a.Clone()

	var key string
	var accums []*delta.Accum
	a.ScanGroups(func(gk string, _ int64, as []*delta.Accum) bool {
		key, accums = gk, as
		return false
	})
	if err := b.RestoreGroup(key, 99, accums); err != nil {
		t.Fatal(err)
	}
	if a.SortedRows()[0].Count != 1 || b.SortedRows()[0].Count != 1 {
		t.Fatal("unexpected group counts")
	}
	var support int64
	a.ScanGroups(func(_ string, s int64, _ []*delta.Accum) bool {
		support = s
		return false
	})
	if support != 3 {
		t.Fatalf("RestoreGroup on clone changed the original's support to %d", support)
	}
}

// pinnedView is everything a reader of a pinned epoch can have seen of one
// store, taken before the successor windows run and compared after them.
type pinnedView struct {
	scan   map[string]int64 // Scan's rows, encoded
	sorted []string         // SortedRows, in order
	held   []relation.Tuple // the scanned tuples themselves, still referenced
	digest uint64
}

func pinView(scan func(func(relation.Tuple, int64) bool), sorted func() []CountedTuple, digest uint64) pinnedView {
	p := pinnedView{scan: make(map[string]int64), digest: digest}
	scan(func(tup relation.Tuple, count int64) bool {
		p.scan[tup.Encode()] += count
		p.held = append(p.held, tup)
		return true
	})
	for _, r := range sorted() {
		p.sorted = append(p.sorted, fmt.Sprint(r.Tuple.Encode(), "x", r.Count))
	}
	return p
}

// same reports the first difference between what was pinned and what the
// handle shows now, or "".
func (p pinnedView) same(scan func(func(relation.Tuple, int64) bool), sorted func() []CountedTuple, digest uint64, heldEnc []string) string {
	now := pinView(scan, sorted, digest)
	switch {
	case !sameBag(now.scan, p.scan):
		return "Scan changed"
	case fmt.Sprint(now.sorted) != fmt.Sprint(p.sorted):
		return "SortedRows changed"
	case now.digest != p.digest:
		return "digest changed"
	}
	for i, tup := range p.held {
		if tup.Encode() != heldEnc[i] {
			return fmt.Sprintf("a tuple scanned earlier changed to %v", tup)
		}
	}
	return ""
}

// TestPinnedEpochSurvivesWindows: a reader pins an epoch's Table, AggTable
// and one-group MAX view, and fifty windows then run on successive clones,
// each writing into the buckets the pinned handles share — inserts (enough
// of them to double the directory), count changes, deletes, groups and
// values coming and going — while the reader rescans the pinned handles.
// Their Scan, SortedRows, digest and every tuple scanned earlier stay
// bit-identical throughout, and so does every probe of the table's two join
// indexes, one unique and one of fifteen rows a key, whose buckets and
// postings the windows replace as they write. Run under -race.
func TestPinnedEpochSurvivesWindows(t *testing.T) {
	const rows = 600
	gs := relation.Schema{{Name: "g", Kind: relation.KindInt}}
	sumSpecs := []delta.AggSpec{{Kind: delta.AggSum, ValueKind: relation.KindInt}, {Kind: delta.AggCount}}
	maxSpecs := []delta.AggSpec{{Kind: delta.AggMax, ValueKind: relation.KindInt}, {Kind: delta.AggMin, ValueKind: relation.KindInt}}
	tbl := NewTable(testSchema())
	sums := NewAggTable(gs, sumSpecs, []string{"total", "n"})
	ext := NewAggTable(nil, maxSpecs, []string{"hi", "lo"})

	// apply installs one batch: ids[i] gets count copies in the table, and
	// contributes to its group's sum and to the one MAX/MIN group.
	apply := func(tbl *Table, sums, ext *AggTable, ids []int64, count int64) {
		d := delta.New(testSchema())
		ps := delta.NewGroupPartials(gs, sumSpecs)
		pe := delta.NewGroupPartials(nil, maxSpecs)
		for _, id := range ids {
			d.Add(cowRow(id, fmt.Sprint("v", id%40)), count)
			ps.Accumulate(relation.Tuple{relation.NewInt(id % 40)}, []relation.Value{relation.NewInt(id), relation.Null}, count)
			pe.Accumulate(relation.Tuple{}, []relation.Value{relation.NewInt(id), relation.NewInt(id)}, count)
		}
		if err := tbl.ApplyDelta(d); err != nil {
			t.Error(err)
		}
		for _, step := range []struct {
			agg *AggTable
			p   *delta.GroupPartials
		}{{sums, ps}, {ext, pe}} {
			if _, err := step.agg.FinalizeDelta(step.p); err != nil {
				t.Error(err)
			}
			if err := step.agg.Apply(step.p); err != nil {
				t.Error(err)
			}
		}
	}
	var all []int64
	for id := int64(0); id < rows; id++ {
		all = append(all, id)
	}
	apply(tbl, sums, ext, all, 2)
	byID, _ := tbl.JoinIndex([]int{0})
	byV, _ := tbl.JoinIndex([]int{1})
	// probes renders what both indexes of the pinned handle yield, key by key.
	probes := func() string {
		var out []string
		for id := int64(0); id < rows; id++ {
			like := cowRow(id, fmt.Sprint("v", id))
			out = append(out, fmt.Sprint(probeBag(byID, like)))
			if id < 40 {
				out = append(out, fmt.Sprint(probeBag(byV, like)))
			}
		}
		return fmt.Sprint(out)
	}
	pinProbes := probes()

	pinTbl := pinView(tbl.Scan, tbl.SortedRows, tbl.Digest())
	pinSums := pinView(sums.Scan, sums.SortedRows, sums.Digest())
	pinExt := pinView(ext.Scan, ext.SortedRows, ext.Digest())
	encOf := func(p pinnedView) []string {
		out := make([]string, len(p.held))
		for i, tup := range p.held {
			out[i] = tup.Encode()
		}
		return out
	}
	encTbl, encSums, encExt := encOf(pinTbl), encOf(pinSums), encOf(pinExt)
	unchanged := func() string {
		if d := pinTbl.same(tbl.Scan, tbl.SortedRows, tbl.Digest(), encTbl); d != "" {
			return "table: " + d
		}
		if d := pinSums.same(sums.Scan, sums.SortedRows, sums.Digest(), encSums); d != "" {
			return "sum view: " + d
		}
		if d := pinExt.same(ext.Scan, ext.SortedRows, ext.Digest(), encExt); d != "" {
			return "max view: " + d
		}
		if probes() != pinProbes {
			return "table: an index probe changed"
		}
		return ""
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the reader of the pinned epoch
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := unchanged(); d != "" {
				t.Errorf("while the windows ran, the pinned %s", d)
				return
			}
		}
	}()

	// The first window clones the pinned handles; each later one clones its
	// predecessor, as epochs do.
	curT, curS, curE := tbl, sums, ext
	next := int64(rows)
	for win := 0; win < 50; win++ {
		curT, curS, curE = curT.Clone(), curS.Clone(), curE.Clone()
		var fresh []int64
		for i := 0; i < 40; i++ { // 2 000 new rows over the run: the directory doubles
			fresh = append(fresh, next)
			next++
		}
		apply(curT, curS, curE, fresh, 1)
		old := all[win*10 : win*10+10]         // rows the pinned epoch holds
		apply(curT, curS, curE, old[:5], 1)    // a count change
		apply(curT, curS, curE, old[5:], -2)   // a delete
		apply(curT, curS, curE, fresh[:3], -1) // and of rows this window inserted
		for _, err := range []error{curT.CheckDigest(), curS.CheckDigest(), curE.CheckDigest()} {
			if err != nil {
				t.Fatalf("window %d: %v", win, err)
			}
		}
		checkIndexes(t, fmt.Sprint("window ", win), curT)
	}
	close(stop)
	wg.Wait()
	if d := unchanged(); d != "" {
		t.Fatalf("after the windows, the pinned %s", d)
	}
	if want := int64(rows + 50*(40-3) - 50*5); curT.DistinctCount() != want {
		t.Fatalf("the last epoch holds %d rows, want %d", curT.DistinctCount(), want)
	}
	if hi := curE.SortedRows()[0].Tuple[0].Int(); hi != next-1 {
		t.Fatalf("the last epoch's MAX is %d, want %d", hi, next-1)
	}
}
