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
