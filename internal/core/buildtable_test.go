package core

import (
	"testing"

	"repro/internal/relation"
)

// intRows makes one two-column row (key, payload) per key, payloads
// numbered so that duplicate keys stay distinguishable.
func intRows(keys ...int64) []prow {
	rows := make([]prow, len(keys))
	for i, k := range keys {
		rows[i] = prow{row: relation.Tuple{relation.NewInt(k), relation.NewInt(int64(i))}, count: int64(1 + i%3)}
	}
	return rows
}

// readAll marks every column of a joined row of the given width read, as
// CQ.ReadColumns does for a definition that selects them all: the pipelines
// built by hand here sink whole rows, so every column is live.
func readAll(width int) []bool {
	read := make([]bool, width)
	for c := range read {
		read[c] = true
	}
	return read
}

// probeBag returns what the pipeline's probe emits for one driver row equal
// to key against bt (whose rows are two columns wide, keyed on their first
// len(key) columns): matched tuple encoding → total count.
func probeBag(t *testing.T, bt *buildTable, key relation.Tuple) map[string]int64 {
	t.Helper()
	read := readAll(len(key) + 2)
	step := joinStep{roff: len(key), live: liveColumns(read, len(key), 2)}
	for i := range key {
		step.keys = append(step.keys, equiKey{boundCol: i, newCol: len(key) + i})
	}
	p := pipeline{live: liveColumns(read, 0, len(key)), width: len(read), steps: []joinStep{step}}
	bag := make(map[string]int64)
	sink := func(row relation.Tuple, count int64) { bag[row[len(key):].Encode()] += count }
	p.run([]prow{{row: key, count: 1}}, []stepSide{{build: bt}}, sink)
	return bag
}

// wantBag is the same by brute force over the rows.
func wantBag(rows []prow, cols []int, key relation.Tuple) map[string]int64 {
	bag := make(map[string]int64)
	for _, r := range rows {
		if relation.CompareTuples(r.row.Project(cols), key) == 0 {
			bag[r.row.Encode()] += r.count
		}
	}
	return bag
}

func equalBags(a, b map[string]int64) bool {
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

func reversed(rows []prow) []prow {
	out := make([]prow, len(rows))
	for i, r := range rows {
		out[len(rows)-1-i] = r
	}
	return out
}

// TestBuildTableSharedChains: distinct keys that land on one head — the
// path a collision on the whole 64-bit hash takes too, since a probe tells
// keys apart by their bytes alone — and duplicate keys are each matched
// exactly, and the order rows were chained in never shows in the bag.
func TestBuildTableSharedChains(t *testing.T) {
	// Six rows get eight heads: find two keys that share one and a third
	// elsewhere, and use the first three times, the second twice.
	head := func(k int64) uint64 {
		return hashBytes(relation.Tuple{relation.NewInt(k)}.AppendEncoded(nil)) & 7
	}
	a := int64(1)
	b := a + 1
	for head(b) != head(a) {
		b++
	}
	c := b + 1
	for head(c) == head(a) {
		c++
	}
	rows := intRows(a, b, a, c, b, a)
	cols := []int{0}
	fwd, rev := newBuildTable(rows, cols), newBuildTable(reversed(rows), cols)

	shared := false
	for i := fwd.first(relation.Tuple{relation.NewInt(a)}.AppendEncoded(nil)); i != 0; i = fwd.entries[i-1].next {
		if fwd.entries[i-1].tup[0].Int() == b {
			shared = true
		}
	}
	if !shared {
		t.Fatalf("keys %d and %d were meant to share a chain", a, b)
	}
	for _, k := range []int64{a, b, c, c + 1000} {
		key := relation.Tuple{relation.NewInt(k)}
		want := wantBag(rows, cols, key)
		if got := probeBag(t, fwd, key); !equalBags(got, want) {
			t.Errorf("key %d: probe emits %v, want %v", k, got, want)
		}
		if got := probeBag(t, rev, key); !equalBags(got, want) {
			t.Errorf("key %d, rows chained in reverse: probe emits %v, want %v", k, got, want)
		}
	}
}

// TestBuildTableCrossProduct: with no key columns every entry has the empty
// key and every probe matches every row, whatever the chain order.
func TestBuildTableCrossProduct(t *testing.T) {
	rows := intRows(5, 6, 5, 7)
	want := wantBag(rows, nil, relation.Tuple{})
	for _, in := range [][]prow{rows, reversed(rows)} {
		bt := newBuildTable(in, nil)
		if got := probeBag(t, bt, relation.Tuple{}); len(got) != 4 || !equalBags(got, want) {
			t.Fatalf("cross-product probe emits %v, want all of %v", got, want)
		}
		if len(bt.arena) != 0 {
			t.Fatalf("keyless build holds %d arena bytes", len(bt.arena))
		}
	}
	if got := probeBag(t, newBuildTable(nil, nil), relation.Tuple{}); len(got) != 0 {
		t.Fatalf("empty build matched %v", got)
	}
}

// TestBuildTableAllocations: a build allocates its entry array, head array,
// arena and a little scratch — the same handful for a hundred rows as for
// fifty thousand.
func TestBuildTableAllocations(t *testing.T) {
	for _, n := range []int{100, 50_000} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(i % (n/2 + 1))
		}
		rows := intRows(keys...)
		allocs := testing.AllocsPerRun(3, func() { newBuildTable(rows, []int{0}) })
		if allocs > 8 {
			t.Errorf("build of %d rows allocated %v times, want at most 8", n, allocs)
		}
	}
}
