package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

// installSpecs is one aggregate of every kind the engine maintains, on an
// integer and on a float input.
var installSpecs = []delta.AggSpec{
	{Kind: delta.AggSum, ValueKind: relation.KindInt},
	{Kind: delta.AggSum, ValueKind: relation.KindFloat},
	{Kind: delta.AggCount},
	{Kind: delta.AggAvg, ValueKind: relation.KindInt},
	{Kind: delta.AggAvg, ValueKind: relation.KindFloat},
	{Kind: delta.AggMin, ValueKind: relation.KindInt},
	{Kind: delta.AggMax, ValueKind: relation.KindInt},
	{Kind: delta.AggMin, ValueKind: relation.KindFloat},
	{Kind: delta.AggMax, ValueKind: relation.KindFloat},
}

// installGroups is the tables' one grouping column.
var installGroups = relation.Schema{{Name: "g", Kind: relation.KindInt}}

// newInstallTable is an empty store grouped on g with installSpecs.
func newInstallTable() *Table {
	names := make([]string, len(installSpecs))
	for i := range names {
		names[i] = fmt.Sprint("a", i)
	}
	return newSummary(installGroups, installSpecs, names...)
}

// installRow accumulates count copies of the row (g, v) into p: every
// aggregate reads v, as an integer or as a float of it.
func installRow(p *delta.GroupPartials, g, v, count int64) {
	inputs := make([]relation.Value, len(installSpecs))
	for i, s := range installSpecs {
		if s.ValueKind == relation.KindFloat {
			inputs[i] = relation.NewFloat(float64(v) / 4)
		} else {
			inputs[i] = relation.NewInt(v)
		}
	}
	p.Accumulate(relation.Tuple{relation.NewInt(g)}, inputs, count)
}

// TestAggApplyMatchesTwoPass draws batches against a model bag of (group,
// value) rows — groups created, deleted, changed, changed back to the row
// they had, and groups that lose the last copy of their MIN/MAX extreme —
// and installs each with a delta to append to: the rows and digest Apply
// reports are that delta's Size and Digest, and the old rows with the delta
// applied are the new ones. A second handle installs the same batch with no
// delta and ends with the same rows and digest. Every other batch is
// installed on fresh clones, whose buckets are all shared, and the others on
// the handle the batch before wrote. On even seeds the table of output rows
// holds its join index on column 0, so that its rows are placed by their
// group, and the index stays equal to a rebuild.
func TestAggApplyMatchesTwoPass(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cur := newInstallTable()
		if seed%2 == 0 {
			cur.JoinIndex([]int{0})
		}
		model := make(map[[2]int64]int64) // (group, value) → count
		nextGroup := int64(0)
		kinds := make(map[string]int)
		for batch := 0; batch < 40; batch++ {
			p := delta.NewGroupPartials(installGroups, installSpecs)
			add := func(g, v, count int64) {
				installRow(p, g, v, count)
				model[[2]int64{g, v}] += count
				if model[[2]int64{g, v}] == 0 {
					delete(model, [2]int64{g, v})
				}
			}
			byGroup := make(map[int64][][2]int64) // group → its (value, count)
			for gv, n := range model {
				byGroup[gv[0]] = append(byGroup[gv[0]], [2]int64{gv[1], n})
			}
			for g, vals := range byGroup {
				switch rng.Intn(6) {
				case 0: // the group goes
					kinds["deleted"]++
					for _, vc := range vals {
						add(g, vc[0], -vc[1])
					}
				case 1: // a row goes and an equal one comes: the same output row
					kinds["changed back"]++
					add(g, vals[0][0], -1)
					add(g, vals[0][0], 1)
				case 2: // the MAX's (or the MIN's) last copy goes, another value stays
					best := vals[0]
					for _, vc := range vals {
						if vc[0] != best[0] && (vc[0] > best[0]) == (batch%2 == 0) {
							best = vc
						}
					}
					if len(vals) > 1 {
						kinds["extreme deleted"]++
						add(g, best[0], -best[1])
					}
				case 3: // changed
					kinds["changed"]++
					add(g, rng.Int63n(50)-10, 1+rng.Int63n(2))
					if vc := vals[rng.Intn(len(vals))]; model[[2]int64{g, vc[0]}] > 0 {
						add(g, vc[0], -1)
					}
				}
			}
			for i := rng.Intn(6); i > 0; i-- { // new groups
				kinds["created"]++
				g := nextGroup
				nextGroup++
				for j := 1 + rng.Intn(4); j > 0; j-- {
					add(g, rng.Int63n(50)-10, 1+rng.Int63n(3))
				}
			}
			if rng.Intn(4) == 0 { // a group that comes and goes within the batch
				add(nextGroup, 7, 1)
				add(nextGroup, 7, -1)
				nextGroup++
			}

			before, ref := aggRows(cur), newInstallTable()
			if batch%2 == 0 {
				ref, cur = cur.Clone(), cur.Clone()
			} else { // a copy built group by group, which shares no state with cur
				cur.ScanGroups(func(key string, support int64, accums []delta.Accum) bool {
					restoreGroup(t, ref, key, support, accums)
					return true
				})
			}
			if _, _, err := ref.Apply(p, nil); err != nil {
				t.Fatalf("seed %d batch %d: Apply with no delta: %v", seed, batch, err)
			}
			d := delta.New(cur.Schema())
			rows, digest, err := cur.Apply(p, d)
			if err == nil {
				err = d.Seal()
			}
			if err != nil {
				t.Fatalf("seed %d batch %d: Apply: %v", seed, batch, err)
			}
			if rows != d.Size() || digest != d.Digest() {
				t.Fatalf("seed %d batch %d: Apply installed %d rows, digest %016x; its delta has %d, %016x",
					seed, batch, rows, digest, d.Size(), d.Digest())
			}
			if _, err := before.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			if !before.Equal(aggRows(cur)) || !before.Equal(aggRows(ref)) {
				t.Fatalf("seed %d batch %d: rows after Apply differ from the old rows with its delta applied", seed, batch)
			}
			if cur.Digest() != ref.Digest() || cur.Digest() != before.Digest() {
				t.Fatalf("seed %d batch %d: table digests %016x (with a delta), %016x (without), %016x (rows)",
					seed, batch, cur.Digest(), ref.Digest(), before.Digest())
			}
			if err := cur.CheckDigest(); err != nil {
				t.Fatal(err)
			}
			if err := cur.CheckIndexes(); err != nil {
				t.Fatalf("seed %d batch %d: %v", seed, batch, err)
			}
		}
		if st := cur.IndexStats(); seed%2 == 0 && !st[0].Placed {
			t.Fatalf("seed %d: the index on the group column does not place the rows", seed)
		}
		for _, k := range []string{"deleted", "changed back", "extreme deleted", "changed", "created"} {
			if kinds[k] == 0 {
				t.Fatalf("seed %d drew no group %s", seed, k)
			}
		}
	}
}

// TestAggApplyRefusesWithoutWriting: a batch that would take a group's
// support below zero, or one of a surviving group's MIN/MAX value counts —
// of a group the table holds or of a new one — is refused, and the table
// keeps its rows and digest, although the batch's other groups are valid.
func TestAggApplyRefusesWithoutWriting(t *testing.T) {
	base := newInstallTable()
	load := delta.NewGroupPartials(installGroups, installSpecs)
	for g := int64(0); g < 20; g++ {
		installRow(load, g, 5, 2)
	}
	if _, _, err := base.Apply(load, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		bad  func(p *delta.GroupPartials)
	}{
		{"negative support", func(p *delta.GroupPartials) { installRow(p, 3, 5, -3) }},
		{"absent value of a held group", func(p *delta.GroupPartials) {
			installRow(p, 3, 5, 1)
			installRow(p, 3, 99, -1)
		}},
		{"value count below zero", func(p *delta.GroupPartials) {
			installRow(p, 3, 6, 2)
			installRow(p, 3, 5, -3)
		}},
		{"absent value of a new group", func(p *delta.GroupPartials) {
			installRow(p, 100, 1, 2)
			installRow(p, 100, 2, -1)
		}},
	} {
		for _, cloned := range []bool{false, true} {
			at := base
			if cloned {
				at = base.Clone()
			}
			rows, digest := aggRows(at), at.Digest()
			p := delta.NewGroupPartials(installGroups, installSpecs)
			for g := int64(0); g < 20; g++ {
				if g != 3 {
					installRow(p, g, 7, 1) // valid changes to the other groups
				}
			}
			installRow(p, 50, 1, 1) // and a valid new group
			tc.bad(p)
			if _, _, err := at.Apply(p, nil); err == nil {
				t.Errorf("%s: Apply accepted the batch", tc.name)
			}
			if at.Digest() != digest || !rows.Equal(aggRows(at)) {
				t.Errorf("%s (cloned %v): the refused batch changed the table", tc.name, cloned)
			}
			if err := at.CheckDigest(); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}
}

// TestApplyDeltaReportsTheDeltaDigest: the digest ApplyDelta reports is the
// installed delta's Digest, over drawn batches of inserts, deletes and
// count changes, on a table without indexes, one whose join index on its
// second column files the rows in a map of its own, and one placed by its
// first column.
func TestApplyDeltaReportsTheDeltaDigest(t *testing.T) {
	sch := relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "v", Kind: relation.KindString}}
	for _, shape := range []struct {
		name  string
		index []int
	}{{"plain", nil}, {"indexed", []int{1}}, {"placed", []int{0}}} {
		rng := rand.New(rand.NewSource(7))
		tbl := NewTable(sch)
		if shape.index != nil {
			tbl.JoinIndex(shape.index)
		}
		model := make(map[int64]int64) // row id → count
		rowOf := func(id int64) relation.Tuple {
			return relation.Tuple{relation.NewInt(id % 13), relation.NewString(fmt.Sprint("v", id))}
		}
		for batch := 0; batch < 30; batch++ {
			d := delta.New(sch)
			add := func(id, count int64) {
				d.Add(rowOf(id), count)
				if model[id] += count; model[id] == 0 {
					delete(model, id)
				}
			}
			for id, n := range model {
				switch rng.Intn(4) {
				case 0:
					add(id, -n) // delete
				case 1:
					add(id, -1-rng.Int63n(n)+rng.Int63n(3)) // count change
				}
			}
			for i := rng.Intn(8); i > 0; i-- {
				add(rng.Int63n(60), 1+rng.Int63n(3)) // insert, or more copies
			}
			d.Seal()
			digest, err := tbl.ApplyDelta(d)
			if err != nil {
				t.Fatalf("%s batch %d: %v", shape.name, batch, err)
			}
			if want := d.Digest(); digest != want {
				t.Fatalf("%s batch %d: ApplyDelta reports digest %016x, the delta's is %016x", shape.name, batch, digest, want)
			}
			if err := tbl.CheckDigest(); err != nil {
				t.Fatal(err)
			}
		}
		if placed := tbl.placed > 0; placed != (shape.name == "placed") {
			t.Fatalf("%s: the table is placed: %v", shape.name, placed)
		}
	}
}
