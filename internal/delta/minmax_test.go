package delta_test

import (
	"math/rand"
	"testing"

	"repro/internal/delta"
	"repro/internal/journal"
	"repro/internal/relation"
	"repro/internal/storage"
)

// scanExtreme is MIN/MAX as a full scan of a model bag computes it: what the
// cached extreme must equal.
func scanExtreme(kind delta.AggKind, bag map[int64]int64) relation.Value {
	best := relation.Null
	for v, n := range bag {
		if n <= 0 {
			continue
		}
		if best.IsNull() || (kind == delta.AggMin && v < best.Int()) || (kind == delta.AggMax && v > best.Int()) {
			best = relation.NewInt(v)
		}
	}
	return best
}

func sameValue(a, b relation.Value) bool {
	return a.IsNull() == b.IsNull() && (a.IsNull() || relation.Compare(a, b) == 0)
}

func wantOutput(t *testing.T, what string, a *delta.Accum, want relation.Value) {
	t.Helper()
	if got := a.Output(1); !sameValue(got, want) {
		t.Fatalf("%s: output %v, want %v", what, got, want)
	}
}

// TestMinMaxExtremeDeletes walks the cases the cached extreme has to get
// right: deleting the current extreme while a duplicate of it remains,
// deleting its last copy (the next one is found by a scan), deleting down
// to empty (the group goes) and filling up again — through Add, and through
// a summary table's install, whose delta must be the group's old row out
// and its new row in, on a clone that leaves the state it came from as it
// was.
func TestMinMaxExtremeDeletes(t *testing.T) {
	group := relation.Schema{{Name: "g", Kind: relation.KindString}}
	for _, kind := range []delta.AggKind{delta.AggMin, delta.AggMax} {
		spec := delta.AggSpec{Kind: kind, ValueKind: relation.KindInt}
		ext, mid, far := int64(9), int64(5), int64(1) // best to worst for MAX
		if kind == delta.AggMin {
			ext, far = 1, 9
		}
		partial := func(changes ...int64) *delta.GroupPartials { // value, count pairs
			p := delta.NewGroupPartials(group, []delta.AggSpec{spec})
			for i := 0; i < len(changes); i += 2 {
				p.Accumulate(relation.Tuple{relation.NewString("g")}, []relation.Value{relation.NewInt(changes[i])}, changes[i+1])
			}
			return p
		}
		row := func(v relation.Value) relation.Tuple { return relation.Tuple{relation.NewString("g"), v} }
		rows := storage.NewSummaryTable(relation.Schema{group[0], {Name: "best", Kind: relation.KindInt}}, 1, []delta.AggSpec{spec})
		if _, _, err := rows.Apply(partial(ext, 2, mid, 1, far, 1), nil); err != nil {
			t.Fatal(err)
		}
		had := relation.NewInt(ext)

		step := func(what string, p *delta.GroupPartials, want relation.Value, wantValid bool) {
			t.Helper()
			before := rows.Digest()
			nextRows, d := rows.Clone(), delta.New(rows.Schema())
			_, _, err := nextRows.Apply(p, d)
			if (err == nil) != wantValid {
				t.Fatalf("%v %s: Apply returns %v, want valid=%v", kind, what, err, wantValid)
			}
			if err := d.Seal(); err != nil {
				t.Fatal(err)
			}
			if !wantValid {
				if !d.IsEmpty() || nextRows.Cardinality() != 1 {
					t.Fatalf("%v %s: a refused Apply left δ %v and %d groups", kind, what, d.Sorted(), nextRows.Cardinality())
				}
				return
			}
			wantD := delta.New(rows.Schema())
			if !had.IsNull() {
				wantD.Add(row(had), -1)
			}
			if !want.IsNull() {
				wantD.Add(row(want), 1)
			}
			if err := wantD.Seal(); err != nil {
				t.Fatal(err)
			}
			if d.Size() != wantD.Size() || d.Digest() != wantD.Digest() {
				t.Fatalf("%v %s: Apply appends δ %v, want %v", kind, what, d.Sorted(), wantD.Sorted())
			}
			if rows.Digest() != before {
				t.Fatalf("%v %s: Apply on a clone changed the original's rows to %v", kind, what, rows.SortedRows())
			}
			rows, had = nextRows, want
		}
		step("delete one of two copies of the extreme", partial(ext, -1), relation.NewInt(ext), true)
		step("delete its last copy", partial(ext, -1), relation.NewInt(mid), true)
		step("delete an absent value", partial(ext, -1), relation.Null, false)
		step("delete the extreme while a better one arrives", partial(mid, -1, ext, 1), relation.NewInt(ext), true)
		step("delete to empty", partial(ext, -1, far, -1), relation.Null, true)
		if rows.Cardinality() != 0 {
			t.Fatalf("%v: a group deleted to empty stays", kind)
		}
		step("refill", partial(far, 1), relation.NewInt(far), true)

		// The same through Add alone, on one accumulator.
		a := delta.NewAccum(spec)
		a.Add(relation.NewInt(ext), 2)
		a.Add(relation.NewInt(mid), 1)
		a.Add(relation.NewInt(ext), -1)
		wantOutput(t, "Add: duplicate of the extreme remains", a, relation.NewInt(ext))
		a.Add(relation.NewInt(ext), -1)
		wantOutput(t, "Add: last copy deleted", a, relation.NewInt(mid))
		a.Add(relation.NewInt(mid), -1)
		wantOutput(t, "Add: deleted to empty", a, relation.Null)
	}
}

// TestMinMaxMatchesScan drives random adds, folds, clones and encode/decode
// round trips against a model bag: after every operation the output is the
// extreme a scan of the model finds, on every live accumulator.
func TestMinMaxMatchesScan(t *testing.T) {
	for _, kind := range []delta.AggKind{delta.AggMin, delta.AggMax} {
		spec := delta.AggSpec{Kind: kind, ValueKind: relation.KindInt}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			type pair struct {
				a   *delta.Accum
				bag map[int64]int64
			}
			live := []pair{{delta.NewAccum(spec), map[int64]int64{}}}
			for op := 0; op < 400; op++ {
				i := rng.Intn(len(live))
				cur := live[i]
				switch r := rng.Intn(10); {
				case r == 0 && len(live) < 5:
					bag := make(map[int64]int64, len(cur.bag))
					for k, v := range cur.bag {
						bag[k] = v
					}
					c := cur.a.Clone()
					live = append(live, pair{&c, bag})
				case r == 1:
					c := journal.NewCursor("test: accumulator", cur.a.AppendBinary(nil))
					back := delta.DecodeAccum(c, spec)
					if err := c.Done(); err != nil {
						t.Fatal(err)
					}
					live[i].a = back
				case r < 5:
					// A partial that only deletes present copies or adds.
					p := delta.NewAccum(spec)
					for n := rng.Intn(6); n >= 0; n-- {
						v := rng.Int63n(12)
						count := int64(1 + rng.Intn(2))
						if rng.Intn(2) == 0 && cur.bag[v] > 0 {
							count = -(1 + rng.Int63n(cur.bag[v]))
						}
						p.Add(relation.NewInt(v), count)
						cur.bag[v] += count
					}
					if !cur.a.CanFold(p) || !cur.a.Fold(p) {
						t.Fatalf("%v seed %d op %d: a legal fold reports invalid", kind, seed, op)
					}
				default:
					v := rng.Int63n(12)
					count := int64(1 + rng.Intn(2))
					if rng.Intn(2) == 0 && cur.bag[v] > 0 {
						count = -1
					}
					cur.a.Add(relation.NewInt(v), count)
					cur.bag[v] += count
				}
				for j, l := range live {
					if got, want := l.a.Output(1), scanExtreme(kind, l.bag); !sameValue(got, want) {
						t.Fatalf("%v seed %d op %d: accumulator %d outputs %v, a scan of its values gives %v", kind, seed, op, j, got, want)
					}
					if !l.a.Valid() {
						t.Fatalf("%v seed %d op %d: accumulator %d reports invalid", kind, seed, op, j)
					}
				}
			}
		}
	}
}
