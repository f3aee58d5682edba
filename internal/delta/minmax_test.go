package delta

import (
	"math/rand"
	"testing"

	"repro/internal/journal"
	"repro/internal/relation"
)

// scanExtreme is MIN/MAX as a full scan of a model bag computes it: what the
// cached extreme must equal.
func scanExtreme(kind AggKind, bag map[int64]int64) relation.Value {
	best := relation.Null
	for v, n := range bag {
		if n <= 0 {
			continue
		}
		if best.IsNull() || (kind == AggMin && v < best.Int()) || (kind == AggMax && v > best.Int()) {
			best = relation.NewInt(v)
		}
	}
	return best
}

func sameValue(a, b relation.Value) bool {
	return a.IsNull() == b.IsNull() && (a.IsNull() || relation.Compare(a, b) == 0)
}

func wantOutput(t *testing.T, what string, a *Accum, want relation.Value) {
	t.Helper()
	if got := a.Output(1); !sameValue(got, want) {
		t.Fatalf("%s: output %v, want %v", what, got, want)
	}
}

// TestMinMaxExtremeDeletes walks the cases the cached extreme has to get
// right: deleting the current extreme while a duplicate of it remains,
// deleting its last copy (the next one is found by a scan), deleting down
// to empty (NULL) and filling up again — through Add, through Fold, and in
// the preview FinalizeDelta reads (Folded).
func TestMinMaxExtremeDeletes(t *testing.T) {
	for _, kind := range []AggKind{AggMin, AggMax} {
		spec := AggSpec{Kind: kind, ValueKind: relation.KindInt}
		ext, mid, far := int64(9), int64(5), int64(1) // best to worst for MAX
		if kind == AggMin {
			ext, far = 1, 9
		}
		partial := func(changes ...int64) *Accum { // value, count pairs
			p := NewAccum(spec)
			for i := 0; i < len(changes); i += 2 {
				p.Add(relation.NewInt(changes[i]), changes[i+1])
			}
			return p
		}
		state := partial(ext, 2, mid, 1, far, 1)
		wantOutput(t, "loaded", state, relation.NewInt(ext))

		step := func(what string, p *Accum, want relation.Value, wantValid bool) {
			t.Helper()
			preview, valid := state.Folded(p, 1)
			if valid != wantValid {
				t.Fatalf("%v %s: Folded reports valid=%v, want %v", kind, what, valid, wantValid)
			}
			before := state.Output(1)
			if !wantValid {
				wantOutput(t, what+" (state after a preview)", state, before)
				return
			}
			if !sameValue(preview, want) {
				t.Fatalf("%v %s: Folded previews %v, want %v", kind, what, preview, want)
			}
			wantOutput(t, what+" (state after a preview)", state, before)
			next := state.Clone()
			if !next.Fold(p) {
				t.Fatalf("%v %s: Fold reports an invalid state", kind, what)
			}
			wantOutput(t, what+" (folded clone)", next, want)
			wantOutput(t, what+" (original of the clone)", state, before)
			state = next
		}
		step("delete one of two copies of the extreme", partial(ext, -1), relation.NewInt(ext), true)
		step("delete its last copy", partial(ext, -1), relation.NewInt(mid), true)
		step("delete an absent value", partial(ext, -1), relation.Null, false)
		step("delete the extreme while a better one arrives", partial(mid, -1, ext, 1), relation.NewInt(ext), true)
		step("delete to empty", partial(ext, -1, far, -1), relation.Null, true)
		if !state.Valid() {
			t.Fatalf("%v: empty state reports invalid", kind)
		}
		step("refill", partial(far, 1), relation.NewInt(far), true)

		// The same through Add alone, on one accumulator.
		a := partial(ext, 2, mid, 1)
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
	for _, kind := range []AggKind{AggMin, AggMax} {
		spec := AggSpec{Kind: kind, ValueKind: relation.KindInt}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			type pair struct {
				a   *Accum
				bag map[int64]int64
			}
			live := []pair{{NewAccum(spec), map[int64]int64{}}}
			for op := 0; op < 400; op++ {
				i := rng.Intn(len(live))
				cur := live[i]
				switch r := rng.Intn(10); {
				case r == 0 && len(live) < 5:
					bag := make(map[int64]int64, len(cur.bag))
					for k, v := range cur.bag {
						bag[k] = v
					}
					live = append(live, pair{cur.a.Clone(), bag})
				case r == 1:
					c := journal.NewCursor("test: accumulator", cur.a.AppendBinary(nil))
					back := DecodeAccum(c, spec)
					if err := c.Done(); err != nil {
						t.Fatal(err)
					}
					live[i].a = back
				case r < 5:
					// A partial that only deletes present copies or adds.
					p := NewAccum(spec)
					for n := rng.Intn(6); n >= 0; n-- {
						v := rng.Int63n(12)
						count := int64(1 + rng.Intn(2))
						if rng.Intn(2) == 0 && cur.bag[v] > 0 {
							count = -(1 + rng.Int63n(cur.bag[v]))
						}
						p.Add(relation.NewInt(v), count)
						cur.bag[v] += count
					}
					preview, valid := cur.a.Folded(p, 1)
					if !valid || !cur.a.Fold(p) {
						t.Fatalf("%v seed %d op %d: a legal fold reports invalid", kind, seed, op)
					}
					if want := scanExtreme(kind, cur.bag); !sameValue(preview, want) {
						t.Fatalf("%v seed %d op %d: Folded previewed %v, a scan gives %v", kind, seed, op, preview, want)
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
