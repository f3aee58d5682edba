package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/relation"
)

// TestPlacementDifferential drives random batches through a table with an
// index on its first column and one on its third, through three phases: the
// first install places the rows by the first column, a phase whose inserts
// crowd a few keys until the column is wide (the rows stay placed, a few
// buckets holding hundreds of them), and one whose deletes thin them out
// again. Seeds 1–3 load two rows a key, so the column is narrow when the
// first install places the rows; seed 4 loads twenty, so it is wide
// already. A twin with the third column's index alone never places its
// rows. After every batch the two are Equal either way — each looks the
// other's rows up under its own placement — their digests and indexes check
// out, and every probe of either index yields what a map model holds. A
// clone taken before the batch, and a reader pinned on it that probes while
// the batch installs, still see the rows and indexes from before. Run under
// -race.
func TestPlacementDifferential(t *testing.T) {
	sch := relation.Schema{
		{Name: "k", Kind: relation.KindInt},
		{Name: "v", Kind: relation.KindString},
		{Name: "w", Kind: relation.KindInt},
	}
	const keys = 40
	// wide reports that the handle's index on [0] holds more than eight rows
	// a key.
	wide := func(h *Table) bool {
		st := h.IndexStats()[0]
		return st.Rows > 8*st.Keys
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model := make(map[string]int64) // row encoding → count
		tbl, twin := NewTable(sch), NewTable(sch)
		perKey := int64(2)
		if seed == 4 {
			perKey = 20
		}
		for i := int64(0); i < perKey*keys; i++ {
			r := relation.Tuple{relation.NewInt(i % keys), relation.NewString(fmt.Sprint("v", i)), relation.NewInt(i % 7)}
			tbl.Insert(r, 1)
			twin.Insert(r, 1)
			model[r.Encode()] = 1
		}
		tbl.JoinIndex([]int{0})
		tbl.JoinIndex([]int{2})
		twin.JoinIndex([]int{2})

		var placements int
		placedWide, wentWide := false, false // at the placement, and while placed
		serial := 0
		for batch := 0; batch < 60; batch++ {
			phase := batch / 20 // 0 narrow, 1 widening, 2 thinning
			d := delta.New(sch)
			for enc, count := range model {
				tup := mustDecode(enc)
				hot := tup[0].Int() < 3
				if (phase == 2 && hot && rng.Intn(2) == 0) || rng.Intn(12) == 0 {
					d.Add(tup, -1-rng.Int63n(count))
				}
			}
			for i, n := 0, 2+rng.Intn(6); i < n; i++ {
				serial++
				d.Add(relation.Tuple{relation.NewInt(rng.Int63n(keys)), relation.NewString(fmt.Sprint("n", serial)), relation.NewInt(rng.Int63n(7))}, 1+rng.Int63n(2))
			}
			if phase == 1 {
				for i := 0; i < 60; i++ {
					serial++
					d.Add(relation.Tuple{relation.NewInt(rng.Int63n(3)), relation.NewString(fmt.Sprint("h", serial)), relation.NewInt(rng.Int63n(7))}, 1)
				}
			}
			if rng.Intn(4) == 0 { // a count change of a row that stays
				for enc := range model {
					d.Add(mustDecode(enc), 1)
					break
				}
			}

			before, beforeModel, wasPlaced := tbl.Clone(), maps.Clone(model), tbl.placed > 0
			what := fmt.Sprintf("seed %d batch %d", seed, batch)
			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() { // pinned on the handle from before the batch
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := probesMatch(before, beforeModel, []int{0}, []int{2}); err != nil {
						t.Errorf("%s: the pinned reader: %v", what, err)
						return
					}
				}
			}()
			d.Seal()
			_, err := tbl.ApplyDelta(d)
			close(stop)
			reader.Wait()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			d.Seal()
			if _, err := twin.ApplyDelta(d); err != nil {
				t.Fatalf("%s: twin: %v", what, err)
			}
			d.Scan(func(tup relation.Tuple, count int64) bool {
				enc := tup.Encode()
				if model[enc] += count; model[enc] == 0 {
					delete(model, enc)
				}
				return true
			})
			switch {
			case tbl.placed > 0 && !wasPlaced:
				placements++
				placedWide = wide(before)
			case wasPlaced && tbl.placed == 0:
				t.Fatalf("%s: the rows were placed by their first column and are no longer", what)
			}
			wentWide = wentWide || (tbl.placed > 0 && wide(tbl))
			if twin.placed > 0 {
				t.Fatalf("%s: the twin, which has no index on [0], placed its rows", what)
			}

			if !tbl.Equal(twin) || !twin.Equal(tbl) || tbl.Digest() != twin.Digest() {
				t.Fatalf("%s: the table (placed=%v) and its twin differ", what, tbl.placed)
			}
			for name, h := range map[string]*Table{"table": tbl, "twin": twin, "clone": before} {
				if err := h.CheckDigest(); err != nil {
					t.Fatalf("%s: %s: %v", what, name, err)
				}
				checkIndexes(t, what+": "+name, h)
			}
			if err := probesMatch(tbl, model, []int{0}, []int{2}); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if err := probesMatch(twin, model, []int{2}); err != nil {
				t.Fatalf("%s: twin: %v", what, err)
			}
			if err := probesMatch(before, beforeModel, []int{0}, []int{2}); err != nil {
				t.Fatalf("%s: the clone from before the batch: %v", what, err)
			}
			if (before.placed > 0) != wasPlaced {
				t.Fatalf("%s: the batch changed the placement of a clone taken before it", what)
			}
		}
		if placements != 1 || !wentWide || placedWide != (seed == 4) {
			t.Errorf("seed %d: %d placements, wide when placed: %v, wide while placed: %v; want the rows placed once, wide at it for seed 4 only, and wide after", seed, placements, placedWide, wentWide)
		}
		if st := tbl.IndexStats(); !slices.EqualFunc([][]int{st[0].Cols, st[1].Cols}, [][]int{{0}, {2}}, slices.Equal) {
			t.Errorf("seed %d: the indexes end as %v", seed, st)
		}
	}
}

// probesMatch probes each of the handle's indexes on cols under every key
// the model's rows project to, and a key no row has, and compares what the
// probe yields with the model.
func probesMatch(tbl *Table, model map[string]int64, cols ...[]int) error {
	for _, c := range cols {
		ix, scanned := tbl.JoinIndex(c)
		if scanned != 0 || !slices.Equal(ix.cols, c) {
			return fmt.Errorf("no resident index on %v", c)
		}
		want := make(map[string]map[string]int64) // key → row → count
		for enc, count := range model {
			key := string(ix.appendKey(nil, mustDecode(enc)))
			if want[key] == nil {
				want[key] = make(map[string]int64)
			}
			want[key][enc] = count
		}
		want[string(relation.Tuple{relation.NewInt(-1)}.AppendEncoded(nil))] = map[string]int64{}
		for key, rows := range want {
			got := make(map[string]int64)
			ix.Probe([]byte(key), func(tup relation.Tuple, count int64) bool {
				got[tup.Encode()] += count
				return true
			})
			if !maps.Equal(got, rows) {
				return fmt.Errorf("index %v (placed=%v) yields %v under key %q, the model holds %v", c, ix.served(), got, key, rows)
			}
		}
	}
	return nil
}

// TestFirstInstallMovesNoRow: the first install into a table that holds its
// index on [0] adopts that index's map as the row map and moves no row, so
// a window's clone plus a 1 % batch on a LINEITEM never written before
// allocates as often as on one whose rows a window has placed already
// (BenchmarkIndexApply's lineitem-first and lineitem cases), and the row
// map serves the index after.
func TestFirstInstallMovesNoRow(t *testing.T) {
	allocs := func(first bool) float64 {
		tbl, d := indexApplyTable([][]int{{0}}, first)
		if (tbl.placed > 0) == first {
			t.Fatalf("first=%v: the table starts placed=%v", first, tbl.placed)
		}
		var last *Table
		n := testing.AllocsPerRun(5, func() {
			last = tbl.Clone()
			if _, err := last.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
		})
		if st := last.IndexStats(); !st[0].Placed {
			t.Fatalf("first=%v: after the install the index reports %v", first, st[0])
		}
		checkIndexes(t, fmt.Sprint("first=", first), last)
		return n
	}
	first, placed := allocs(true), allocs(false)
	t.Logf("clone + 1 %% batch: %.0f allocations on a table never written, %.0f on a placed one", first, placed)
	if first > 1.25*placed {
		t.Errorf("the first install allocated %.0f times, a placed table's %.0f: it moved the rows", first, placed)
	}
}

// crcTwins returns two distinct strings of nine bytes whose encodings share
// a CRC — zeros, and zeros plus a pattern whose CRC vanishes, found by
// elimination over the CRC's linear map. The encodings are equally long, so
// any bytes before or after them, the same for both, keep the CRCs equal.
func crcTwins(t *testing.T) (a, b []byte) {
	t.Helper()
	enc := func(s []byte) string { return relation.Tuple{relation.NewString(string(s))}.Encode() }
	zero := make([]byte, 9)
	type comb struct {
		crc     uint64
		pattern [9]byte
	}
	var basis [64]*comb
	var pattern []byte
	for bit := 0; bit < 72 && pattern == nil; bit++ {
		c := comb{}
		c.pattern[bit/8] = 1 << (bit % 8)
		c.crc = cowmap.Hash(enc(c.pattern[:])) ^ cowmap.Hash(enc(zero))
		for b := 63; b >= 0; b-- {
			if c.crc>>b&1 == 0 {
				continue
			}
			if basis[b] == nil {
				basis[b] = &c
				break
			}
			c.crc ^= basis[b].crc
			for i := range c.pattern {
				c.pattern[i] ^= basis[b].pattern[i]
			}
		}
		if c.crc == 0 {
			pattern = c.pattern[:]
		}
	}
	if ea, eb := enc(zero), enc(pattern); ea == eb || cowmap.Hash(ea) != cowmap.Hash(eb) {
		t.Fatalf("no colliding pair: %q and %q", ea, eb)
	}
	return zero, pattern
}

// TestPlacedFirstValuesThatCollide: two first values whose encodings share
// a CRC (crcTwins) file their rows under one hash. A probe of either yields
// its own rows only, and the index counts two keys, through their arrival
// and departure.
func TestPlacedFirstValuesThatCollide(t *testing.T) {
	zero, pattern := crcTwins(t)
	sch := relation.Schema{{Name: "k", Kind: relation.KindString}, {Name: "v", Kind: relation.KindInt}}
	row := func(k []byte, v int64) relation.Tuple {
		return relation.Tuple{relation.NewString(string(k)), relation.NewInt(v)}
	}
	tbl := NewTable(sch)
	tbl.Insert(row(zero, 1), 1)
	ix, _ := tbl.JoinIndex([]int{0})
	d := delta.New(sch)
	d.Add(row(zero, 2), 1)
	d.Add(row(pattern, 3), 2)
	d.Seal()
	if _, err := tbl.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if tbl.placed == 0 {
		t.Fatal("the rows were not placed by their first column")
	}
	checkIndexes(t, "both keys", tbl)
	for _, c := range []struct {
		key  []byte
		want map[string]int64
	}{
		{zero, map[string]int64{row(zero, 1).Encode(): 1, row(zero, 2).Encode(): 1}},
		{pattern, map[string]int64{row(pattern, 3).Encode(): 2}},
	} {
		if got := probeBag(ix, row(c.key, 0)); !maps.Equal(got, c.want) {
			t.Errorf("probe of %q yields %v, want %v", c.key, got, c.want)
		}
	}
	if err := tbl.Delete(row(pattern, 3), 2); err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, "the second key gone", tbl)
	if err := tbl.Delete(row(zero, 1), 1); err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, "one row of the first key gone", tbl)
}

// TestIndexKeysThatCollide: on an index over the second column and one over
// the first two, rows whose projections share a CRC (crcTwins) but differ —
// in the indexed column alone, and in either of the two — share a hash in
// the index's map. A probe of each key yields its own rows only, and each
// index counts its keys, through arrival, a count change and departure.
// Without the compare of any one column of the key walk (Index.projects) a
// probe yields a row of the other key.
func TestIndexKeysThatCollide(t *testing.T) {
	zero, pattern := crcTwins(t)
	sch := relation.Schema{{Name: "a", Kind: relation.KindString}, {Name: "b", Kind: relation.KindString}, {Name: "c", Kind: relation.KindInt}}
	row := func(a, b []byte, c int64) relation.Tuple {
		return relation.Tuple{relation.NewString(string(a)), relation.NewString(string(b)), relation.NewInt(c)}
	}
	zz, pz, zp := row(zero, zero, 1), row(pattern, zero, 2), row(zero, pattern, 3)
	tbl := NewTable(sch)
	tbl.Insert(zz, 1)
	onB, _ := tbl.JoinIndex([]int{1})
	onAB, _ := tbl.JoinIndex([]int{0, 1})
	d := delta.New(sch)
	d.Add(pz, 2)
	d.Add(zp, 3)
	d.Add(zz, 1)
	d.Seal()
	if _, err := tbl.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if tbl.placed > 0 {
		t.Fatal("the rows were placed with no index on [0]")
	}
	for _, ix := range []*Index{onB, onAB} {
		if h := ix.hash(zz.Encode()); ix.hash(pz.Encode()) != h || ix.hash(zp.Encode()) != h {
			t.Fatalf("index %v: the rows do not collide", ix.cols)
		}
	}
	checkIndexes(t, "all rows", tbl)
	for _, c := range []struct {
		ix   *Index
		like relation.Tuple
		want []relation.Tuple
	}{
		{onB, zz, []relation.Tuple{zz, pz}},
		{onB, zp, []relation.Tuple{zp}},
		{onAB, zz, []relation.Tuple{zz}},
		{onAB, pz, []relation.Tuple{pz}},
		{onAB, zp, []relation.Tuple{zp}},
	} {
		want := make(map[string]int64)
		for _, r := range c.want {
			want[r.Encode()] = countOf(tbl, r)
		}
		if got := probeBag(c.ix, c.like); !maps.Equal(got, want) {
			t.Errorf("index %v: probe of %v yields %v, want %v", c.ix.cols, c.like, got, want)
		}
	}
	if st := tbl.IndexStats(); st[0].Keys != 2 || st[1].Keys != 3 {
		t.Errorf("the indexes report %v, want 2 keys on [1] and 3 on [0 1]", st)
	}
	for _, r := range []relation.Tuple{zp, pz, zz} {
		if err := tbl.Delete(r, countOf(tbl, r)); err != nil {
			t.Fatal(err)
		}
		checkIndexes(t, "after deleting "+r.String(), tbl)
	}
}
