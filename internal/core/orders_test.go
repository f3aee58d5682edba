package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

// TestJoinOrderLooksUpKeysFirst: a delta-driven term joins next the
// connected operand a probe finds by its key (column 0) before one that fans
// out, whatever the tables' sizes — the order is compiled from the
// definition and the driver alone. D(k, x) joins F on F's key and G on G's
// second column; G is the smaller table in one warehouse and the larger in
// the other, and δD's term joins F, then G, in both.
func TestJoinOrderLooksUpKeysFirst(t *testing.T) {
	kx := relation.Schema{{Name: "k", Kind: relation.KindInt}, {Name: "x", Kind: relation.KindInt}}
	for _, gRows := range []int{2, 200} {
		w := New(Options{})
		for _, base := range []string{"D", "F", "G"} {
			if err := w.DefineBase(base, kx); err != nil {
				t.Fatal(err)
			}
		}
		b := algebra.NewBuilder().From("d", "D", kx).From("f", "F", kx).From("g", "G", kx)
		b.Join("d.k", "f.k").Join("d.x", "g.x").SelectCol("f.x").SelectCol("g.k")
		if err := w.DefineDerived("V", b.MustBuild()); err != nil {
			t.Fatal(err)
		}
		var f, g []relation.Tuple
		for i := int64(0); i < 20; i++ {
			f = append(f, intRow(i, i%3))
		}
		for i := int64(0); i < int64(gRows); i++ {
			g = append(g, intRow(i, i%2))
		}
		if err := w.LoadBase("F", f); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadBase("G", g); err != nil {
			t.Fatal(err)
		}
		terms, err := w.compiledComp(w.views["V"], []string{"D"})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, s := range terms[0].orders[0].steps {
			got = append(got, s.ref)
		}
		if want := []int{1, 2}; !slices.Equal(got, want) {
			t.Errorf("|G| = %d: δD's term joins references %v, want F (1), then G (2)", gRows, got)
		}
	}
}

// TestCompiledOrdersAreSharedByClones: a Comp's orders are compiled once and
// kept with the view's definition, so clones computing the same Comp on
// several goroutines at once (run under -race) share one compiled set and
// agree on the result.
func TestCompiledOrdersAreSharedByClones(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	stage(t, w, "R", []delta.Change{{Tuple: intRow(4, 20), Count: 1}, {Tuple: intRow(1, 10), Count: -1}})
	stage(t, w, "S", []delta.Change{{Tuple: intRow(20, 400), Count: 1}})
	clones := make([]*Warehouse, 8)
	for i := range clones {
		clones[i] = w.Clone()
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clones))
	for i, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Compute("J", []string{"R", "S"})
		}()
	}
	wg.Wait()
	want, err := w.compiledComp(w.views["J"], []string{"S", "R"})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clones {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		got, err := c.compiledComp(c.views["J"], []string{"R", "S"})
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &want[0] {
			t.Errorf("clone %d compiled Comp(J, {R, S}) again", i)
		}
		d, err := c.DeltaOf("J")
		if err != nil {
			t.Fatal(err)
		}
		d0, _ := clones[0].DeltaOf("J")
		if d.Digest() != d0.Digest() {
			t.Errorf("clone %d computed δJ %v, clone 0 %v", i, d.Sorted(), d0.Sorted())
		}
	}
}
