package vdag

import (
	"reflect"
	"sync"
	"testing"
)

// fig3 is the tree VDAG of Figure 3/6: V4 over {V2,V3}, V5 over {V4,V1}.
func fig3(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	for _, v := range []string{"V1", "V2", "V3"} {
		if err := b.Add(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Add("V4", []string{"V2", "V3"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("V5", []string{"V4", "V1"}); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

// tpcd is the uniform VDAG of Figure 4.
func tpcd(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	for _, v := range []string{"O", "L", "C", "S", "N", "R"} {
		if err := b.Add(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.Add("Q3", []string{"C", "O", "L"}))
	must(b.Add("Q5", []string{"C", "O", "L", "S", "N", "R"}))
	must(b.Add("Q10", []string{"C", "O", "L", "N"}))
	return b.Build()
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if err := b.Add("", nil); err == nil {
		t.Errorf("empty name accepted")
	}
	if err := b.Add("A", nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("A", nil); err == nil {
		t.Errorf("duplicate accepted")
	}
	if err := b.Add("B", []string{"Z"}); err == nil {
		t.Errorf("unknown child accepted")
	}
	if err := b.Add("B", []string{"A", "A"}); err == nil {
		t.Errorf("duplicate child accepted")
	}
}

func TestLevels(t *testing.T) {
	g := fig3(t)
	want := map[string]int{"V1": 0, "V2": 0, "V3": 0, "V4": 1, "V5": 2}
	for v, l := range want {
		if g.Level(v) != l {
			t.Errorf("Level(%s) = %d, want %d", v, g.Level(v), l)
		}
	}
	if g.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d", g.MaxLevel())
	}
	tg := tpcd(t)
	if tg.MaxLevel() != 1 || tg.Level("Q5") != 1 || tg.Level("L") != 0 {
		t.Errorf("tpcd levels wrong")
	}
}

func TestAdjacency(t *testing.T) {
	g := fig3(t)
	if !reflect.DeepEqual(g.Children("V4"), []string{"V2", "V3"}) {
		t.Errorf("Children(V4) = %v", g.Children("V4"))
	}
	if !g.IsBase("V1") || g.IsBase("V4") || !g.IsDerived("V5") || g.IsDerived("V2") {
		t.Errorf("base/derived classification wrong")
	}
	if g.IsBase("nope") || g.IsDerived("nope") {
		t.Errorf("a view the graph does not hold is classified base or derived")
	}
	if !reflect.DeepEqual(g.DerivedViews(), []string{"V4", "V5"}) {
		t.Errorf("DerivedViews = %v", g.DerivedViews())
	}
	if _, ok := g.ID("nope"); ok {
		t.Errorf("ID of an unknown view")
	}
	if !reflect.DeepEqual(g.ViewsWithParents(), []string{"V1", "V2", "V3", "V4"}) {
		t.Errorf("ViewsWithParents = %v", g.ViewsWithParents())
	}
}

func TestTreeUniformClassification(t *testing.T) {
	g := fig3(t)
	if !g.IsTree() {
		t.Errorf("fig3 should be a tree VDAG")
	}
	if g.IsUniform() {
		t.Errorf("fig3 is not uniform (V5 spans levels 0 and 1)")
	}
	tg := tpcd(t)
	if tg.IsTree() {
		t.Errorf("tpcd is not a tree (C has three parents)")
	}
	if !tg.IsUniform() {
		t.Errorf("tpcd should be uniform")
	}
}

func TestSortByLevel(t *testing.T) {
	g := fig3(t)
	in := []string{"V5", "V2", "V4", "V1", "V3"}
	got := g.SortByLevel(in)
	want := []string{"V2", "V1", "V3", "V4", "V5"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortByLevel = %v, want %v", got, want)
	}
	// Input must be untouched.
	if !reflect.DeepEqual(in, []string{"V5", "V2", "V4", "V1", "V3"}) {
		t.Errorf("SortByLevel mutated input")
	}
}

func TestMustBuildAndString(t *testing.T) {
	g := MustBuild(
		[2]interface{}{"A", nil},
		[2]interface{}{"B", []string{"A"}},
	)
	if !g.IsTree() || !g.IsUniform() {
		t.Errorf("chain misclassified")
	}
	if s := g.String(); s != "A; B <- (A)" {
		t.Errorf("String = %q", s)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustBuild should panic on bad input")
		}
	}()
	MustBuild([2]interface{}{"X", []string{"missing"}})
}

func TestViewsCopies(t *testing.T) {
	g := fig3(t)
	vs := g.Views()
	vs[0] = "mutated"
	if g.Views()[0] != "V1" {
		t.Errorf("Views returns aliased slice")
	}
	cs := g.Children("V4")
	cs[0] = "mutated"
	if g.Children("V4")[0] != "V2" {
		t.Errorf("Children returns aliased slice")
	}
}

// TestCompiledOnce: what a key compiles is kept with the graph, and callers
// racing on its first use all get the one value stored (run under -race).
func TestCompiledOnce(t *testing.T) {
	g := fig3(t)
	type key struct{}
	compile := func(g *Graph) any { n := g.Len(); return &n }
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Compiled(key{}, compile)
		}(i)
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] {
			t.Fatalf("racing first uses got different values")
		}
	}
	if g.Compiled(key{}, compile) != got[0] || *got[0].(*int) != 5 {
		t.Errorf("Compiled did not keep the first value")
	}
}
