// Package check is the repository's one differential oracle: one seeded
// generator of warehouses and change batches (this file), one oracle —
// recomputation — with one comparison of warehouse states (oracle.go), and
// one description of a trial as a point in the product of the axes a window
// can vary along (point.go). internal/check/trial runs a Point; the tables of
// points live beside the code they guard. DESIGN.md, "One oracle", has the
// axes, what every trial asserts, and the import rule this package keeps: it
// imports the facade and what the facade imports, nothing above it, so that
// in-package tests of the packages above the facade can use it.
package check

import (
	"fmt"
	"math/rand"
	"testing"

	warehouse "repro"
)

// Catalog names a warehouse shape a trial runs on.
type Catalog string

const (
	// Random (the zero value) is the seeded leveled catalog: 2–3 integer
	// base views, then 1–3 derivation levels of 1–2 views each — a filter
	// with a computed column, a join of a view of the previous level with any
	// earlier view (diamonds and self-joins included), or a SUM/COUNT
	// summary. Integer columns keep every comparison exact.
	Random Catalog = ""
	// Invalidation is the fixture of the window-lived build cache: bases
	// B0(k,x), B1(k,y), B2(k,z), the summary G of B1 by k, and two siblings
	// over B0 ⋈ G ⋈ B2 on k, P1 a join view and P2 a summary of it. G is an
	// aggregate store, so every term that reads its state hashes it (no index
	// serves it), the siblings on the same column: a window that keeps its
	// cache builds it once per version of G. B1 is small, so a batch makes
	// groups of G appear and disappear, and a build of G's state made before
	// Inst(G) differs from one made after in the rows it holds.
	Invalidation Catalog = "invalidation"
	// Siblings is the sharing fixture: bases D(k,x), A0(k,y), B(y,z), the
	// summary A = MAX(y) of A0 by k, and three siblings D ⋈ A ⋈ B. Every
	// Comp(Vi, {D}) joins δD with A's state — the build a window shares, and
	// the one a starved budget spills — and then probes B's resident index.
	Siblings Catalog = "siblings"
	// Narrow is the fixture of a join index that serves joins on more
	// columns than its own: bases L(k,x), O(k,y), P(k,x), J1 joining L and O
	// on k, J2 L and P on k and x. L holds five rows a key, so its index on k
	// is narrow (storage.Table.JoinIndex): whichever of a δO and a δP term
	// probes L first, L ends with that one index, and every δP row's probe
	// yields the rows of all its key's x, which the step must filter on x.
	Narrow Catalog = "narrow"
)

// OneWay is the Invalidation catalog's pinned 1-way strategy: the sibling
// Comps over {B2} hash G's state, G then installs, and the Comps over {B0}
// must hash G's new state, not find the old build.
var OneWay = warehouse.Strategy{
	warehouse.Comp{View: "P1", Over: []string{"B2"}}, warehouse.Comp{View: "P2", Over: []string{"B2"}}, warehouse.Inst{View: "B2"},
	warehouse.Comp{View: "G", Over: []string{"B1"}}, warehouse.Inst{View: "B1"},
	warehouse.Comp{View: "P1", Over: []string{"G"}}, warehouse.Comp{View: "P2", Over: []string{"G"}}, warehouse.Inst{View: "G"},
	warehouse.Comp{View: "P1", Over: []string{"B0"}}, warehouse.Comp{View: "P2", Over: []string{"B0"}}, warehouse.Inst{View: "B0"},
	warehouse.Inst{View: "P1"}, warehouse.Inst{View: "P2"},
}

// Build makes the Random catalog of a seed, loaded and refreshed. It is
// deterministic in seed, which is what lets a leader, its followers and a
// restarted process build the identical warehouse.
func Build(t testing.TB, seed int64) *warehouse.Warehouse {
	t.Helper()
	return BuildCatalog(t, Random, seed)
}

// BuildCatalog makes the named catalog through the facade's SQL, so that
// every layer a trial drives sees the same warehouse.
func BuildCatalog(t testing.TB, c Catalog, seed int64) *warehouse.Warehouse {
	t.Helper()
	b := builder{TB: t, w: warehouse.New(), rng: rand.New(rand.NewSource(seed))}
	switch c {
	case Random:
		b.random()
	case Invalidation:
		row := func(int64) (int64, int64) { return b.rng.Int63n(6), b.rng.Int63n(4) }
		b.base("B0", "k", "x", 10+b.rng.Intn(15), row)
		b.base("B1", "k", "y", 3+b.rng.Intn(4), row)
		b.base("B2", "k", "z", 10+b.rng.Intn(15), row)
		b.view("G", "SELECT k, SUM(y) AS s, COUNT(*) AS n FROM B1 GROUP BY k")
		b.view("P1", "SELECT a.x, g.s, c.z FROM B0 a, G g, B2 c WHERE a.k = g.k AND a.k = c.k")
		b.view("P2", "SELECT c.z, SUM(g.s) AS t, COUNT(*) AS n FROM B0 a, G g, B2 c WHERE a.k = g.k AND a.k = c.k GROUP BY c.z")
	case Siblings:
		b.base("D", "k", "x", 60, func(i int64) (int64, int64) { return i, 3 * i })
		b.base("A0", "k", "y", 60, func(i int64) (int64, int64) { return i, i % 7 })
		b.base("B", "y", "z", 7, func(i int64) (int64, int64) { return i, 2 * i })
		b.view("A", "SELECT k, MAX(y) AS y FROM A0 GROUP BY k")
		for v := 1; v <= 3; v++ {
			b.view(fmt.Sprintf("V%d", v), fmt.Sprintf(
				"SELECT d.x, b.z FROM D d, A a, B b WHERE d.k = a.k AND a.y = b.y AND b.z > %d", v))
		}
	case Narrow:
		b.base("L", "k", "x", 30, func(i int64) (int64, int64) { return i % 6, i % 5 })
		b.base("O", "k", "y", 8, func(i int64) (int64, int64) { return i % 6, i })
		b.base("P", "k", "x", 6+b.rng.Intn(10), func(int64) (int64, int64) { return b.rng.Int63n(6), b.rng.Int63n(5) })
		b.view("J1", "SELECT l.x, o.y FROM L l, O o WHERE l.k = o.k")
		b.view("J2", "SELECT l.k, l.x FROM L l, P p WHERE l.k = p.k AND l.x = p.x")
	default:
		t.Fatalf("check: unknown catalog %q", c)
	}
	if err := b.w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return b.w
}

type builder struct {
	testing.TB
	w   *warehouse.Warehouse
	rng *rand.Rand
}

// base defines an integer base view of two columns and loads it with rows
// row(0), row(1), ….
func (b *builder) base(name, c0, c1 string, rows int, row func(i int64) (int64, int64)) {
	b.Helper()
	b.w.MustDefineBase(name, warehouse.Schema{{Name: c0, Kind: warehouse.KindInt}, {Name: c1, Kind: warehouse.KindInt}})
	data := make([]warehouse.Tuple, rows)
	for i := range data {
		x, y := row(int64(i))
		data[i] = warehouse.Tuple{warehouse.Int(x), warehouse.Int(y)}
	}
	if err := b.w.Load(name, data); err != nil {
		b.Fatal(err)
	}
}

func (b *builder) view(name, sql string) {
	b.Helper()
	if err := b.w.DefineViewSQL(name, sql); err != nil {
		b.Fatalf("check: view %s (%s): %v", name, sql, err)
	}
}

func (b *builder) random() {
	type view struct {
		name string
		cols []string
	}
	var all, prev []view
	for i, n := 0, 2+b.rng.Intn(2); i < n; i++ {
		v := view{fmt.Sprintf("B%d", i), []string{"c0", "c1"}}
		b.base(v.name, "c0", "c1", 8+b.rng.Intn(16), func(int64) (int64, int64) { return b.rng.Int63n(5), b.rng.Int63n(5) })
		all, prev = append(all, v), append(prev, v)
	}
	pick := func(vs []view) view { return vs[b.rng.Intn(len(vs))] }
	col := func(v view) string { return v.cols[b.rng.Intn(len(v.cols))] }
	for level, levels := 1, 1+b.rng.Intn(3); level <= levels; level++ {
		var cur []view
		for k, n := 0, 1+b.rng.Intn(2); k < n; k++ {
			v := view{name: fmt.Sprintf("D%d", len(all))}
			var sql string
			switch b.rng.Intn(3) {
			case 0: // filter, projection and a computed column
				src := pick(prev)
				x, y := col(src), col(src)
				sql = fmt.Sprintf("SELECT %s AS p0, %s + 100 AS p1 FROM %s WHERE %s <= %d", x, y, src.name, x, 1+b.rng.Int63n(6))
				v.cols = []string{"p0", "p1"}
			case 1: // join a view of the previous level with any earlier one
				l, r := pick(prev), pick(all)
				x, y := col(l), col(r)
				sql = fmt.Sprintf("SELECT x.%s AS j0, y.%s AS j1 FROM %s x, %s y WHERE x.%s = y.%s", x, y, l.name, r.name, x, y)
				v.cols = []string{"j0", "j1"}
			default: // summary
				src := pick(prev)
				g, m := src.cols[0], src.cols[len(src.cols)-1]
				sql = fmt.Sprintf("SELECT %s, SUM(%s) AS s, COUNT(*) AS n FROM %s GROUP BY %s", g, m, src.name, g)
				v.cols = []string{g, "s", "n"}
			}
			b.view(v.name, sql)
			cur, all = append(cur, v), append(all, v)
		}
		prev = cur
	}
}

// Change is one base view's share of a change batch.
type Change struct {
	View  string
	Delta *warehouse.Delta
}

// bases calls fn with every base view of w and an empty delta for it, and
// stages the deltas fn left changes in.
func bases(t testing.TB, w *warehouse.Warehouse, fn func(name string, d *warehouse.Delta)) []Change {
	t.Helper()
	var out []Change
	for _, name := range w.Views() {
		if !w.Internal().MustView(name).IsBase() {
			continue
		}
		d, err := w.NewDelta(name)
		if err != nil {
			t.Fatal(err)
		}
		if fn(name, d); d.IsEmpty() {
			continue
		}
		if err := w.StageDelta(name, d); err != nil {
			t.Fatal(err)
		}
		out = append(out, Change{name, d})
	}
	return out
}

// Stage stages a random change batch on every base view of w — inserts
// only, deletes only, or both — and returns what it staged. Deletes hit rows
// w holds, so a stream of batches is valid in the order it was drawn from a
// warehouse that installed each before the next.
func Stage(t testing.TB, w *warehouse.Warehouse, rng *rand.Rand) []Change {
	t.Helper()
	kind := rng.Intn(3) // 0 = inserts, 1 = deletes, 2 = both
	return bases(t, w, func(name string, d *warehouse.Delta) {
		if kind != 0 {
			rows, _ := w.Rows(name) // a view of w's: no error
			for _, r := range rows {
				if rng.Intn(4) == 0 {
					d.Add(r.Tuple, -[]int64{1, r.Count}[rng.Intn(2)])
				}
			}
		}
		if kind != 1 {
			for i, n := 0, 1+rng.Intn(5); i < n; i++ {
				d.Add(warehouse.Tuple{warehouse.Int(rng.Int63n(5)), warehouse.Int(rng.Int63n(5))}, 1)
			}
		}
	})
}

// StageHot stages, on top of whatever is staged, the row (2, 3) on every
// base view. On the Invalidation catalog that is one key certain to show a
// stale build: δB1 changes (or creates) G's group 2, and δB0 and δB2 each
// bring a row that joins it.
func StageHot(t testing.TB, w *warehouse.Warehouse) {
	t.Helper()
	bases(t, w, func(_ string, d *warehouse.Delta) { d.Add(warehouse.Tuple{warehouse.Int(2), warehouse.Int(3)}, 1) })
}
