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
	// Siblings is the fixture of sibling Comps that read the same operands:
	// bases D(k,x), A0(k,y), B(y,z), the summary A = MAX(y) of A0 by k, and
	// three siblings D ⋈ A ⋈ B. Every Comp(Vi, {D}) joins δD with A's state
	// and then B's, each through its table's resident index; every
	// Comp(Vi, {D, A, B}) hashes the same deltas.
	Siblings Catalog = "siblings"
	// Narrow is the fixture of a join step that binds more columns than the
	// index it probes: bases L(k,x), O(k,y), P(k,x), J1 joining L and O on k,
	// J2 L and P on k and x. A step that binds a table's column 0 probes the
	// index on that column alone (core's compiled rule), so L ends with its
	// index on k whichever planner ran, and every δP row's probe yields the
	// rows of all its key's x — five a key — which the step checks on x.
	Narrow Catalog = "narrow"
)

// Build makes the Random catalog of a seed, loaded and refreshed. It is
// deterministic in seed, which is what lets a leader, its followers and a
// restarted process build the identical warehouse.
func Build(t testing.TB, seed int64) *warehouse.Warehouse {
	t.Helper()
	return BuildCatalog(t, Random, seed)
}

// BuildCatalog makes the named catalog through the facade's SQL, so that
// every layer a trial drives sees the same warehouse; opts, when given, are
// the warehouse's engine options.
func BuildCatalog(t testing.TB, c Catalog, seed int64, opts ...warehouse.Options) *warehouse.Warehouse {
	t.Helper()
	b := builder{TB: t, w: warehouse.New(opts...), rng: rand.New(rand.NewSource(seed))}
	switch c {
	case Random:
		b.random()
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

// Stage stages a random change batch on every base view of w — inserts
// only, deletes only, or both — and returns what it staged. Deletes hit rows
// w holds, so a stream of batches is valid in the order it was drawn from a
// warehouse that installed each before the next.
func Stage(t testing.TB, w *warehouse.Warehouse, rng *rand.Rand) []Change {
	t.Helper()
	kind := rng.Intn(3) // 0 = inserts, 1 = deletes, 2 = both
	var out []Change
	for _, name := range w.Views() {
		if !w.Internal().MustView(name).IsBase() {
			continue
		}
		d, err := w.NewDelta(name)
		if err != nil {
			t.Fatal(err)
		}
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
		if err := d.Seal(); err != nil {
			t.Fatal(err)
		}
		if d.IsEmpty() {
			continue
		}
		if err := w.StageDelta(name, d); err != nil {
			t.Fatal(err)
		}
		out = append(out, Change{name, d})
	}
	return out
}
