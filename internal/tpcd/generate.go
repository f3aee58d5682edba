package tpcd

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/relation"
)

// Config controls data generation.
type Config struct {
	// SF is the TPC-D scale factor. SF = 1 is the full benchmark size
	// (150k customers, 1.5M orders, ~6M lineitems); the experiments run at
	// small fractions.
	SF float64
	// Seed makes generation deterministic.
	Seed int64
	// Options are the warehouse's engine options.
	Options core.Options
	// Queries selects which summary views to define; nil means all of
	// Q3, Q5 and Q10. Experiment 1, for instance, uses a Q3-only warehouse.
	Queries []string
	// DeepVDAG additionally defines the second-level summaries
	// Q3_BY_PRIORITY and NATION_REVENUE, making the VDAG deep and
	// non-uniform (requires the full query set).
	DeepVDAG bool
}

// RowCounts returns the base-view row counts for a scale factor.
func RowCounts(sf float64) map[string]int {
	atLeast1 := func(n float64) int {
		if n < 1 {
			return 1
		}
		return int(n)
	}
	return map[string]int{
		Region:   5,
		Nation:   25,
		Supplier: atLeast1(10_000 * sf),
		Customer: atLeast1(150_000 * sf),
		Order:    atLeast1(1_500_000 * sf),
		// LINEITEM rows are generated per order (1–7 lines, mean 4), so
		// this is an expectation rather than an exact count.
		LineItem: atLeast1(6_000_000 * sf),
	}
}

// dateRange for order dates, per the TPC-D spec (1992-01-01 .. 1998-08-02).
var (
	minOrderDate = relation.MustDate("1992-01-01").Days()
	maxOrderDate = relation.MustDate("1998-08-02").Days()
)

// generator produces base-view rows and fresh keys for insertions.
type generator struct {
	rng       *rand.Rand
	counts    map[string]int
	nextKey   map[string]int64 // next unused primary key per view
	orderKeys []int64          // existing order keys, for lineitem FKs
	custCount int64
	suppCount int64
}

func newGenerator(cfg Config) *generator {
	return &generator{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		counts:  RowCounts(cfg.SF),
		nextKey: make(map[string]int64),
	}
}

func (g *generator) regionRow(key int64) relation.Tuple {
	return relation.Tuple{
		relation.NewInt(key),
		relation.NewString(regionNames[key%int64(len(regionNames))]),
	}
}

func (g *generator) nationRow(key int64) relation.Tuple {
	return relation.Tuple{
		relation.NewInt(key),
		relation.NewString(nationNames[key%int64(len(nationNames))]),
		relation.NewInt(key % 5),
	}
}

func (g *generator) supplierRow(key int64) relation.Tuple {
	return relation.Tuple{
		relation.NewInt(key),
		relation.NewString(fmt.Sprintf("Supplier#%09d", key)),
		relation.NewInt(g.rng.Int63n(25)),
		relation.NewFloat(float64(g.rng.Intn(1_000_000))/100 - 1000),
	}
}

func (g *generator) customerRow(key int64) relation.Tuple {
	return relation.Tuple{
		relation.NewInt(key),
		relation.NewString(fmt.Sprintf("Customer#%09d", key)),
		relation.NewInt(g.rng.Int63n(25)),
		relation.NewString(segments[g.rng.Intn(len(segments))]),
		relation.NewFloat(float64(g.rng.Intn(1_100_000))/100 - 1000),
	}
}

func (g *generator) orderRow(key int64) relation.Tuple {
	return relation.Tuple{
		relation.NewInt(key),
		relation.NewInt(g.rng.Int63n(g.custCount)), // O_CUSTKEY
		relation.NewDate(minOrderDate + g.rng.Int63n(maxOrderDate-minOrderDate+1)),
		relation.NewInt(g.rng.Int63n(2)), // O_SHIPPRIORITY: 0 urgent-ish, 1 normal
		relation.NewFloat(float64(g.rng.Intn(50_000_000)) / 100),
	}
}

func (g *generator) lineItemRow(orderKey, lineNumber int64) relation.Tuple {
	shipDelay := 1 + g.rng.Int63n(121) // ship 1–121 days after a base date
	return relation.Tuple{
		relation.NewInt(orderKey),
		relation.NewInt(lineNumber),
		relation.NewInt(g.rng.Int63n(g.suppCount)),
		relation.NewFloat(900 + float64(g.rng.Intn(10_410_000))/100),
		relation.NewFloat(float64(g.rng.Intn(11)) / 100), // 0.00–0.10
		relation.NewString(returnFlags[g.rng.Intn(len(returnFlags))]),
		relation.NewDate(minOrderDate + g.rng.Int63n(maxOrderDate-minOrderDate+1) + shipDelay - 60),
	}
}

// populate loads all base views of w.
func (g *generator) populate(w *core.Warehouse) error {
	g.custCount = int64(g.counts[Customer])
	g.suppCount = int64(g.counts[Supplier])

	load := func(view string, n int, row func(key int64) relation.Tuple) error {
		rows := make([]relation.Tuple, 0, n)
		for i := 0; i < n; i++ {
			rows = append(rows, row(int64(i)))
		}
		g.nextKey[view] = int64(n)
		return w.LoadBase(view, rows)
	}
	if err := load(Region, g.counts[Region], g.regionRow); err != nil {
		return err
	}
	if err := load(Nation, g.counts[Nation], g.nationRow); err != nil {
		return err
	}
	if err := load(Supplier, g.counts[Supplier], g.supplierRow); err != nil {
		return err
	}
	if err := load(Customer, g.counts[Customer], g.customerRow); err != nil {
		return err
	}
	if err := load(Order, g.counts[Order], g.orderRow); err != nil {
		return err
	}
	// LINEITEM: 1–7 lines per order until the expected count is reached.
	var liRows []relation.Tuple
	target := g.counts[LineItem]
	for o := 0; o < g.counts[Order] && len(liRows) < target; o++ {
		lines := 1 + g.rng.Intn(7)
		for ln := 0; ln < lines && len(liRows) < target; ln++ {
			liRows = append(liRows, g.lineItemRow(int64(o), int64(ln)))
		}
	}
	g.nextKey[LineItem] = int64(g.counts[Order]) // next order key for new lines
	return w.LoadBase(LineItem, liRows)
}

// freshRow generates a new row for insertion into a base view, with a fresh
// primary key so it never collides with existing rows.
func (g *generator) freshRow(view string) relation.Tuple {
	key := g.nextKey[view]
	g.nextKey[view] = key + 1
	switch view {
	case Region:
		return g.regionRow(key)
	case Nation:
		return g.nationRow(key)
	case Supplier:
		return g.supplierRow(key)
	case Customer:
		return g.customerRow(key)
	case Order:
		return g.orderRow(key)
	case LineItem:
		// New lineitems attach to fresh synthetic orders (line 0) so keys
		// stay unique without tracking per-order line counts.
		return g.lineItemRow(key+1_000_000_000, 0)
	default:
		panic(fmt.Sprintf("tpcd: unknown base view %q", view))
	}
}
