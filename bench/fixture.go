package main

import (
	"fmt"
	"math"

	warehouse "repro"
	"repro/internal/relation"
	"repro/internal/tpcd"
)

// engine is how a workload configures the program: the warehouse options,
// the planner and the scheduling mode of its update windows.
type engine struct {
	opts    warehouse.Options
	planner warehouse.PlannerName
	mode    warehouse.Mode
	workers int
}

// queryKind is one entry of a workload's query mix. A kind whose SQL carries
// a %d is issued with a number never used before, so the text misses the
// prepared-plan cache every time.
type queryKind struct {
	name  string
	sql   string
	share float64
}

// fixture is one set-up warehouse with the generator that feeds it.
type fixture struct {
	w   *warehouse.Warehouse
	gen changeGen
	// firstQuery is the query the operator issues after a window to see the
	// new epoch answer.
	firstQuery string
	queries    []queryKind
	// watermark, when set, is a query returning the one-row MAX of the
	// increasing insert key: a reader that sees it reach k has seen every
	// insert up to k.
	watermark string
	// baseRows is the row count a batch fraction refers to.
	baseRows int
}

// tpcdSF is a workload's scale factor, or the smoke scale's.
func tpcdSF(sf float64, smoke bool) float64 {
	if smoke {
		return 0.0005
	}
	return sf
}

// dataSeed generates the rows a warehouse is loaded with. It is the same for
// every run: like TPC-D's own data at a scale factor, the initial content is
// a fixed dataset, and -seed drives what happens to it — the change stream,
// the order of the queries and the crash points. Runs with different seeds
// then differ by their inputs and not by the size of a summary view that
// happens to come out of one seed's data.
const dataSeed = 1

// workers is the engine worker count every workload pins, so numbers from
// hosts with different core counts stay comparable with the recorded nproc.
const workers = 2

// buildTPCD sets up the paper's TPC-D warehouse behind the public facade:
// tpcd generates the rows (its StageChanges only reaches its own core
// warehouse, so the rows are copied out), the views come from
// tpcd.Definitions, and Refresh materializes them.
//
// extra adds second-level summaries: 1 defines Q3_BY_PRIORITY over Q3, 2 also
// NATION_REVENUE over Q5, taking the views with parents from 6 to 7 and 8.
func buildTPCD(sf float64, seed int64, opts warehouse.Options, extra int) (*fixture, error) {
	src, err := tpcd.NewWarehouse(tpcd.Config{SF: sf, Seed: dataSeed, Queries: []string{}})
	if err != nil {
		return nil, err
	}
	w := warehouse.New(opts)
	schemas := tpcd.Schemas()
	rows := make(map[string][]relation.Tuple)
	for _, name := range tpcd.BaseViews {
		if err := w.DefineBase(name, schemas[name]); err != nil {
			return nil, err
		}
		for _, r := range src.W.MustView(name).SortedRows() {
			tup := r.Tuple
			if name == tpcd.LineItem {
				tup = exactLineItem(tup)
			}
			for i := int64(0); i < r.Count; i++ {
				rows[name] = append(rows[name], tup)
			}
		}
		if err := w.Load(name, rows[name]); err != nil {
			return nil, err
		}
	}
	defs := tpcd.Definitions()
	for _, name := range tpcd.DerivedViews {
		if err := w.DefineView(name, defs[name]); err != nil {
			return nil, err
		}
	}
	if extra >= 1 {
		if err := w.DefineView(tpcd.Q3ByPriority, tpcd.Q3ByPriorityDef()); err != nil {
			return nil, err
		}
	}
	if extra >= 2 {
		if err := w.DefineView(tpcd.NationRevenue, tpcd.NationRevenueDef()); err != nil {
			return nil, err
		}
	}
	if err := w.Refresh(); err != nil {
		return nil, err
	}
	gen := newTPCDGen(seed, rows)
	return &fixture{
		w:          w,
		gen:        gen,
		firstQuery: "SELECT N_NAME, REVENUE FROM Q5",
		queries: []queryKind{
			{"agg_view", "SELECT N_NAME, REVENUE FROM Q5", 0.40},
			{"order_limit", "SELECT L_ORDERKEY, REVENUE FROM Q3 ORDER BY REVENUE DESC LIMIT 10", 0.25},
			{"join_view_filter", "SELECT C_CUSTKEY, REVENUE FROM Q10 WHERE REVENUE > 100000", 0.20},
			{"adhoc_group", "SELECT C_MKTSEGMENT, COUNT(*) AS n FROM CUSTOMER GROUP BY C_MKTSEGMENT", 0.05},
			{"plan_miss", "SELECT N_NAME FROM Q5 WHERE REVENUE > %d", 0.10},
		},
		baseRows: gen.rowCount(),
	}, nil
}

// exactLineItem rounds a line's price to quarter units and its discount to
// 64ths. Every summary view sums price·(1−discount); with dyadic inputs the
// products and their sums are exact in binary, so a SUM does not depend on
// the order rows are folded in. tpcd's cent prices make the low bits of a
// revenue depend on evaluation order, and a state digest — which is how the
// benchmark checks a recovered copy, a follower and a second engine against
// the leader — would then differ between two correct executions.
func exactLineItem(t relation.Tuple) relation.Tuple {
	out := t.Clone()
	out[3] = relation.NewFloat(math.Round(t[3].Float()*4) / 4)
	out[4] = relation.NewFloat(math.Round(t[4].Float()*64) / 64)
	return out
}

var retailRegions = []string{"north", "south", "east", "west"}

// buildRetail sets up the retail star schema through SQL: two base views, a
// join view, two aggregates over it, and the one-row watermark.
func buildRetail(stores, sales int, seed int64, opts warehouse.Options) (*fixture, error) {
	w := warehouse.New(opts)
	if err := w.DefineBase(retailStores, warehouse.Schema{
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "region", Kind: warehouse.KindString},
	}); err != nil {
		return nil, err
	}
	if err := w.DefineBase(retailSales, retailSalesSchema); err != nil {
		return nil, err
	}
	for _, v := range [][2]string{
		{"SALES_BY_STORE", `SELECT s.sale_id, s.store_id, s.amount, st.region
			FROM SALES s, STORES st WHERE s.store_id = st.store_id`},
		{"REGION_TOTALS", `SELECT region, SUM(amount) AS total, COUNT(*) AS n
			FROM SALES_BY_STORE GROUP BY region`},
		{"STORE_TOTALS", `SELECT store_id, SUM(amount) AS total, COUNT(*) AS n
			FROM SALES_BY_STORE GROUP BY store_id`},
		{"WATERMARK", `SELECT MAX(sale_id) AS wm FROM SALES`},
	} {
		if err := w.DefineViewSQL(v[0], v[1]); err != nil {
			return nil, fmt.Errorf("defining %s: %w", v[0], err)
		}
	}
	storeRows := make([]warehouse.Tuple, stores)
	for i := range storeRows {
		storeRows[i] = warehouse.Tuple{
			warehouse.Int(int64(i + 1)),
			warehouse.String(retailRegions[i%len(retailRegions)]),
		}
	}
	if err := w.Load(retailStores, storeRows); err != nil {
		return nil, err
	}
	gen := newRetailGen(dataSeed, stores)
	for i := 0; i < sales; i++ {
		gen.sale()
	}
	gen.reseed(seed)
	if err := w.Load(retailSales, gen.sales); err != nil {
		return nil, err
	}
	if err := w.Refresh(); err != nil {
		return nil, err
	}
	return &fixture{
		w:          w,
		gen:        gen,
		firstQuery: "SELECT wm FROM WATERMARK",
		watermark:  "SELECT wm FROM WATERMARK",
		queries: []queryKind{
			{"agg_view", "SELECT region, total, n FROM REGION_TOTALS", 0.40},
			{"order_limit", "SELECT store_id, total FROM STORE_TOTALS ORDER BY total DESC LIMIT 10", 0.25},
			{"join_view_filter", "SELECT sale_id, amount FROM SALES_BY_STORE WHERE region = 'north' AND amount > 2490", 0.20},
			{"adhoc_group", "SELECT store_id, COUNT(*) AS n FROM SALES GROUP BY store_id", 0.05},
			{"plan_miss", "SELECT region, total FROM REGION_TOTALS WHERE total > %d", 0.10},
		},
		baseRows: sales,
	}, nil
}
