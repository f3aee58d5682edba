package tpcd

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sqlparse"
	"repro/internal/vdag"
)

// Second-level summary views. The paper notes that "derived views that
// further summarize Q3, Q5 and Q10 can also be defined"; these two make the
// VDAG deep and non-uniform, which exercises the MinWork fallback path
// (cyclic expression graphs repaired by ModifyOrdering) on realistic data.
const (
	// Q3ByPriority rolls Q3 up by ship priority (Level 2, over Level 1).
	Q3ByPriority = "Q3_BY_PRIORITY"
	// NationRevenue joins the Level-1 Q5 with the Level-0 NATION — a
	// mixed-level definition, so the deep VDAG is not uniform.
	NationRevenue = "NATION_REVENUE"
)

// viewSQL holds the one definition of each TPC-D summary view, in the SQL
// the warehouse's front end (internal/sqlparse) parses.
var viewSQL = map[string]string{
	// Q3, "Shipping Priority".
	Q3: `SELECT l.L_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY,
       SUM(l.L_EXTENDEDPRICE * (1.0 - l.L_DISCOUNT)) AS REVENUE
FROM CUSTOMER c, ORDER o, LINEITEM l
WHERE c.C_MKTSEGMENT = 'BUILDING'
  AND c.C_CUSTKEY = o.O_CUSTKEY AND l.L_ORDERKEY = o.O_ORDERKEY
  AND o.O_ORDERDATE < DATE '1995-03-15' AND l.L_SHIPDATE > DATE '1995-03-15'
GROUP BY l.L_ORDERKEY, o.O_ORDERDATE, o.O_SHIPPRIORITY`,
	// Q5, "Local Supplier Volume", over all six base views.
	Q5: `SELECT n.N_NAME, SUM(l.L_EXTENDEDPRICE * (1.0 - l.L_DISCOUNT)) AS REVENUE
FROM CUSTOMER c, ORDER o, LINEITEM l, SUPPLIER s, NATION n, REGION r
WHERE c.C_CUSTKEY = o.O_CUSTKEY AND l.L_ORDERKEY = o.O_ORDERKEY
  AND l.L_SUPPKEY = s.S_SUPPKEY AND c.C_NATIONKEY = s.S_NATIONKEY
  AND s.S_NATIONKEY = n.N_NATIONKEY AND n.N_REGIONKEY = r.R_REGIONKEY
  AND r.R_NAME = 'ASIA'
  AND o.O_ORDERDATE >= DATE '1994-01-01' AND o.O_ORDERDATE < DATE '1995-01-01'
GROUP BY n.N_NAME`,
	// Q10, "Returned Item Reporting".
	Q10: `SELECT c.C_CUSTKEY, c.C_NAME, c.C_ACCTBAL, n.N_NAME,
       SUM(l.L_EXTENDEDPRICE * (1.0 - l.L_DISCOUNT)) AS REVENUE
FROM CUSTOMER c, ORDER o, LINEITEM l, NATION n
WHERE c.C_CUSTKEY = o.O_CUSTKEY AND l.L_ORDERKEY = o.O_ORDERKEY
  AND o.O_ORDERDATE >= DATE '1993-10-01' AND o.O_ORDERDATE < DATE '1994-01-01'
  AND l.L_RETURNFLAG = 'R' AND c.C_NATIONKEY = n.N_NATIONKEY
GROUP BY c.C_CUSTKEY, c.C_NAME, c.C_ACCTBAL, n.N_NAME`,
	// Total revenue per ship priority.
	Q3ByPriority: `SELECT q.O_SHIPPRIORITY, SUM(q.REVENUE) AS TOTAL, COUNT(*) AS ORDERS
FROM Q3 q
GROUP BY q.O_SHIPPRIORITY`,
	// Q5's per-nation revenue joined back to NATION rows.
	NationRevenue: `SELECT n.N_NATIONKEY, n.N_NAME, q.REVENUE
FROM Q5 q, NATION n
WHERE q.N_NAME = n.N_NAME AND q.REVENUE > 0.0`,
}

// parseView parses a summary view's SQL against the base schemas and the
// views it reads. The texts are constants, so a failure is a bug here.
func parseView(name string) *algebra.CQ {
	cq, err := sqlparse.Parse(viewSQL[name], resolve)
	if err != nil {
		panic(fmt.Sprintf("tpcd: %s: %v", name, err))
	}
	return cq
}

// resolve is the schema resolver the summary views are parsed against.
func resolve(view string) (relation.Schema, error) {
	if s, ok := Schemas()[view]; ok {
		return s, nil
	}
	if _, ok := viewSQL[view]; ok {
		return parseView(view).OutputSchema(), nil
	}
	return nil, fmt.Errorf("tpcd: no view %q", view)
}

// Definitions returns the three summary-view definitions keyed by name.
func Definitions() map[string]*algebra.CQ {
	return map[string]*algebra.CQ{Q3: parseView(Q3), Q5: parseView(Q5), Q10: parseView(Q10)}
}

// Q3ByPriorityDef summarizes Q3: total revenue per ship priority.
func Q3ByPriorityDef() *algebra.CQ { return parseView(Q3ByPriority) }

// NationRevenueDef joins Q5's per-nation revenue back to NATION rows.
func NationRevenueDef() *algebra.CQ { return parseView(NationRevenue) }

// Warehouse holds the assembled TPC-D warehouse plus its generator (for
// change batches) and VDAG (the catalog's, W.Graph()).
type Warehouse struct {
	W     *core.Warehouse
	Graph *vdag.Graph
	gen   *generator
}

// NewWarehouse builds the Figure 4 warehouse: six base views populated at
// cfg.SF, and Q3, Q5 and Q10 materialized on top.
func NewWarehouse(cfg Config) (*Warehouse, error) {
	if cfg.SF <= 0 {
		return nil, fmt.Errorf("tpcd: scale factor must be positive, got %v", cfg.SF)
	}
	w := core.New(cfg.Options)
	schemas := Schemas()
	for _, name := range BaseViews {
		if err := w.DefineBase(name, schemas[name]); err != nil {
			return nil, err
		}
	}
	defs := Definitions()
	queries := cfg.Queries
	if queries == nil {
		queries = DerivedViews
	}
	for _, name := range queries {
		def, ok := defs[name]
		if !ok {
			return nil, fmt.Errorf("tpcd: unknown summary view %q", name)
		}
		if err := w.DefineDerived(name, def); err != nil {
			return nil, err
		}
	}
	if cfg.DeepVDAG {
		if cfg.Queries != nil {
			return nil, fmt.Errorf("tpcd: DeepVDAG requires the full query set (leave Queries nil)")
		}
		if err := w.DefineDerived(Q3ByPriority, Q3ByPriorityDef()); err != nil {
			return nil, err
		}
		if err := w.DefineDerived(NationRevenue, NationRevenueDef()); err != nil {
			return nil, err
		}
	}
	gen := newGenerator(cfg)
	if err := gen.populate(w); err != nil {
		return nil, err
	}
	if err := w.RefreshAll(); err != nil {
		return nil, err
	}
	return &Warehouse{W: w, Graph: w.Graph(), gen: gen}, nil
}
