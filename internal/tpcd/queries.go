package tpcd

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/vdag"
)

// revenue builds the TPC-D revenue expression
// l_extendedprice · (1 − l_discount) over alias l.
func revenue(b *algebra.Builder) algebra.Expr {
	return &algebra.Binary{
		Op: algebra.OpMul,
		L:  b.Col("l.L_EXTENDEDPRICE"),
		R: &algebra.Binary{
			Op: algebra.OpSub,
			L:  &algebra.Const{Value: relation.NewFloat(1)},
			R:  b.Col("l.L_DISCOUNT"),
		},
	}
}

func lt(l algebra.Expr, r algebra.Expr) algebra.Expr {
	return &algebra.Binary{Op: algebra.OpLt, L: l, R: r}
}
func ge(l algebra.Expr, r algebra.Expr) algebra.Expr {
	return &algebra.Binary{Op: algebra.OpGe, L: l, R: r}
}
func gt(l algebra.Expr, r algebra.Expr) algebra.Expr {
	return &algebra.Binary{Op: algebra.OpGt, L: l, R: r}
}
func dateConst(s string) algebra.Expr {
	return &algebra.Const{Value: relation.MustDate(s)}
}

// Q3Def defines the "Shipping Priority" summary view over CUSTOMER, ORDER
// and LINEITEM:
//
//	SELECT L_ORDERKEY, O_ORDERDATE, O_SHIPPRIORITY,
//	       SUM(L_EXTENDEDPRICE·(1−L_DISCOUNT)) AS REVENUE
//	FROM CUSTOMER c, ORDER o, LINEITEM l
//	WHERE c.C_MKTSEGMENT = 'BUILDING'
//	  AND c.C_CUSTKEY = o.O_CUSTKEY AND l.L_ORDERKEY = o.O_ORDERKEY
//	  AND o.O_ORDERDATE < '1995-03-15' AND l.L_SHIPDATE > '1995-03-15'
//	GROUP BY L_ORDERKEY, O_ORDERDATE, O_SHIPPRIORITY
func Q3Def() *algebra.CQ {
	s := Schemas()
	b := algebra.NewBuilder().
		From("c", Customer, s[Customer]).
		From("o", Order, s[Order]).
		From("l", LineItem, s[LineItem])
	b.WhereEq("c.C_MKTSEGMENT", relation.NewString("BUILDING")).
		Join("c.C_CUSTKEY", "o.O_CUSTKEY").
		Join("l.L_ORDERKEY", "o.O_ORDERKEY").
		Where(lt(b.Col("o.O_ORDERDATE"), dateConst("1995-03-15"))).
		Where(gt(b.Col("l.L_SHIPDATE"), dateConst("1995-03-15"))).
		GroupByCol("l.L_ORDERKEY").
		GroupByCol("o.O_ORDERDATE").
		GroupByCol("o.O_SHIPPRIORITY").
		Agg("REVENUE", delta.AggSum, revenue(b))
	return b.MustBuild()
}

// Q5Def defines the "Local Supplier Volume" summary view over all six base
// views:
//
//	SELECT N_NAME, SUM(L_EXTENDEDPRICE·(1−L_DISCOUNT)) AS REVENUE
//	FROM CUSTOMER c, ORDER o, LINEITEM l, SUPPLIER s, NATION n, REGION r
//	WHERE c.C_CUSTKEY = o.O_CUSTKEY AND l.L_ORDERKEY = o.O_ORDERKEY
//	  AND l.L_SUPPKEY = s.S_SUPPKEY AND c.C_NATIONKEY = s.S_NATIONKEY
//	  AND s.S_NATIONKEY = n.N_NATIONKEY AND n.N_REGIONKEY = r.R_REGIONKEY
//	  AND r.R_NAME = 'ASIA'
//	  AND o.O_ORDERDATE >= '1994-01-01' AND o.O_ORDERDATE < '1995-01-01'
//	GROUP BY N_NAME
func Q5Def() *algebra.CQ {
	s := Schemas()
	b := algebra.NewBuilder().
		From("c", Customer, s[Customer]).
		From("o", Order, s[Order]).
		From("l", LineItem, s[LineItem]).
		From("s", Supplier, s[Supplier]).
		From("n", Nation, s[Nation]).
		From("r", Region, s[Region])
	b.Join("c.C_CUSTKEY", "o.O_CUSTKEY").
		Join("l.L_ORDERKEY", "o.O_ORDERKEY").
		Join("l.L_SUPPKEY", "s.S_SUPPKEY").
		Join("c.C_NATIONKEY", "s.S_NATIONKEY").
		Join("s.S_NATIONKEY", "n.N_NATIONKEY").
		Join("n.N_REGIONKEY", "r.R_REGIONKEY").
		WhereEq("r.R_NAME", relation.NewString("ASIA")).
		Where(ge(b.Col("o.O_ORDERDATE"), dateConst("1994-01-01"))).
		Where(lt(b.Col("o.O_ORDERDATE"), dateConst("1995-01-01"))).
		GroupByCol("n.N_NAME").
		Agg("REVENUE", delta.AggSum, revenue(b))
	return b.MustBuild()
}

// Q10Def defines the "Returned Item Reporting" summary view over CUSTOMER,
// ORDER, LINEITEM and NATION:
//
//	SELECT C_CUSTKEY, C_NAME, C_ACCTBAL, N_NAME,
//	       SUM(L_EXTENDEDPRICE·(1−L_DISCOUNT)) AS REVENUE
//	FROM CUSTOMER c, ORDER o, LINEITEM l, NATION n
//	WHERE c.C_CUSTKEY = o.O_CUSTKEY AND l.L_ORDERKEY = o.O_ORDERKEY
//	  AND o.O_ORDERDATE >= '1993-10-01' AND o.O_ORDERDATE < '1994-01-01'
//	  AND l.L_RETURNFLAG = 'R' AND c.C_NATIONKEY = n.N_NATIONKEY
//	GROUP BY C_CUSTKEY, C_NAME, C_ACCTBAL, N_NAME
func Q10Def() *algebra.CQ {
	s := Schemas()
	b := algebra.NewBuilder().
		From("c", Customer, s[Customer]).
		From("o", Order, s[Order]).
		From("l", LineItem, s[LineItem]).
		From("n", Nation, s[Nation])
	b.Join("c.C_CUSTKEY", "o.O_CUSTKEY").
		Join("l.L_ORDERKEY", "o.O_ORDERKEY").
		Where(ge(b.Col("o.O_ORDERDATE"), dateConst("1993-10-01"))).
		Where(lt(b.Col("o.O_ORDERDATE"), dateConst("1994-01-01"))).
		WhereEq("l.L_RETURNFLAG", relation.NewString("R")).
		Join("c.C_NATIONKEY", "n.N_NATIONKEY").
		GroupByCol("c.C_CUSTKEY").
		GroupByCol("c.C_NAME").
		GroupByCol("c.C_ACCTBAL").
		GroupByCol("n.N_NAME").
		Agg("REVENUE", delta.AggSum, revenue(b))
	return b.MustBuild()
}

// Definitions returns the three summary-view definitions keyed by name.
func Definitions() map[string]*algebra.CQ {
	return map[string]*algebra.CQ{Q3: Q3Def(), Q5: Q5Def(), Q10: Q10Def()}
}

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

// Q3ByPriorityDef summarizes Q3: total revenue per ship priority.
func Q3ByPriorityDef() *algebra.CQ {
	q3Schema := Q3Def().OutputSchema()
	b := algebra.NewBuilder().From("q", Q3, q3Schema)
	b.GroupByCol("q.O_SHIPPRIORITY").
		Agg("TOTAL", delta.AggSum, b.Col("q.REVENUE")).
		Agg("ORDERS", delta.AggCount, nil)
	return b.MustBuild()
}

// NationRevenueDef joins Q5's per-nation revenue back to NATION rows.
func NationRevenueDef() *algebra.CQ {
	s := Schemas()
	q5Schema := Q5Def().OutputSchema()
	b := algebra.NewBuilder().
		From("q", Q5, q5Schema).
		From("n", Nation, s[Nation])
	b.Join("q.N_NAME", "n.N_NAME").
		Where(gt(b.Col("q.REVENUE"), &algebra.Const{Value: relation.NewFloat(0)})).
		SelectCol("n.N_NATIONKEY").
		SelectCol("n.N_NAME").
		SelectCol("q.REVENUE")
	return b.MustBuild()
}

// Warehouse holds the assembled TPC-D warehouse plus its generator (for
// change batches) and VDAG.
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
	gb := vdag.NewBuilder()
	for _, name := range w.ViewNames() {
		if err := gb.Add(name, w.Children(name)); err != nil {
			return nil, err
		}
	}
	return &Warehouse{W: w, Graph: gb.Build(), gen: gen}, nil
}
