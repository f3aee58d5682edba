package algebra

import (
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

var (
	schemaR = relation.Schema{{Name: "a", Kind: relation.KindInt}, {Name: "b", Kind: relation.KindInt}}
	schemaS = relation.Schema{{Name: "b", Kind: relation.KindInt}, {Name: "c", Kind: relation.KindFloat}}
)

func row(vals ...interface{}) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			t[i] = relation.NewInt(int64(x))
		case float64:
			t[i] = relation.NewFloat(x)
		case string:
			t[i] = relation.NewString(x)
		case bool:
			t[i] = relation.NewBool(x)
		case nil:
			t[i] = relation.Null
		}
	}
	return t
}

func TestColConstEval(t *testing.T) {
	c := &Col{Index: 1, Name: "r.b", Typ: relation.KindInt}
	if got := c.Eval(row(1, 2)); got.Int() != 2 {
		t.Errorf("col eval = %v", got)
	}
	if c.Kind() != relation.KindInt || c.String() != "r.b" {
		t.Errorf("col metadata wrong")
	}
	k := &Const{Value: relation.NewString("x")}
	if k.Eval(nil).Str() != "x" || k.String() != "'x'" {
		t.Errorf("const wrong: %s", k)
	}
	n := &Const{Value: relation.NewInt(7)}
	if n.String() != "7" {
		t.Errorf("int const string = %q", n.String())
	}
	if len(c.Columns(nil)) != 1 || len(k.Columns(nil)) != 0 {
		t.Errorf("Columns wrong")
	}
}

func TestBinaryArithmetic(t *testing.T) {
	a := &Col{Index: 0, Typ: relation.KindInt, Name: "a"}
	b := &Col{Index: 1, Typ: relation.KindFloat, Name: "b"}
	cases := []struct {
		op   BinOp
		l, r Expr
		in   relation.Tuple
		want relation.Value
	}{
		{OpAdd, a, a, row(3, 0.0), relation.NewInt(6)},
		{OpSub, a, a, row(3, 0.0), relation.NewInt(0)},
		{OpMul, a, a, row(4, 0.0), relation.NewInt(16)},
		{OpAdd, a, b, row(3, 1.5), relation.NewFloat(4.5)},
		{OpMul, b, b, row(0, 2.5), relation.NewFloat(6.25)},
		{OpDiv, a, a, row(9, 0.0), relation.NewFloat(1)},
		{OpSub, b, a, row(1, 2.5), relation.NewFloat(1.5)},
	}
	for _, c := range cases {
		e := &Binary{Op: c.op, L: c.l, R: c.r}
		got := e.Eval(c.in)
		if relation.Compare(got, c.want) != 0 {
			t.Errorf("%s on %v = %v, want %v", e, c.in, got, c.want)
		}
	}
	// Division by zero yields NULL.
	z := &Binary{Op: OpDiv, L: a, R: &Const{Value: relation.NewFloat(0)}}
	if !z.Eval(row(5, 0.0)).IsNull() {
		t.Errorf("x/0 should be NULL")
	}
	// Arithmetic on NULL yields NULL.
	n := &Binary{Op: OpAdd, L: a, R: &Const{Value: relation.Null}}
	if !n.Eval(row(5, 0.0)).IsNull() {
		t.Errorf("x + NULL should be NULL")
	}
}

func TestBinaryComparisons(t *testing.T) {
	a := &Col{Index: 0, Typ: relation.KindInt, Name: "a"}
	five := &Const{Value: relation.NewInt(5)}
	cases := []struct {
		op   BinOp
		in   int
		want bool
	}{
		{OpEq, 5, true}, {OpEq, 4, false},
		{OpNe, 4, true}, {OpNe, 5, false},
		{OpLt, 4, true}, {OpLt, 5, false},
		{OpLe, 5, true}, {OpLe, 6, false},
		{OpGt, 6, true}, {OpGt, 5, false},
		{OpGe, 5, true}, {OpGe, 4, false},
	}
	for _, c := range cases {
		e := &Binary{Op: c.op, L: a, R: five}
		if got := e.Eval(row(c.in, 0)).Bool(); got != c.want {
			t.Errorf("%d %s 5 = %v, want %v", c.in, c.op, got, c.want)
		}
		if e.Kind() != relation.KindBool {
			t.Errorf("comparison kind = %v", e.Kind())
		}
	}
	// NULL comparisons are false under the engine's two-valued logic.
	n := &Binary{Op: OpEq, L: &Const{Value: relation.Null}, R: five}
	if n.Eval(nil).Bool() {
		t.Errorf("NULL = 5 should be false")
	}
}

func TestBooleanConnectives(t *testing.T) {
	tt := &Const{Value: relation.NewBool(true)}
	ff := &Const{Value: relation.NewBool(false)}
	nn := &Const{Value: relation.Null}
	if !(&Binary{Op: OpAnd, L: tt, R: tt}).Eval(nil).Bool() {
		t.Errorf("t AND t")
	}
	if (&Binary{Op: OpAnd, L: tt, R: ff}).Eval(nil).Bool() {
		t.Errorf("t AND f")
	}
	if (&Binary{Op: OpAnd, L: nn, R: tt}).Eval(nil).Bool() {
		t.Errorf("NULL AND t should be false")
	}
	if !(&Binary{Op: OpOr, L: ff, R: tt}).Eval(nil).Bool() {
		t.Errorf("f OR t")
	}
	if (&Binary{Op: OpOr, L: ff, R: nn}).Eval(nil).Bool() {
		t.Errorf("f OR NULL should be false")
	}
	if !(&Not{E: ff}).Eval(nil).Bool() || (&Not{E: tt}).Eval(nil).Bool() {
		t.Errorf("NOT wrong")
	}
	if !(&Not{E: nn}).Eval(nil).Bool() {
		t.Errorf("NOT NULL should be true (NULL treated as false)")
	}
	not := &Not{E: &Col{Index: 0, Typ: relation.KindBool, Name: "x"}}
	if not.Kind() != relation.KindBool || len(not.Columns(nil)) != 1 || not.String() != "NOT x" {
		t.Errorf("Not metadata wrong")
	}
}

func TestConjunctsAndAll(t *testing.T) {
	a := &Const{Value: relation.NewBool(true)}
	b := &Const{Value: relation.NewBool(false)}
	c := &Const{Value: relation.NewBool(true)}
	e := &Binary{Op: OpAnd, L: &Binary{Op: OpAnd, L: a, R: b}, R: c}
	parts := Conjuncts(e)
	if len(parts) != 3 {
		t.Errorf("Conjuncts = %d", len(parts))
	}
	if got := FormatExprs(parts); !strings.Contains(got, "AND") {
		t.Errorf("FormatExprs = %q", got)
	}
	if !EvalBool(a, nil) || EvalBool(b, nil) {
		t.Errorf("EvalBool wrong")
	}
}

func TestBinOpStrings(t *testing.T) {
	if OpAdd.String() != "+" || OpGe.String() != ">=" || OpAnd.String() != "AND" {
		t.Errorf("op strings wrong")
	}
	if BinOp(99).String() != "BinOp(99)" {
		t.Errorf("unknown op string")
	}
	if !OpEq.IsComparison() || OpAdd.IsComparison() || !OpMul.IsArithmetic() || OpOr.IsArithmetic() {
		t.Errorf("op classification wrong")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		cq   CQ
	}{
		{"no refs", CQ{}},
		{"no output", CQ{Refs: []Ref{{Alias: "r", View: "R", Schema: schemaR}}}},
		{"duplicate alias", CQ{
			Refs:   []Ref{{Alias: "r", View: "R", Schema: schemaR}, {Alias: "r", View: "S", Schema: schemaS}},
			Select: []NamedExpr{{Name: "x", E: &Const{Value: relation.NewInt(1)}}},
		}},
		{"empty alias", CQ{Refs: []Ref{{Alias: "", View: "R", Schema: schemaR}}, Select: []NamedExpr{{Name: "x", E: &Const{Value: relation.NewInt(1)}}}}},
		{"empty schema", CQ{Refs: []Ref{{Alias: "r", View: "R"}}, Select: []NamedExpr{{Name: "x", E: &Const{Value: relation.NewInt(1)}}}}},
		{"aggs without group", CQ{Refs: []Ref{{Alias: "r", View: "R", Schema: schemaR}}, Aggs: []AggExpr{{Name: "n", Spec: delta.AggSpec{Kind: delta.AggCount}}}}},
		{"select and group", CQ{
			Refs:    []Ref{{Alias: "r", View: "R", Schema: schemaR}},
			Select:  []NamedExpr{{Name: "x", E: &Const{Value: relation.NewInt(1)}}},
			GroupBy: []NamedExpr{{Name: "y", E: &Const{Value: relation.NewInt(1)}}},
		}},
		{"column out of range", CQ{
			Refs:   []Ref{{Alias: "r", View: "R", Schema: schemaR}},
			Select: []NamedExpr{{Name: "x", E: &Col{Index: 99, Typ: relation.KindInt}}},
		}},
		{"non-boolean filter", CQ{
			Refs:    []Ref{{Alias: "r", View: "R", Schema: schemaR}},
			Filters: []Expr{&Const{Value: relation.NewInt(1)}},
			Select:  []NamedExpr{{Name: "x", E: &Const{Value: relation.NewInt(1)}}},
		}},
		{"duplicate output name", CQ{
			Refs: []Ref{{Alias: "r", View: "R", Schema: schemaR}},
			Select: []NamedExpr{
				{Name: "x", E: &Const{Value: relation.NewInt(1)}},
				{Name: "x", E: &Const{Value: relation.NewInt(2)}},
			},
		}},
		{"empty output name", CQ{
			Refs:   []Ref{{Alias: "r", View: "R", Schema: schemaR}},
			Select: []NamedExpr{{Name: "", E: &Const{Value: relation.NewInt(1)}}},
		}},
		{"sum without input", CQ{
			Refs:    []Ref{{Alias: "r", View: "R", Schema: schemaR}},
			GroupBy: []NamedExpr{},
			Aggs:    []AggExpr{{Name: "s", Spec: delta.AggSpec{Kind: delta.AggSum}}},
		}},
	}
	for _, c := range cases {
		cq := c.cq
		if err := cq.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestNamedExprAndAggExprString(t *testing.T) {
	ne := NamedExpr{Name: "x", E: &Const{Value: relation.NewInt(1)}}
	if ne.String() != "1 AS x" {
		t.Errorf("NamedExpr = %q", ne.String())
	}
	ae := AggExpr{Name: "n", Spec: delta.AggSpec{Kind: delta.AggCount}}
	if ae.String() != "COUNT(*) AS n" {
		t.Errorf("AggExpr = %q", ae.String())
	}
}
