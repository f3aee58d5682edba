// Package algebra defines the logical form of warehouse view definitions and
// the scalar expression language used inside them.
//
// A view definition is a conjunctive query (CQ): a list of view references
// joined by conjunctive predicates, a projection, and an optional group-by
// with aggregates. This is exactly the SELECT-FROM-WHERE-GROUPBY class the
// paper's warehouse model covers (projection, selection, join, aggregation),
// and it is the class for which the standard incremental maintenance
// expressions of [GL95]/[Qua96] apply.
//
// Scalar expressions are bound: column references carry the index of the
// column in the concatenated, alias-qualified schema of the CQ's references.
// Binding is done once (by the SQL binder or by the programmatic builder) so
// evaluation is allocation-free index lookups.
package algebra

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Expr is a bound scalar expression evaluated against a row of the CQ's
// concatenated reference schema.
type Expr interface {
	// Eval computes the expression over the row.
	Eval(row relation.Tuple) relation.Value
	// Kind is the static result type.
	Kind() relation.Kind
	// Columns appends the indexes of all referenced columns to dst.
	Columns(dst []int) []int
	// String renders the expression for diagnostics.
	String() string
}

// Col references a column by position in the bound row.
type Col struct {
	Index int
	Name  string // qualified name, for display
	Typ   relation.Kind
}

// Eval implements Expr.
func (c *Col) Eval(row relation.Tuple) relation.Value { return row[c.Index] }

// Kind implements Expr.
func (c *Col) Kind() relation.Kind { return c.Typ }

// Columns implements Expr.
func (c *Col) Columns(dst []int) []int { return append(dst, c.Index) }

func (c *Col) String() string { return c.Name }

// Const is a literal value.
type Const struct {
	Value relation.Value
}

// Eval implements Expr.
func (c *Const) Eval(relation.Tuple) relation.Value { return c.Value }

// Kind implements Expr.
func (c *Const) Kind() relation.Kind { return c.Value.Kind() }

// Columns implements Expr.
func (c *Const) Columns(dst []int) []int { return dst }

func (c *Const) String() string {
	if c.Value.Kind() == relation.KindString {
		return "'" + c.Value.String() + "'"
	}
	return c.Value.String()
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators: arithmetic, comparison, and boolean connectives.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (o BinOp) String() string {
	if s, ok := binOpNames[o]; ok {
		return s
	}
	return fmt.Sprintf("BinOp(%d)", uint8(o))
}

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (o BinOp) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsArithmetic reports whether the operator is numeric arithmetic.
func (o BinOp) IsArithmetic() bool { return o <= OpDiv }

// Binary applies a binary operator. Comparisons involving NULL evaluate to
// false (two-valued logic is sufficient for this engine: the TPC-D data and
// the maintenance expressions never rely on three-valued semantics).
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Kind implements Expr.
func (b *Binary) Kind() relation.Kind {
	if b.Op.IsArithmetic() {
		if b.L.Kind() == relation.KindFloat || b.R.Kind() == relation.KindFloat || b.Op == OpDiv {
			return relation.KindFloat
		}
		return relation.KindInt
	}
	return relation.KindBool
}

// Eval implements Expr.
func (b *Binary) Eval(row relation.Tuple) relation.Value {
	switch b.Op {
	case OpAnd:
		l := b.L.Eval(row)
		if l.IsNull() || !l.Bool() {
			return relation.NewBool(false)
		}
		r := b.R.Eval(row)
		return relation.NewBool(!r.IsNull() && r.Bool())
	case OpOr:
		l := b.L.Eval(row)
		if !l.IsNull() && l.Bool() {
			return relation.NewBool(true)
		}
		r := b.R.Eval(row)
		return relation.NewBool(!r.IsNull() && r.Bool())
	}
	l, r := b.L.Eval(row), b.R.Eval(row)
	if l.IsNull() || r.IsNull() {
		if b.Op.IsComparison() {
			return relation.NewBool(false)
		}
		return relation.Null
	}
	if b.Op.IsComparison() {
		c := relation.Compare(l, r)
		switch b.Op {
		case OpEq:
			return relation.NewBool(c == 0)
		case OpNe:
			return relation.NewBool(c != 0)
		case OpLt:
			return relation.NewBool(c < 0)
		case OpLe:
			return relation.NewBool(c <= 0)
		case OpGt:
			return relation.NewBool(c > 0)
		default: // OpGe
			return relation.NewBool(c >= 0)
		}
	}
	// Arithmetic.
	if b.Kind() == relation.KindInt {
		li, ri := l.Int(), r.Int()
		switch b.Op {
		case OpAdd:
			return relation.NewInt(li + ri)
		case OpSub:
			return relation.NewInt(li - ri)
		default: // OpMul
			return relation.NewInt(li * ri)
		}
	}
	lf, rf := l.Float(), r.Float()
	switch b.Op {
	case OpAdd:
		return relation.NewFloat(lf + rf)
	case OpSub:
		return relation.NewFloat(lf - rf)
	case OpMul:
		return relation.NewFloat(lf * rf)
	default: // OpDiv
		if rf == 0 {
			return relation.Null
		}
		return relation.NewFloat(lf / rf)
	}
}

// Columns implements Expr.
func (b *Binary) Columns(dst []int) []int { return b.R.Columns(b.L.Columns(dst)) }

func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Not negates a boolean expression; NULL is treated as false first.
type Not struct {
	E Expr
}

// Eval implements Expr.
func (n *Not) Eval(row relation.Tuple) relation.Value {
	v := n.E.Eval(row)
	return relation.NewBool(v.IsNull() || !v.Bool())
}

// Kind implements Expr.
func (n *Not) Kind() relation.Kind { return relation.KindBool }

// Columns implements Expr.
func (n *Not) Columns(dst []int) []int { return n.E.Columns(dst) }

func (n *Not) String() string { return "NOT " + n.E.String() }

// EvalBool evaluates a predicate; NULL counts as false.
func EvalBool(e Expr, row relation.Tuple) bool {
	v := e.Eval(row)
	return !v.IsNull() && v.Bool()
}

// NamedExpr is a projection output: an expression with an output column name.
type NamedExpr struct {
	Name string
	E    Expr
}

func (n NamedExpr) String() string { return n.E.String() + " AS " + n.Name }

// Conjuncts flattens nested ANDs into a list of conjuncts.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// FormatExprs renders a list of expressions for diagnostics.
func FormatExprs(exprs []Expr) string {
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}
