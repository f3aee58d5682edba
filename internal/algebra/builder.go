package algebra

import (
	"fmt"

	"repro/internal/delta"
	"repro/internal/relation"
)

// Builder assembles a bound CQ programmatically, resolving qualified column
// names ("alias.column") against the accumulated refs. It is the Go-level
// alternative to the SQL front end and is what the TPC-D view definitions
// and most tests use.
type Builder struct {
	cq  CQ
	err error
}

// NewBuilder starts an empty definition.
func NewBuilder() *Builder { return &Builder{} }

// From adds a reference to view under alias with the given schema.
func (b *Builder) From(alias, view string, schema relation.Schema) *Builder {
	b.cq.Refs = append(b.cq.Refs, Ref{Alias: alias, View: view, Schema: schema.Clone()})
	return b
}

// joinedSchema recomputes the current concatenated qualified schema.
func (b *Builder) joinedSchema() relation.Schema {
	var out relation.Schema
	for _, r := range b.cq.Refs {
		out = append(out, r.Schema.Qualify(r.Alias)...)
	}
	return out
}

// Col resolves a qualified column name to a bound column expression.
func (b *Builder) Col(qualified string) Expr {
	js := b.joinedSchema()
	idx := js.ColumnIndex(qualified)
	if idx < 0 {
		b.fail(fmt.Errorf("algebra: unknown column %q (have %v)", qualified, js.Names()))
		return &Const{Value: relation.Null}
	}
	return &Col{Index: idx, Name: qualified, Typ: js[idx].Kind}
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Where adds a conjunctive filter predicate.
func (b *Builder) Where(pred Expr) *Builder {
	b.cq.Filters = append(b.cq.Filters, Conjuncts(pred)...)
	return b
}

// WhereEq adds an equality filter between a column and a constant.
func (b *Builder) WhereEq(qualified string, v relation.Value) *Builder {
	return b.Where(&Binary{Op: OpEq, L: b.Col(qualified), R: &Const{Value: v}})
}

// Join adds an equi-join predicate between two qualified columns.
func (b *Builder) Join(left, right string) *Builder {
	return b.Where(&Binary{Op: OpEq, L: b.Col(left), R: b.Col(right)})
}

// SelectCol projects a column under its unqualified output name (the part
// after the dot) unless an explicit name is given.
func (b *Builder) SelectCol(qualified string, name ...string) *Builder {
	n := unqualify(qualified)
	if len(name) > 0 {
		n = name[0]
	}
	b.cq.Select = append(b.cq.Select, NamedExpr{Name: n, E: b.Col(qualified)})
	return b
}

// SelectExpr projects a computed expression under the given name.
func (b *Builder) SelectExpr(name string, e Expr) *Builder {
	b.cq.Select = append(b.cq.Select, NamedExpr{Name: name, E: e})
	return b
}

// GroupByCol adds a grouping column, also projected in the output.
func (b *Builder) GroupByCol(qualified string, name ...string) *Builder {
	n := unqualify(qualified)
	if len(name) > 0 {
		n = name[0]
	}
	b.cq.GroupBy = append(b.cq.GroupBy, NamedExpr{Name: n, E: b.Col(qualified)})
	return b
}

// Agg adds an aggregate output. Input may be nil for COUNT(*).
func (b *Builder) Agg(name string, kind delta.AggKind, input Expr) *Builder {
	vk := relation.KindInt
	if input != nil {
		vk = input.Kind()
	}
	b.cq.Aggs = append(b.cq.Aggs, AggExpr{Name: name, Spec: delta.AggSpec{Kind: kind, ValueKind: vk}, Input: input})
	return b
}

// Distinct converts the current Select list into a duplicate-eliminating
// grouped view (SELECT DISTINCT): grouping on every projected expression
// with no aggregates, which keeps delta propagation correct under bag
// semantics (a distinct row disappears only when its support reaches zero).
func (b *Builder) Distinct() *Builder {
	if b.cq.GroupBy != nil {
		b.fail(fmt.Errorf("algebra: DISTINCT with GROUP BY"))
		return b
	}
	b.cq.GroupBy = b.cq.Select
	b.cq.Select = nil
	return b
}

// Build validates and returns the CQ.
func (b *Builder) Build() (*CQ, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Aggregate views without explicit GroupBy entries but with aggregates
	// are global aggregates over one implicit group; model as empty GroupBy.
	cq := b.cq
	if cq.GroupBy == nil && cq.Aggs != nil {
		cq.GroupBy = []NamedExpr{}
	}
	if err := cq.Validate(); err != nil {
		return nil, err
	}
	return &cq, nil
}

// MustBuild is Build that panics on error, for static view definitions.
func (b *Builder) MustBuild() *CQ {
	cq, err := b.Build()
	if err != nil {
		panic(err)
	}
	return cq
}

func unqualify(qualified string) string {
	for i := len(qualified) - 1; i >= 0; i-- {
		if qualified[i] == '.' {
			return qualified[i+1:]
		}
	}
	return qualified
}
