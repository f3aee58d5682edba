package algebra

import (
	"fmt"
	"strings"

	"repro/internal/delta"
	"repro/internal/relation"
)

// Ref is one FROM-clause entry: a warehouse view under an alias.
type Ref struct {
	Alias string
	View  string
	// Schema is the (unqualified) schema of the referenced view, recorded at
	// bind time so offsets into the concatenated row are stable.
	Schema relation.Schema
}

// AggExpr is one aggregate output of a summary view.
type AggExpr struct {
	Name string
	Spec delta.AggSpec
	// Input is the aggregate's input expression over the concatenated
	// schema; nil for COUNT(*).
	Input Expr
}

func (a AggExpr) String() string {
	arg := "*"
	if a.Input != nil {
		arg = a.Input.String()
	}
	return fmt.Sprintf("%s(%s) AS %s", a.Spec.Kind, arg, a.Name)
}

// CQ is a bound conjunctive-query view definition:
//
//	SELECT <Select | GroupBy+Aggs> FROM <Refs> WHERE <Filters> [GROUP BY ...]
//
// All expressions are bound over the concatenation of the refs' schemas, in
// Refs order, with qualified column names "alias.column".
type CQ struct {
	Refs    []Ref
	Filters []Expr // conjunctive predicates
	// Select is the projection for an SPJ view (nil when grouped).
	Select []NamedExpr
	// GroupBy and Aggs define a summary view (GroupBy non-nil, possibly with
	// zero Aggs for SELECT DISTINCT).
	GroupBy []NamedExpr
	Aggs    []AggExpr
	// offsets[i] is the index of ref i's first column in the concatenated row.
	offsets []int
	joined  relation.Schema
	// filterRefs[i] is RefsOfExpr(Filters[i]), precomputed at Validate time
	// so the per-evaluation join planner never re-walks filter expressions
	// (or allocates column scratch) on the serving hot path; read, for the
	// same reason, is ReadColumns.
	filterRefs []uint64
	read       []bool
}

// IsAggregate reports whether the view is a summary (grouped) view.
func (q *CQ) IsAggregate() bool { return q.GroupBy != nil }

// Validated reports whether Validate has already succeeded on this CQ.
// Callers holding a CQ that may be shared across goroutines (the prepared-
// plan cache hands one plan to many queries at once) must not re-Validate
// it — Validate rewrites the internal offsets, which would race with
// concurrent readers — and can use this to skip the call safely: a CQ is
// never published to concurrent use before its single bind-time Validate.
func (q *CQ) Validated() bool { return q.offsets != nil }

// Validate checks structural invariants and computes internal offsets. It
// must be called once after the CQ is assembled and before any other method.
func (q *CQ) Validate() error {
	if len(q.Refs) == 0 {
		return fmt.Errorf("algebra: view definition has no references")
	}
	seenAlias := make(map[string]bool)
	q.offsets = make([]int, len(q.Refs))
	q.joined = nil
	off := 0
	for i, r := range q.Refs {
		if r.Alias == "" || r.View == "" {
			return fmt.Errorf("algebra: ref %d has empty alias or view", i)
		}
		if seenAlias[r.Alias] {
			return fmt.Errorf("algebra: duplicate alias %q", r.Alias)
		}
		seenAlias[r.Alias] = true
		if len(r.Schema) == 0 {
			return fmt.Errorf("algebra: ref %q has empty schema", r.Alias)
		}
		q.offsets[i] = off
		off += len(r.Schema)
		q.joined = append(q.joined, r.Schema.Qualify(r.Alias)...)
	}
	if q.GroupBy == nil && q.Aggs != nil {
		return fmt.Errorf("algebra: aggregates without GROUP BY")
	}
	if q.GroupBy != nil && q.Select != nil {
		return fmt.Errorf("algebra: both Select and GroupBy set")
	}
	if q.GroupBy == nil && len(q.Select) == 0 {
		return fmt.Errorf("algebra: SPJ view with empty projection")
	}
	width := len(q.joined)
	check := func(e Expr, what string) error {
		for _, c := range e.Columns(nil) {
			if c < 0 || c >= width {
				return fmt.Errorf("algebra: %s references column %d outside row width %d", what, c, width)
			}
		}
		return nil
	}
	q.filterRefs = make([]uint64, len(q.Filters))
	q.read = make([]bool, width)
	markRead := func(e Expr) {
		for _, c := range e.Columns(nil) {
			q.read[c] = true
		}
	}
	for fi, f := range q.Filters {
		if err := check(f, "filter "+f.String()); err != nil {
			return err
		}
		if f.Kind() != relation.KindBool {
			return fmt.Errorf("algebra: filter %s is not boolean", f)
		}
		q.filterRefs[fi] = q.RefsOfExpr(f)
		markRead(f)
	}
	names := make(map[string]bool)
	addName := func(n string) error {
		if n == "" {
			return fmt.Errorf("algebra: empty output column name")
		}
		if names[n] {
			return fmt.Errorf("algebra: duplicate output column %q", n)
		}
		names[n] = true
		return nil
	}
	for _, s := range q.Select {
		if err := check(s.E, "projection "+s.Name); err != nil {
			return err
		}
		if err := addName(s.Name); err != nil {
			return err
		}
		markRead(s.E)
	}
	for _, g := range q.GroupBy {
		if err := check(g.E, "group-by "+g.Name); err != nil {
			return err
		}
		if err := addName(g.Name); err != nil {
			return err
		}
		markRead(g.E)
	}
	for _, a := range q.Aggs {
		if a.Input != nil {
			if err := check(a.Input, "aggregate "+a.Name); err != nil {
				return err
			}
			markRead(a.Input)
		} else if a.Spec.Kind != delta.AggCount {
			return fmt.Errorf("algebra: aggregate %s has no input expression", a.Name)
		}
		if err := addName(a.Name); err != nil {
			return err
		}
	}
	return nil
}

// JoinedSchema returns the concatenated, qualified schema of all refs.
func (q *CQ) JoinedSchema() relation.Schema { return q.joined }

// RefOffset returns the index of ref i's first column in the joined row.
func (q *CQ) RefOffset(i int) int { return q.offsets[i] }

// RefOfColumn returns the index of the ref whose segment contains column c.
func (q *CQ) RefOfColumn(c int) int {
	for i := len(q.Refs) - 1; i >= 0; i-- {
		if c >= q.offsets[i] {
			return i
		}
	}
	panic(fmt.Sprintf("algebra: column %d before first ref", c))
}

// FilterRefs returns RefsOfExpr(Filters[i]) from the mask precomputed at
// Validate time — the allocation-free form the evaluation planner uses.
func (q *CQ) FilterRefs(i int) uint64 { return q.filterRefs[i] }

// ReadColumns marks the joined-row columns the definition reads: those of
// its filters, and of its select list or its group-by keys and aggregate
// inputs. An evaluator needs no other column of a joined row. The slice is
// the CQ's own and must not be modified.
func (q *CQ) ReadColumns() []bool { return q.read }

// RefsOfExpr returns the set of ref indexes an expression touches, as a
// bitmask (supports up to 64 refs, far beyond any realistic view).
func (q *CQ) RefsOfExpr(e Expr) uint64 {
	var mask uint64
	for _, c := range e.Columns(nil) {
		mask |= 1 << uint(q.RefOfColumn(c))
	}
	return mask
}

// OutputSchema returns the schema of the view the CQ defines.
func (q *CQ) OutputSchema() relation.Schema {
	var out relation.Schema
	if q.IsAggregate() {
		for _, g := range q.GroupBy {
			out = append(out, relation.Column{Name: g.Name, Kind: g.E.Kind()})
		}
		for _, a := range q.Aggs {
			out = append(out, relation.Column{Name: a.Name, Kind: a.Spec.OutputKind()})
		}
		return out
	}
	for _, s := range q.Select {
		out = append(out, relation.Column{Name: s.Name, Kind: s.E.Kind()})
	}
	return out
}

// GroupSchema returns the schema of the grouping columns (aggregate views).
func (q *CQ) GroupSchema() relation.Schema {
	var out relation.Schema
	for _, g := range q.GroupBy {
		out = append(out, relation.Column{Name: g.Name, Kind: g.E.Kind()})
	}
	return out
}

// AggSpecs returns the aggregate specs in output order.
func (q *CQ) AggSpecs() []delta.AggSpec {
	out := make([]delta.AggSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		out[i] = a.Spec
	}
	return out
}

// AggNames returns the aggregate output column names.
func (q *CQ) AggNames() []string {
	out := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		out[i] = a.Name
	}
	return out
}

// BaseViews returns the distinct view names referenced, in first-appearance
// order. These are the VDAG children of the view this CQ defines.
func (q *CQ) BaseViews() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range q.Refs {
		if !seen[r.View] {
			seen[r.View] = true
			out = append(out, r.View)
		}
	}
	return out
}

// RefsOfView returns the indexes of all refs naming the given view.
func (q *CQ) RefsOfView(view string) []int {
	var out []int
	for i, r := range q.Refs {
		if r.View == view {
			out = append(out, i)
		}
	}
	return out
}

// String renders the CQ in SQL-like form for diagnostics.
func (q *CQ) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	var outs []string
	for _, g := range q.GroupBy {
		outs = append(outs, g.String())
	}
	for _, a := range q.Aggs {
		outs = append(outs, a.String())
	}
	for _, s := range q.Select {
		outs = append(outs, s.String())
	}
	b.WriteString(strings.Join(outs, ", "))
	b.WriteString(" FROM ")
	var refs []string
	for _, r := range q.Refs {
		refs = append(refs, r.View+" "+r.Alias)
	}
	b.WriteString(strings.Join(refs, ", "))
	if len(q.Filters) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(FormatExprs(q.Filters))
	}
	if q.GroupBy != nil {
		b.WriteString(" GROUP BY ")
		var gs []string
		for _, g := range q.GroupBy {
			gs = append(gs, g.E.String())
		}
		b.WriteString(strings.Join(gs, ", "))
	}
	return b.String()
}
