package sqlparse

import (
	"repro/internal/algebra"
)

// OrderKey is one ORDER BY key of an ad-hoc query: an output column index
// and a direction.
type OrderKey struct {
	Column int
	Desc   bool
}

// Query is a parsed ad-hoc (OLAP) query: a view-definition-shaped body plus
// presentation clauses. ORDER BY and LIMIT/OFFSET are presentation only —
// they are meaningful for queries, not for materialized view definitions,
// which is why Parse (the view-definition entry point) rejects them.
//
// A *Query may be retained by the prepared-plan cache and evaluated from
// many goroutines at once; it is immutable after ParseQuery returns (the
// CQ is pre-validated, and evaluation never mutates it).
type Query struct {
	CQ      *algebra.CQ
	OrderBy []OrderKey
	// Limit caps the returned rows; < 0 means no limit.
	Limit int
	// Offset skips that many rows (after ordering, before Limit).
	Offset int
}

// ParseQuery parses a SELECT with optional trailing ORDER BY and
// LIMIT/OFFSET clauses, binding against the resolver. ORDER BY keys are
// output column names or 1-based output ordinals, optionally followed by
// ASC or DESC; LIMIT takes an optional OFFSET (OFFSET is a soft keyword:
// it remains usable as a column or view name everywhere else).
func ParseQuery(sql string, resolve Resolver) (*Query, error) {
	p, err := newParser(sql, resolve)
	if err != nil {
		return nil, err
	}
	defer p.release()
	cq, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	q := &Query{CQ: cq, Limit: -1}
	out := cq.OutputSchema()

	if p.acceptKeyword(kwOrder) {
		if err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		for {
			col := p.next()
			var idx int
			switch {
			case col.kind == tokIdent:
				name := p.text(col)
				idx = out.ColumnIndex(name)
				if idx < 0 {
					return nil, p.errAt(col, "ORDER BY %q is not an output column (have %v)", name, out.Names())
				}
			case col.kind == tokNumber && !hasDot(p.lx.view(col)):
				n, ok := parseIntBytes(p.lx.view(col))
				if !ok || n < 1 || n > int64(len(out)) {
					return nil, p.errAt(col, "ORDER BY ordinal %s out of range (have %d output columns)", p.lx.view(col), len(out))
				}
				idx = int(n - 1)
			default:
				return nil, p.errAt(col, "expected output column or ordinal in ORDER BY, got %s", p.describe(col))
			}
			key := OrderKey{Column: idx}
			switch {
			case p.acceptKeyword(kwAsc):
			case p.acceptKeyword(kwDesc):
				key.Desc = true
			}
			q.OrderBy = append(q.OrderBy, key)
			if !p.acceptSymbol(symComma) {
				break
			}
		}
	}
	if p.acceptKeyword(kwLimit) {
		n := p.next()
		if n.kind != tokNumber {
			return nil, p.errAt(n, "expected number after LIMIT, got %s", p.describe(n))
		}
		limit, ok := int64(0), !hasDot(p.lx.view(n))
		if ok {
			limit, ok = parseIntBytes(p.lx.view(n))
		}
		if !ok || limit > int64(int(^uint(0)>>1)) {
			return nil, p.errAt(n, "bad LIMIT %q", p.lx.view(n))
		}
		q.Limit = int(limit)
		if p.acceptSoftKeyword("OFFSET") {
			m := p.next()
			if m.kind != tokNumber || hasDot(p.lx.view(m)) {
				return nil, p.errAt(m, "expected number after OFFSET, got %s", p.describe(m))
			}
			off, ok := parseIntBytes(p.lx.view(m))
			if !ok || off > int64(int(^uint(0)>>1)) {
				return nil, p.errAt(m, "bad OFFSET %q", p.lx.view(m))
			}
			q.Offset = int(off)
		}
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	p.keepAST = true
	return q, nil
}

// acceptSoftKeyword consumes an identifier that ASCII case-folds to word
// (uppercase). Soft keywords stay ordinary identifiers everywhere else in
// the grammar, so adding one can't invalidate existing column names.
func (p *parser) acceptSoftKeyword(word string) bool {
	t := p.peek()
	if t.kind != tokIdent {
		return false
	}
	view := p.lx.view(t)
	if len(view) != len(word) {
		return false
	}
	for i := 0; i < len(word); i++ {
		c := view[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != word[i] {
			return false
		}
	}
	p.pos++
	return true
}
