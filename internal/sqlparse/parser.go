package sqlparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

// Resolver looks up the output schema of a warehouse view by name.
type Resolver func(view string) (relation.Schema, error)

// parseCalls counts front-end invocations (Parse, ParseCreateView,
// ParseQuery). The serve-level plan-cache tests use it to prove a cache
// hit performs zero parser work.
var parseCalls atomic.Uint64

// ParseCalls returns the process-wide number of parser entry-point calls.
func ParseCalls() uint64 { return parseCalls.Load() }

// parserPool recycles parsers — and with them the lexer's source/token
// buffers and the select-item scratch — across parses. The expression
// arena and the ref slice are only recycled after failed parses: a
// successful parse hands their backing arrays to the returned AST, which
// the plan cache or the catalog may retain indefinitely.
var parserPool = sync.Pool{New: func() any { return new(parser) }}

// Parse parses and binds one SELECT statement into an algebra.CQ using the
// resolver for the FROM-clause view schemas.
//
// Supported grammar (the paper's view-definition class):
//
//	SELECT [DISTINCT] item (, item)*
//	FROM view [alias] (, view [alias])*
//	[WHERE conjunctive boolean expression]
//	[GROUP BY expr (, expr)*]
//
// where item is an expression with an optional AS name, or an aggregate
// SUM/AVG/MIN/MAX(expr), COUNT(*).
func Parse(sql string, resolve Resolver) (*algebra.CQ, error) {
	parseCalls.Add(1)
	p, err := newParser(sql, resolve)
	if err != nil {
		return nil, err
	}
	defer p.release()
	cq, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	p.keepAST = true
	return cq, nil
}

// ParseCreateView parses CREATE VIEW name AS SELECT …, returning the view
// name and its definition.
func ParseCreateView(sql string, resolve Resolver) (string, *algebra.CQ, error) {
	parseCalls.Add(1)
	p, err := newParser(sql, resolve)
	if err != nil {
		return "", nil, err
	}
	defer p.release()
	if err := p.expectKeyword(kwCreate); err != nil {
		return "", nil, err
	}
	if err := p.expectKeyword(kwView); err != nil {
		return "", nil, err
	}
	name := p.next()
	if name.kind != tokIdent {
		return "", nil, p.errAt(name, "expected view name, got %s", p.describe(name))
	}
	if err := p.expectKeyword(kwAs); err != nil {
		return "", nil, err
	}
	cq, err := p.parseSelect()
	if err != nil {
		return "", nil, err
	}
	if err := p.finish(); err != nil {
		return "", nil, err
	}
	p.keepAST = true
	return p.text(name), cq, nil
}

// parser owns one parse: the lexer's buffers, a cursor with an expression
// bound (bindRange re-scans select-item token spans in place instead of
// copying them into a sub-parser), the FROM-clause bindings, and the node
// arena. Select items are scanned as raw token spans first and bound once
// the FROM clause has established the reference schemas.
type parser struct {
	lx      lexer
	pos     int
	limit   int // expression sub-parse bound; len(lx.toks) at top level
	resolve Resolver

	refs    []algebra.Ref
	items   []rawItem
	a       arena
	keepAST bool // successful parse: arena and refs escaped into the result
}

func newParser(sql string, resolve Resolver) (*parser, error) {
	p := parserPool.Get().(*parser)
	p.resolve = resolve
	p.pos = 0
	p.keepAST = false
	if err := p.lx.lex(sql); err != nil {
		p.release()
		return nil, err
	}
	p.limit = len(p.lx.toks)
	return p, nil
}

// release returns the parser to the pool, dropping (success) or truncating
// (failure) the buffers that may or may not have escaped into the result.
func (p *parser) release() {
	if p.keepAST {
		p.a = arena{}
		p.refs = nil
	} else {
		p.a.reset()
		p.refs = p.refs[:0]
	}
	p.items = p.items[:0]
	p.resolve = nil
	parserPool.Put(p)
}

// finish consumes an optional trailing semicolon and requires end of input.
func (p *parser) finish() error {
	p.acceptSymbol(symSemi)
	if t := p.peek(); t.kind != tokEOF {
		return p.errAt(t, "trailing input at %s", p.describe(t))
	}
	return nil
}

// peek returns the current token, clamped to an EOF at the expression
// bound so sub-range parses terminate exactly like a top-level parse.
func (p *parser) peek() token {
	if p.pos < p.limit {
		return p.lx.toks[p.pos]
	}
	off := int32(len(p.lx.src))
	if p.limit < len(p.lx.toks) {
		off = p.lx.toks[p.limit].start
	}
	return token{kind: tokEOF, start: off, end: off}
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < p.limit {
		p.pos++
	}
	return t
}

// text materializes a token's source bytes as a string (a copy — the
// pooled source buffer must not escape the parse).
func (p *parser) text(t token) string { return string(p.lx.view(t)) }

// describe renders a token for error messages: canonical spelling for
// keywords and operators, %q-quoted source text otherwise.
func (p *parser) describe(t token) string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokKeyword:
		return fmt.Sprintf("%q", kwNames[t.kw])
	case tokSymbol:
		return fmt.Sprintf("%q", symStr[t.sym])
	default:
		return fmt.Sprintf("%q", p.lx.view(t))
	}
}

// errAt builds an error carrying t's line:column position.
func (p *parser) errAt(t token, format string, args ...any) error {
	return p.lx.errorf(t.start, format, args...)
}

func (p *parser) acceptKeyword(kw kwID) bool {
	if t := p.peek(); t.kind == tokKeyword && t.kw == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw kwID) error {
	if !p.acceptKeyword(kw) {
		t := p.peek()
		return p.errAt(t, "expected %s, got %s", kwNames[kw], p.describe(t))
	}
	return nil
}

func (p *parser) acceptSymbol(sym symID) bool {
	if t := p.peek(); t.kind == tokSymbol && t.sym == sym {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym symID) error {
	if !p.acceptSymbol(sym) {
		t := p.peek()
		return p.errAt(t, "expected %q, got %s", symStr[sym], p.describe(t))
	}
	return nil
}

// rawItem is an unbound select item: token spans into the parser's token
// buffer instead of materialized strings.
type rawItem struct {
	agg        kwID // kwNone for plain expressions; SUM/COUNT/AVG/MIN/MAX
	star       bool // COUNT(*)
	start, end int  // token range of the inner expression
	nameTok    int  // explicit AS name token, or -1
	impliedTok int  // bare column token supplying a fallback name, or -1
}

var aggLower = map[kwID]string{
	kwSum: "sum", kwCount: "count", kwAvg: "avg", kwMin: "min", kwMax: "max",
}

func (p *parser) parseSelect() (*algebra.CQ, error) {
	if err := p.expectKeyword(kwSelect); err != nil {
		return nil, err
	}
	distinct := p.acceptKeyword(kwDistinct)

	// Scan select items as token ranges; bind after FROM is known.
	p.items = p.items[:0]
	for {
		it, err := p.scanItem()
		if err != nil {
			return nil, err
		}
		p.items = append(p.items, it)
		if !p.acceptSymbol(symComma) {
			break
		}
	}
	if err := p.expectKeyword(kwFrom); err != nil {
		return nil, err
	}
	for {
		view := p.next()
		if view.kind != tokIdent {
			return nil, p.errAt(view, "expected view name, got %s", p.describe(view))
		}
		viewName := p.text(view)
		alias := viewName
		if p.peek().kind == tokIdent {
			alias = p.text(p.next())
		}
		schema, err := p.resolve(viewName)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: FROM %s: %w", viewName, err)
		}
		p.refs = append(p.refs, algebra.Ref{Alias: alias, View: viewName, Schema: schema.Clone()})
		if !p.acceptSymbol(symComma) {
			break
		}
	}

	cq := &algebra.CQ{Refs: p.refs}

	if p.acceptKeyword(kwWhere) {
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cq.Filters = algebra.Conjuncts(pred)
	}

	var groupBy []algebra.NamedExpr
	hasGroup := false
	if p.acceptKeyword(kwGroup) {
		if err := p.expectKeyword(kwBy); err != nil {
			return nil, err
		}
		hasGroup = true
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			groupBy = append(groupBy, algebra.NamedExpr{Name: "", E: e})
			if !p.acceptSymbol(symComma) {
				break
			}
		}
	}

	// Bind the select items now that refs are known.
	var selects []algebra.NamedExpr
	var aggs []algebra.AggExpr
	autoName := 0
	nameOf := func(it rawItem, prefix string) string {
		if it.nameTok >= 0 {
			return p.text(p.lx.toks[it.nameTok])
		}
		if it.impliedTok >= 0 {
			return p.text(p.lx.toks[it.impliedTok])
		}
		autoName++
		return fmt.Sprintf("%s%d", prefix, autoName)
	}
	for _, it := range p.items {
		if it.agg != kwNone {
			var input algebra.Expr
			if !it.star {
				e, err := p.bindRange(it.start, it.end)
				if err != nil {
					return nil, err
				}
				input = e
			}
			kind, err := aggKind(it.agg)
			if err != nil {
				return nil, err
			}
			vk := relation.KindInt
			if input != nil {
				vk = input.Kind()
			}
			aggs = append(aggs, algebra.AggExpr{
				Name:  nameOf(it, aggLower[it.agg]),
				Spec:  delta.AggSpec{Kind: kind, ValueKind: vk},
				Input: input,
			})
			continue
		}
		e, err := p.bindRange(it.start, it.end)
		if err != nil {
			return nil, err
		}
		selects = append(selects, algebra.NamedExpr{Name: nameOf(it, "col"), E: e})
	}

	switch {
	case hasGroup:
		if len(selects) > 0 {
			// Non-aggregate select items must match group-by expressions;
			// they become named grouping outputs.
			for _, s := range selects {
				found := false
				for gi, g := range groupBy {
					if g.E.String() == s.E.String() {
						groupBy[gi].Name = s.Name
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("sqlparse: select item %s is neither aggregated nor grouped", s.Name)
				}
			}
		}
		for gi := range groupBy {
			if groupBy[gi].Name == "" {
				groupBy[gi].Name = impliedName(groupBy[gi].E)
			}
		}
		cq.GroupBy = groupBy
		cq.Aggs = aggs
	case len(aggs) > 0:
		if len(selects) > 0 {
			return nil, fmt.Errorf("sqlparse: mixing aggregates and plain columns requires GROUP BY")
		}
		cq.GroupBy = []algebra.NamedExpr{} // global aggregate
		cq.Aggs = aggs
	default:
		cq.Select = selects
		if distinct {
			cq.GroupBy = cq.Select
			cq.Select = nil
		}
	}
	if distinct && (hasGroup || len(aggs) > 0) {
		return nil, fmt.Errorf("sqlparse: DISTINCT with GROUP BY or aggregates is not supported")
	}
	if err := cq.Validate(); err != nil {
		return nil, err
	}
	return cq, nil
}

func impliedName(e algebra.Expr) string {
	if c, ok := e.(*algebra.Col); ok {
		if i := strings.LastIndexByte(c.Name, '.'); i >= 0 {
			return c.Name[i+1:]
		}
		return c.Name
	}
	return strings.ReplaceAll(e.String(), " ", "")
}

func aggKind(kw kwID) (delta.AggKind, error) {
	switch kw {
	case kwSum:
		return delta.AggSum, nil
	case kwCount:
		return delta.AggCount, nil
	case kwAvg:
		return delta.AggAvg, nil
	case kwMin:
		return delta.AggMin, nil
	case kwMax:
		return delta.AggMax, nil
	default:
		return 0, fmt.Errorf("sqlparse: unknown aggregate %q", kwNames[kw])
	}
}

// scanItem records one select item's token span without binding it.
func (p *parser) scanItem() (rawItem, error) {
	it := rawItem{nameTok: -1, impliedTok: -1}
	t := p.peek()
	if t.kind == tokKeyword {
		switch t.kw {
		case kwSum, kwCount, kwAvg, kwMin, kwMax:
			it.agg = t.kw
			p.next()
			if err := p.expectSymbol(symLParen); err != nil {
				return it, err
			}
			if p.acceptSymbol(symStar) {
				if it.agg != kwCount {
					return it, fmt.Errorf("sqlparse: %s(*) is not supported", kwNames[it.agg])
				}
				it.star = true
			} else {
				it.start = p.pos
				depth := 0
				for {
					tok := p.peek()
					if tok.kind == tokEOF {
						return it, fmt.Errorf("sqlparse: unterminated aggregate")
					}
					if tok.kind == tokSymbol {
						if tok.sym == symLParen {
							depth++
						}
						if tok.sym == symRParen {
							if depth == 0 {
								break
							}
							depth--
						}
					}
					p.next()
				}
				it.end = p.pos
			}
			if err := p.expectSymbol(symRParen); err != nil {
				return it, err
			}
		}
	}
	if it.agg == kwNone {
		it.start = p.pos
		depth := 0
	scan:
		for {
			tok := p.peek()
			switch {
			case tok.kind == tokEOF:
				break scan
			case tok.kind == tokKeyword && (tok.kw == kwFrom || tok.kw == kwAs) && depth == 0:
				break scan
			case tok.kind == tokSymbol && tok.sym == symComma && depth == 0:
				break scan
			case tok.kind == tokSymbol && tok.sym == symLParen:
				depth++
			case tok.kind == tokSymbol && tok.sym == symRParen:
				depth--
			}
			p.next()
		}
		it.end = p.pos
		if it.end == it.start {
			return it, p.errAt(p.peek(), "empty select item at %s", p.describe(p.peek()))
		}
		// A bare (possibly qualified) column gives the implied output name.
		span := p.lx.toks[it.start:it.end]
		if len(span) == 1 && span[0].kind == tokIdent {
			it.impliedTok = it.start
		}
		if len(span) == 3 && span[0].kind == tokIdent &&
			span[1].kind == tokSymbol && span[1].sym == symDot && span[2].kind == tokIdent {
			it.impliedTok = it.start + 2
		}
	}
	if p.acceptKeyword(kwAs) {
		name := p.next()
		if name.kind != tokIdent {
			return it, p.errAt(name, "expected output name after AS, got %s", p.describe(name))
		}
		it.nameTok = p.pos - 1
	}
	return it, nil
}

// bindRange parses the token subrange [start, end) as an expression by
// re-aiming the cursor at it — no token copying, no sub-parser.
func (p *parser) bindRange(start, end int) (algebra.Expr, error) {
	savedPos, savedLimit := p.pos, p.limit
	p.pos, p.limit = start, end
	e, err := p.parseExpr()
	if err == nil && p.pos < p.limit {
		t := p.peek()
		err = p.errAt(t, "trailing tokens in expression at %s", p.describe(t))
	}
	p.pos, p.limit = savedPos, savedLimit
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Expression grammar, lowest binding power first. Comparisons (and
// BETWEEN) are non-associative; everything else is left-associative.
const (
	precOr = iota + 1
	precAnd
	precNot
	precCmp
	precAdd
	precMul
)

// binOpOf classifies t as an infix operator: its precedence (0 = not an
// operator), the algebra op, and whether it is BETWEEN (which consumes a
// lo AND hi pair instead of a single right operand).
func binOpOf(t token) (prec int, op algebra.BinOp, between bool) {
	switch t.kind {
	case tokKeyword:
		switch t.kw {
		case kwOr:
			return precOr, algebra.OpOr, false
		case kwAnd:
			return precAnd, algebra.OpAnd, false
		case kwBetween:
			return precCmp, 0, true
		}
	case tokSymbol:
		switch t.sym {
		case symEq:
			return precCmp, algebra.OpEq, false
		case symNe:
			return precCmp, algebra.OpNe, false
		case symLt:
			return precCmp, algebra.OpLt, false
		case symLe:
			return precCmp, algebra.OpLe, false
		case symGt:
			return precCmp, algebra.OpGt, false
		case symGe:
			return precCmp, algebra.OpGe, false
		case symPlus:
			return precAdd, algebra.OpAdd, false
		case symMinus:
			return precAdd, algebra.OpSub, false
		case symStar:
			return precMul, algebra.OpMul, false
		case symSlash:
			return precMul, algebra.OpDiv, false
		}
	}
	return 0, 0, false
}

func (p *parser) parseExpr() (algebra.Expr, error) { return p.parseExprPrec(precOr) }

// parseExprPrec is the Pratt loop: parse a prefix (NOT or a primary), then
// fold in infix operators whose precedence is at least min, each right
// operand parsed one level tighter.
func (p *parser) parseExprPrec(min int) (algebra.Expr, error) {
	var left algebra.Expr
	var err error
	sawCmp := false
	if t := p.peek(); t.kind == tokKeyword && t.kw == kwNot && min <= precNot {
		p.pos++
		operand, err := p.parseExprPrec(precNot)
		if err != nil {
			return nil, err
		}
		left = p.a.not(operand)
		// NOT binds looser than a comparison, so NOT x is no comparison's
		// operand: a comparison after it chains onto the one its operand
		// took, and is trailing input as it would be without the NOT.
		sawCmp = true
	} else {
		left, err = p.parsePrimary()
		if err != nil {
			return nil, err
		}
	}
	for {
		t := p.peek()
		prec, op, between := binOpOf(t)
		if prec == 0 || prec < min {
			return left, nil
		}
		if prec == precCmp {
			if sawCmp {
				// Comparisons don't chain: leave the operator for the
				// caller, which reports it as trailing input.
				return left, nil
			}
			sawCmp = true
		}
		p.pos++
		if between {
			lo, err := p.parseExprPrec(precAdd)
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword(kwAnd); err != nil {
				return nil, err
			}
			hi, err := p.parseExprPrec(precAdd)
			if err != nil {
				return nil, err
			}
			left = p.a.binary(algebra.OpAnd,
				p.a.binary(algebra.OpGe, left, lo),
				p.a.binary(algebra.OpLe, left, hi))
			continue
		}
		right, err := p.parseExprPrec(prec + 1)
		if err != nil {
			return nil, err
		}
		left = p.a.binary(op, left, right)
	}
}

// parseIntBytes parses a base-10 integer from raw digits, reporting
// overflow. The token is all digits by construction.
func parseIntBytes(b []byte) (int64, bool) {
	var v int64
	for _, c := range b {
		d := int64(c - '0')
		if v > (math.MaxInt64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func hasDot(b []byte) bool {
	for _, c := range b {
		if c == '.' {
			return true
		}
	}
	return false
}

func (p *parser) parsePrimary() (algebra.Expr, error) {
	t := p.next()
	switch {
	case t.kind == tokSymbol && t.sym == symLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(symRParen); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokNumber:
		view := p.lx.view(t)
		if hasDot(view) {
			f, err := strconv.ParseFloat(string(view), 64)
			if err != nil {
				return nil, p.errAt(t, "bad number %q: %v", view, err)
			}
			return p.a.constant(relation.NewFloat(f)), nil
		}
		i, ok := parseIntBytes(view)
		if !ok {
			return nil, p.errAt(t, "bad number %q: integer overflow", view)
		}
		return p.a.constant(relation.NewInt(i)), nil
	case t.kind == tokString:
		return p.a.constant(relation.NewString(p.lx.unquote(t))), nil
	case t.kind == tokKeyword && t.kw == kwDate:
		lit := p.next()
		if lit.kind != tokString {
			return nil, p.errAt(lit, "expected date string after DATE, got %s", p.describe(lit))
		}
		v, err := relation.DateFromString(p.lx.unquote(lit))
		if err != nil {
			return nil, err
		}
		return p.a.constant(v), nil
	case t.kind == tokSymbol && t.sym == symMinus:
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return p.a.binary(algebra.OpSub, p.a.constant(relation.NewInt(0)), e), nil
	case t.kind == tokIdent:
		if p.acceptSymbol(symDot) {
			col := p.next()
			if col.kind != tokIdent {
				return nil, p.errAt(col, "expected column after %q., got %s", p.lx.view(t), p.describe(col))
			}
			return p.bindQualified(t, col)
		}
		return p.bindUnqualified(t)
	default:
		return nil, p.errAt(t, "unexpected token %s", p.describe(t))
	}
}

// qualifiedIndex returns the index in the flattened join schema of the
// first column matching alias.col across the FROM references, plus its
// kind; -1 if absent. Structural comparison against (Ref.Alias, column
// name) is exactly string equality on the old qualified names, since
// aliases and query-side column references never contain dots.
func (p *parser) qualifiedIndex(alias, col []byte) (int, relation.Kind) {
	off := 0
	for _, r := range p.refs {
		if string(alias) == r.Alias { // comparison only; no allocation
			for ci := range r.Schema {
				if string(col) == r.Schema[ci].Name {
					return off + ci, r.Schema[ci].Kind
				}
			}
		}
		off += len(r.Schema)
	}
	return -1, 0
}

// bindQualified resolves a qualified alias.column reference.
func (p *parser) bindQualified(aliasTok, colTok token) (algebra.Expr, error) {
	alias, col := p.lx.view(aliasTok), p.lx.view(colTok)
	idx, kind := p.qualifiedIndex(alias, col)
	if idx < 0 {
		return nil, fmt.Errorf("sqlparse: unknown column %q", string(alias)+"."+string(col))
	}
	return p.a.col(idx, string(alias)+"."+string(col), kind), nil
}

// bindUnqualified resolves a bare column name, requiring it to be
// unambiguous across the FROM-clause references.
func (p *parser) bindUnqualified(nameTok token) (algebra.Expr, error) {
	name := p.lx.view(nameTok)
	matched := false
	var matchAlias string
	for _, r := range p.refs {
		has := false
		for ci := range r.Schema {
			if string(name) == r.Schema[ci].Name { // comparison only; no allocation
				has = true
				break
			}
		}
		if has {
			if matched {
				return nil, fmt.Errorf("sqlparse: column %q is ambiguous (%s.%s and %s.%s)",
					name, matchAlias, name, r.Alias, name)
			}
			matched = true
			matchAlias = r.Alias
		}
	}
	if !matched {
		return nil, fmt.Errorf("sqlparse: unknown column %q", name)
	}
	idx, kind := p.qualifiedIndex([]byte(matchAlias), name)
	return p.a.col(idx, matchAlias+"."+string(name), kind), nil
}
