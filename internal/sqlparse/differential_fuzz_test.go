package sqlparse

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/sqlparse/legacy"
)

// FuzzParseDifferential drives the rewritten front end and the frozen
// pre-rewrite parser (internal/sqlparse/legacy) over the same inputs: the
// two must accept/reject identically and, on the accepted set, bind to the
// same algebra.CQ (same String form, same output schema) and the same
// presentation clauses. The only tolerated divergence is the rewrite's
// deliberate extensions — ORDER BY ordinals and LIMIT n OFFSET m in queries,
// and a keyword that names a view in the FROM list (TPC-D's ORDER) in every
// entry point — which the new parser may accept where the old one rejected,
// and nothing else.
func FuzzParseDifferential(f *testing.F) {
	seeds := []string{
		"SELECT a FROM R",
		"SELECT a, b FROM R WHERE a = 1 AND b <> 2",
		"SELECT r.a AS x, SUM(s.c) AS t FROM R r, S s WHERE r.b = s.b GROUP BY r.a",
		"SELECT DISTINCT a FROM R",
		"SELECT COUNT(*) FROM R",
		"SELECT a FROM R WHERE a BETWEEN 1 AND 2 OR NOT b = 3",
		"SELECT a FROM R WHERE NOT NOT a = 1 AND NOT b BETWEEN 1 AND 5",
		// NOT's operand is the whole comparison, so a comparison after it
		// chains and both parsers reject it (a finding of this fuzzer).
		"SELECT a FROM R WHERE NOT a = 1 BETWEEN 0 AND 2",
		"SELECT 00FROM A WHERE NOT NOT 00=00BETWEEN 00AND 0",
		"SELECT a FROM R WHERE NOT a = 1 = 2",
		"SELECT a FROM R WHERE d < DATE '1995-03-15'",
		"SELECT (a + 2) * 3.5 - -1 FROM R",
		"SELECT a + b * 2 - a / 3 AS v FROM R WHERE a = 1 OR b = 2 AND a < 3",
		"SELECT a FROM R WHERE name = 'it''s'",
		"SELECT a FROM R WHERE a = 1 = 2",
		"CREATE VIEW V AS SELECT a FROM R;",
		"SELECT a FROM R ORDER BY a DESC LIMIT 3",
		"SELECT a, b FROM R ORDER BY 2 DESC, 1 LIMIT 5",
		"SELECT a FROM R LIMIT 10 OFFSET 4",
		"SELECT a AS offset FROM R",
		"SELECT offset FROM R",
		"SELECT a FROM R ORDER BY 0",
		"SELECT a FROM ORDER o",
		"SELECT o.a FROM R r, ORDER o WHERE o.a = r.a",
		"SELECT a FROM R ORDER BY 1.5",
		"SELECT",
		"SELECT FROM",
		"'",
		"select a from r where a between 1 and 2",
		"SELECT _x, a1 FROM R",
		"((((((",
		"\x00\xff",
		"SELECT \xc2\xaa FROM R",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// Every view name resolves to R's schema so binding paths execute too.
	resolveAny := func(string) (relation.Schema, error) { return testSchemas["R"], nil }

	cqEqual := func(a, b *algebra.CQ) bool {
		return a.String() == b.String() &&
			a.OutputSchema().String() == b.OutputSchema().String()
	}

	f.Fuzz(func(t *testing.T, sql string) {
		// Parse (view definitions): strict equivalence but for the FROM
		// list's keyword view names.
		fromKeyword := usesFromKeyword(sql)
		nc, nerr := Parse(sql, resolveAny)
		oc, oerr := legacy.Parse(sql, resolveAny)
		switch {
		case nerr == nil && oerr != nil && fromKeyword:
		case (nerr == nil) != (oerr == nil):
			t.Fatalf("Parse accept/reject diverged on %q: new err=%v, legacy err=%v", sql, nerr, oerr)
		case nerr == nil && !cqEqual(nc, oc):
			t.Fatalf("Parse bound CQs diverged on %q:\nnew    %s :: %s\nlegacy %s :: %s",
				sql, nc, nc.OutputSchema(), oc, oc.OutputSchema())
		}

		// ParseCreateView: the same.
		nname, ncv, nerr2 := ParseCreateView(sql, resolveAny)
		oname, ocv, oerr2 := legacy.ParseCreateView(sql, resolveAny)
		switch {
		case nerr2 == nil && oerr2 != nil && fromKeyword:
		case (nerr2 == nil) != (oerr2 == nil):
			t.Fatalf("ParseCreateView accept/reject diverged on %q: new err=%v, legacy err=%v", sql, nerr2, oerr2)
		case nerr2 == nil && (nname != oname || !cqEqual(ncv, ocv)):
			t.Fatalf("ParseCreateView diverged on %q: new (%s, %s), legacy (%s, %s)", sql, nname, ncv, oname, ocv)
		}

		// ParseQuery: the new parser may accept extension syntax the old
		// one rejects; any other divergence is a bug.
		nq, nqerr := ParseQuery(sql, resolveAny)
		oq, oqerr := legacy.ParseQuery(sql, resolveAny)
		switch {
		case nqerr != nil && oqerr == nil:
			t.Fatalf("ParseQuery rejects %q which legacy accepts: %v", sql, nqerr)
		case nqerr == nil && oqerr != nil:
			if !usesQueryExtensions(sql) && !fromKeyword {
				t.Fatalf("ParseQuery accepts %q which legacy rejects (%v) without extension syntax", sql, oqerr)
			}
		case nqerr == nil:
			if !cqEqual(nq.CQ, oq.CQ) || nq.Limit != oq.Limit || len(nq.OrderBy) != len(oq.OrderBy) {
				t.Fatalf("ParseQuery diverged on %q", sql)
			}
			for i := range nq.OrderBy {
				if nq.OrderBy[i].Column != oq.OrderBy[i].Column || nq.OrderBy[i].Desc != oq.OrderBy[i].Desc {
					t.Fatalf("ParseQuery ORDER BY key %d diverged on %q", i, sql)
				}
			}
			if nq.Offset != 0 {
				t.Fatalf("ParseQuery produced OFFSET %d on %q which legacy accepted", nq.Offset, sql)
			}
		}
	})
}

// usesQueryExtensions reports whether sql contains syntax only the
// rewritten ParseQuery understands: a numeric ORDER BY key (ordinal) or
// LIMIT n followed by the soft keyword OFFSET. Both constructs can only be
// reached through the query-level clause positions, so matching the token
// shapes anywhere in the stream cannot excuse an unrelated divergence.
func usesQueryExtensions(sql string) bool {
	var lx lexer
	if lx.lex(sql) != nil {
		return false
	}
	toks := lx.toks
	foldEq := func(b []byte, up string) bool {
		if len(b) != len(up) {
			return false
		}
		for i := 0; i < len(up); i++ {
			c := b[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != up[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind == tokKeyword && t.kw == kwLimit && i+2 < len(toks) &&
			toks[i+1].kind == tokNumber &&
			toks[i+2].kind == tokIdent && foldEq(lx.view(toks[i+2]), "OFFSET") {
			return true
		}
		if t.kind == tokKeyword && t.kw == kwOrder && i+1 < len(toks) &&
			toks[i+1].kind == tokKeyword && toks[i+1].kw == kwBy {
			// Walk the key list: ident [ASC|DESC] (, ...)* — a number in
			// key position is the ordinal extension.
			for j := i + 2; j < len(toks); {
				if toks[j].kind == tokNumber {
					return true
				}
				if toks[j].kind != tokIdent {
					break
				}
				j++
				if j < len(toks) && toks[j].kind == tokKeyword &&
					(toks[j].kw == kwAsc || toks[j].kw == kwDesc) {
					j++
				}
				if j < len(toks) && toks[j].kind == tokSymbol && toks[j].sym == symComma {
					j++
					continue
				}
				break
			}
		}
	}
	return false
}

// usesFromKeyword reports whether sql has a keyword where the FROM list
// names a view: right after FROM, or after a comma of the list that follows
// it (view [alias] (, view [alias])*).
func usesFromKeyword(sql string) bool {
	var lx lexer
	if lx.lex(sql) != nil {
		return false
	}
	toks := lx.toks
	for i, t := range toks {
		if t.kind != tokKeyword || t.kw != kwFrom {
			continue
		}
		for j := i + 1; j < len(toks); {
			if toks[j].kind == tokKeyword {
				return true
			}
			if toks[j].kind != tokIdent {
				break
			}
			j++
			if j < len(toks) && toks[j].kind == tokIdent {
				j++
			}
			if j < len(toks) && toks[j].kind == tokSymbol && toks[j].sym == symComma {
				j++
				continue
			}
			break
		}
	}
	return false
}
