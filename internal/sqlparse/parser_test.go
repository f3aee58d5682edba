package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

var testSchemas = map[string]relation.Schema{
	"R": {{Name: "a", Kind: relation.KindInt}, {Name: "b", Kind: relation.KindInt}, {Name: "d", Kind: relation.KindDate}},
	"S": {{Name: "b", Kind: relation.KindInt}, {Name: "c", Kind: relation.KindFloat}, {Name: "name", Kind: relation.KindString}},
}

func resolve(view string) (relation.Schema, error) {
	s, ok := testSchemas[view]
	if !ok {
		return nil, fmt.Errorf("unknown view %q", view)
	}
	return s, nil
}

func TestParseSimpleSelect(t *testing.T) {
	cq, err := Parse("SELECT a, b FROM R", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if cq.IsAggregate() || len(cq.Select) != 2 {
		t.Fatalf("cq = %s", cq)
	}
	if cq.OutputSchema().String() != "a INTEGER, b INTEGER" {
		t.Errorf("output = %s", cq.OutputSchema())
	}
}

func TestParseJoinWhere(t *testing.T) {
	cq, err := Parse(`
		SELECT r.a AS key, s.c
		FROM R r, S s
		WHERE r.b = s.b AND s.c > 1.5 AND s.name = 'hello'`, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(cq.Refs) != 2 || len(cq.Filters) != 3 {
		t.Fatalf("cq = %s", cq)
	}
	if cq.OutputSchema().String() != "key INTEGER, c FLOAT" {
		t.Errorf("output = %s", cq.OutputSchema())
	}
}

func TestParseGroupByAggregates(t *testing.T) {
	cq, err := Parse(`
		SELECT name, SUM(c) AS total, COUNT(*) AS n, AVG(c), MIN(b), MAX(b)
		FROM S GROUP BY name`, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.IsAggregate() || len(cq.GroupBy) != 1 || len(cq.Aggs) != 5 {
		t.Fatalf("cq = %s", cq)
	}
	if cq.GroupBy[0].Name != "name" {
		t.Errorf("group name = %q", cq.GroupBy[0].Name)
	}
	wantKinds := []delta.AggKind{delta.AggSum, delta.AggCount, delta.AggAvg, delta.AggMin, delta.AggMax}
	for i, w := range wantKinds {
		if cq.Aggs[i].Spec.Kind != w {
			t.Errorf("agg %d = %v, want %v", i, cq.Aggs[i].Spec.Kind, w)
		}
	}
	// Auto names for unnamed aggregates.
	if cq.Aggs[2].Name == "" {
		t.Errorf("AVG got no name")
	}
}

func TestParseQ3Shape(t *testing.T) {
	// The TPC-D Q3 pattern: dates, arithmetic, multi-way join, group-by.
	cq, err := Parse(`
		SELECT r.a, r.d, SUM(s.c * (1 - 0.05)) AS revenue
		FROM R r, S s
		WHERE r.b = s.b AND r.d < DATE '1995-03-15' AND r.d > DATE '1990-01-01'
		GROUP BY r.a, r.d`, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(cq.GroupBy) != 2 || len(cq.Aggs) != 1 {
		t.Fatalf("cq = %s", cq)
	}
	if cq.Aggs[0].Spec.ValueKind != relation.KindFloat {
		t.Errorf("revenue kind = %v", cq.Aggs[0].Spec.ValueKind)
	}
}

func TestParseDistinct(t *testing.T) {
	cq, err := Parse("SELECT DISTINCT a FROM R", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.IsAggregate() || len(cq.GroupBy) != 1 || len(cq.Aggs) != 0 {
		t.Fatalf("DISTINCT should lower to zero-agg grouping: %s", cq)
	}
}

func TestParseGlobalAggregate(t *testing.T) {
	cq, err := Parse("SELECT SUM(c) FROM S", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !cq.IsAggregate() || len(cq.GroupBy) != 0 {
		t.Fatalf("global aggregate: %s", cq)
	}
}

func TestParseBetweenAndNot(t *testing.T) {
	cq, err := Parse("SELECT a FROM R WHERE a BETWEEN 1 AND 10 AND NOT b = 5", resolve)
	if err != nil {
		t.Fatal(err)
	}
	// BETWEEN lowers to two conjuncts... as one AND pair plus NOT conjunct.
	if len(cq.Filters) != 3 {
		t.Errorf("filters = %v", cq.Filters)
	}
}

// TestParseNotTakesTheComparison: NOT binds looser than a comparison, so its
// operand is the whole comparison and a second one after it chains — an
// error, with or without the NOT — while NOT over one BETWEEN still parses.
func TestParseNotTakesTheComparison(t *testing.T) {
	for _, sql := range []string{
		"SELECT a FROM R WHERE a = 1 BETWEEN 0 AND 2",
		"SELECT a FROM R WHERE NOT a = 1 BETWEEN 0 AND 2",
		"SELECT a FROM R WHERE NOT NOT a = 1 BETWEEN 0 AND 2",
		"SELECT a FROM R WHERE NOT a = 1 = 2",
	} {
		if _, err := Parse(sql, resolve); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%q: err = %v, want trailing input", sql, err)
		}
	}
	cq, err := Parse("SELECT a FROM R WHERE NOT a BETWEEN 0 AND 2", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(cq.Filters) != 1 || !strings.HasPrefix(cq.Filters[0].String(), "NOT ") {
		t.Errorf("NOT over BETWEEN: filters %v", cq.Filters)
	}
}

func TestParseOrPrecedence(t *testing.T) {
	cq, err := Parse("SELECT a FROM R WHERE a = 1 OR a = 2 AND b = 3", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(cq.Filters) != 1 {
		t.Fatalf("OR must stay one conjunct: %v", cq.Filters)
	}
	if !strings.Contains(cq.Filters[0].String(), "OR") {
		t.Errorf("filter = %s", cq.Filters[0])
	}
}

func TestParseArithmeticAndNegation(t *testing.T) {
	cq, err := Parse("SELECT (a + 2) * b - -3 AS x FROM R", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if cq.Select[0].Name != "x" {
		t.Errorf("name = %q", cq.Select[0].Name)
	}
	got := cq.Select[0].E.Eval(relation.Tuple{relation.NewInt(1), relation.NewInt(4), relation.Null})
	if got.Int() != 15 { // (1+2)*4 - (-3)
		t.Errorf("eval = %v, want 15", got)
	}
}

func TestParseUnqualifiedAmbiguous(t *testing.T) {
	// b exists in both R and S.
	if _, err := Parse("SELECT b FROM R r, S s WHERE r.b = s.b", resolve); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column accepted: %v", err)
	}
}

func TestParseCreateView(t *testing.T) {
	name, cq, err := ParseCreateView("CREATE VIEW V AS SELECT a FROM R;", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if name != "V" || len(cq.Select) != 1 {
		t.Errorf("name=%q cq=%s", name, cq)
	}
	if _, _, err := ParseCreateView("CREATE TABLE V AS SELECT a FROM R", resolve); err == nil {
		t.Errorf("CREATE TABLE accepted")
	}
	if _, _, err := ParseCreateView("CREATE VIEW AS SELECT a FROM R", resolve); err == nil {
		t.Errorf("missing view name accepted")
	}
}

func TestParseStringEscapes(t *testing.T) {
	cq, err := Parse("SELECT a FROM R WHERE 'it''s' = 'x'", resolve)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cq.Filters[0].String(), "it's") {
		t.Errorf("filter = %s", cq.Filters[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                     // no SELECT
		"SELECT",                               // empty item
		"SELECT a",                             // no FROM
		"SELECT a FROM",                        // no view
		"SELECT a FROM Z",                      // unknown view
		"SELECT zzz FROM R",                    // unknown column
		"SELECT r.zzz FROM R r",                // unknown qualified column
		"SELECT a FROM R WHERE",                // empty predicate
		"SELECT a FROM R GROUP BY",             // empty group list
		"SELECT a, SUM(b) FROM R",              // mixed without GROUP BY
		"SELECT a FROM R extra garbage here()", // trailing input
		"SELECT SUM(*) FROM R",                 // SUM(*)
		"SELECT a FROM R WHERE 'unterminated",  // lexer error
		"SELECT a FROM R WHERE a @ 1",          // bad character
		"SELECT a FROM R WHERE DATE 5",         // DATE needs string
		"SELECT a FROM R WHERE DATE 'nope'",    // bad date
		"SELECT a, b FROM R GROUP BY a",        // b not grouped
		"SELECT a AS x, b AS x FROM R",         // duplicate names
		"SELECT DISTINCT SUM(a) FROM R",        // DISTINCT + aggregate
		"SELECT DISTINCT a FROM R GROUP BY a",  // DISTINCT + GROUP BY
		"SELECT 99999999999999999999 FROM R",   // int overflow
	}
	for _, sql := range bad {
		if _, err := Parse(sql, resolve); err == nil {
			t.Errorf("accepted %q", sql)
		}
	}
}

func TestParseNotEqualVariants(t *testing.T) {
	for _, op := range []string{"<>", "!="} {
		cq, err := Parse("SELECT a FROM R WHERE a "+op+" 3", resolve)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !strings.Contains(cq.Filters[0].String(), "<>") {
			t.Errorf("%s parsed to %s", op, cq.Filters[0])
		}
	}
}

func TestParseComparisonOperators(t *testing.T) {
	row := relation.Tuple{relation.NewInt(5), relation.NewInt(2), relation.Null}
	cases := map[string]bool{
		"a = 5": true, "a <> 5": false, "a < 6": true,
		"a <= 5": true, "a > 5": false, "a >= 5": true,
	}
	for pred, want := range cases {
		cq, err := Parse("SELECT a FROM R WHERE "+pred, resolve)
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		got := cq.Filters[0].Eval(row).Bool()
		if got != want {
			t.Errorf("%s = %v, want %v", pred, got, want)
		}
	}
}

// TestParseKeywordViewName: in the FROM list a keyword names a view when one
// resolves — TPC-D's ORDER — and is refused as before when none does.
func TestParseKeywordViewName(t *testing.T) {
	withOrder := func(view string) (relation.Schema, error) {
		if view == "ORDER" {
			return testSchemas["R"], nil
		}
		return resolve(view)
	}
	cq, err := Parse("SELECT o.a, s.c FROM S s, ORDER o WHERE o.b = s.b", withOrder)
	if err != nil {
		t.Fatal(err)
	}
	if len(cq.Refs) != 2 || cq.Refs[1].View != "ORDER" || cq.Refs[1].Alias != "o" {
		t.Fatalf("refs = %+v", cq.Refs)
	}
	if _, err := Parse("SELECT a FROM ORDER", withOrder); err != nil {
		t.Fatalf("unaliased keyword view: %v", err)
	}
	for _, sql := range []string{"SELECT a FROM WHERE", "SELECT a FROM R, WHERE", "SELECT a FROM order o"} {
		if _, err := Parse(sql, withOrder); err == nil || !strings.Contains(err.Error(), "expected view name") {
			t.Errorf("Parse(%q) = %v, want an expected view name error", sql, err)
		}
	}
}
