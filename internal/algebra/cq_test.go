package algebra_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/sqlparse"
)

// parse binds sql over R(a, b) and S(b, c), the schemas algebra_test.go's
// expression tests use.
func parse(t *testing.T, sql string) *algebra.CQ {
	t.Helper()
	schemas := map[string]relation.Schema{
		"R": {{Name: "a", Kind: relation.KindInt}, {Name: "b", Kind: relation.KindInt}},
		"S": {{Name: "b", Kind: relation.KindInt}, {Name: "c", Kind: relation.KindFloat}},
	}
	cq, err := sqlparse.Parse(sql, func(v string) (relation.Schema, error) { return schemas[v], nil })
	if err != nil {
		t.Fatal(err)
	}
	return cq
}

func TestCQStructure(t *testing.T) {
	cq := parse(t, "SELECT r.a, s.c * 2.0 AS twice FROM R r, S s WHERE r.b = s.b AND s.c > 0.0")
	if cq.IsAggregate() {
		t.Errorf("SPJ view misclassified")
	}
	js := cq.JoinedSchema()
	if len(js) != 4 || js[0].Name != "r.a" || js[2].Name != "s.b" {
		t.Errorf("joined schema = %v", js)
	}
	if cq.RefOffset(0) != 0 || cq.RefOffset(1) != 2 {
		t.Errorf("offsets wrong")
	}
	if cq.RefOfColumn(1) != 0 || cq.RefOfColumn(3) != 1 {
		t.Errorf("RefOfColumn wrong")
	}
	out := cq.OutputSchema()
	if out.String() != "a INTEGER, twice FLOAT" {
		t.Errorf("output schema = %s", out)
	}
	if got := cq.BaseViews(); len(got) != 2 || got[0] != "R" {
		t.Errorf("BaseViews = %v", got)
	}
	if got := cq.RefsOfView("S"); len(got) != 1 || got[0] != 1 {
		t.Errorf("RefsOfView = %v", got)
	}
	if mask := cq.RefsOfExpr(cq.Filters[0]); mask != 0b11 {
		t.Errorf("join filter mask = %b", mask)
	}
	if !strings.Contains(cq.String(), "FROM R r, S s") {
		t.Errorf("String = %q", cq.String())
	}
}

func TestCQAggregate(t *testing.T) {
	cq := parse(t, "SELECT r.a, COUNT(*) AS n, SUM(r.b) AS total FROM R r GROUP BY r.a")
	if !cq.IsAggregate() {
		t.Errorf("aggregate view misclassified")
	}
	if cq.GroupSchema().String() != "a INTEGER" {
		t.Errorf("group schema = %s", cq.GroupSchema())
	}
	specs := cq.AggSpecs()
	if len(specs) != 2 || specs[0].Kind != delta.AggCount || specs[1].Kind != delta.AggSum {
		t.Errorf("specs = %v", specs)
	}
	if cq.OutputSchema().String() != "a INTEGER, n INTEGER, total INTEGER" {
		t.Errorf("output = %s", cq.OutputSchema())
	}
	if !strings.Contains(cq.String(), "GROUP BY") || !strings.Contains(cq.String(), "COUNT(*)") {
		t.Errorf("String = %q", cq.String())
	}
}

func TestGlobalAggregate(t *testing.T) {
	cq := parse(t, "SELECT SUM(r.b) AS total FROM R r")
	if !cq.IsAggregate() || len(cq.GroupBy) != 0 {
		t.Errorf("global aggregate should have empty non-nil GroupBy")
	}
}

func TestDistinct(t *testing.T) {
	cq := parse(t, "SELECT DISTINCT r.a FROM R r")
	if !cq.IsAggregate() || len(cq.GroupBy) != 1 || len(cq.Aggs) != 0 {
		t.Errorf("DISTINCT should become zero-agg grouping")
	}
}
