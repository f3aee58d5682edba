package maintain

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/relation"
)

var schemaA = relation.Schema{{Name: "x", Kind: relation.KindInt}}

func joinCQ(t *testing.T, views ...string) *algebra.CQ {
	t.Helper()
	cq := &algebra.CQ{Select: []algebra.NamedExpr{{Name: "x", E: &algebra.Col{Name: "a.x", Typ: relation.KindInt}}}}
	for i, v := range views {
		cq.Refs = append(cq.Refs, algebra.Ref{Alias: string(rune('a' + i)), View: v, Schema: schemaA})
	}
	return cq
}

func TestTermsSingle(t *testing.T) {
	cq := joinCQ(t, "A", "B")
	terms, err := Terms(cq, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 1 || len(terms[0].DeltaRefs) != 1 || terms[0].DeltaRefs[0] != 0 {
		t.Errorf("terms = %v", terms)
	}
	if terms[0].String() != "{δ0}" {
		t.Errorf("String = %q", terms[0].String())
	}
}

func TestTermsPair(t *testing.T) {
	cq := joinCQ(t, "A", "B", "C")
	terms, err := Terms(cq, []string{"A", "C"})
	if err != nil {
		t.Fatal(err)
	}
	// 2² − 1 = 3 terms over refs {0, 2}, ordered by popcount then subset.
	if len(terms) != 3 {
		t.Fatalf("terms = %v", terms)
	}
	want := []string{"{δ0}", "{δ2}", "{δ0, δ2}"}
	for i, w := range want {
		if terms[i].String() != w {
			t.Errorf("terms[%d] = %s, want %s", i, terms[i], w)
		}
	}
}

func TestTermsSelfJoin(t *testing.T) {
	// A referenced twice: Comp(V, {A}) expands both refs.
	cq := joinCQ(t, "A", "A", "B")
	terms, err := Terms(cq, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 3 {
		t.Fatalf("self-join terms = %v", terms)
	}
	n, err := TermCount(cq, []string{"A"})
	if err != nil || n != 3 {
		t.Errorf("TermCount = %d, %v", n, err)
	}
	n, err = TermCount(cq, []string{"A", "B"})
	if err != nil || n != 7 {
		t.Errorf("TermCount(A,B) = %d, %v", n, err)
	}
}

func TestTermsErrors(t *testing.T) {
	cq := joinCQ(t, "A", "B")
	if _, err := Terms(cq, nil); err == nil {
		t.Errorf("empty over accepted")
	}
	if _, err := Terms(cq, []string{"Z"}); err == nil {
		t.Errorf("unknown view accepted")
	}
	if _, err := Terms(cq, []string{"A", "A"}); err == nil {
		t.Errorf("duplicate view accepted")
	}
	if _, err := TermCount(cq, nil); err == nil {
		t.Errorf("TermCount empty over accepted")
	}
	if _, err := TermCount(cq, []string{"Z"}); err == nil {
		t.Errorf("TermCount unknown view accepted")
	}
	if _, err := TermCount(cq, []string{"A", "A"}); err == nil {
		t.Errorf("TermCount duplicate accepted")
	}
}

func TestTermCountsMatchEnumeration(t *testing.T) {
	cq := joinCQ(t, "A", "B", "C", "D")
	for _, over := range [][]string{{"A"}, {"A", "B"}, {"A", "B", "C"}, {"A", "B", "C", "D"}} {
		terms, err := Terms(cq, over)
		if err != nil {
			t.Fatal(err)
		}
		n, err := TermCount(cq, over)
		if err != nil {
			t.Fatal(err)
		}
		if len(terms) != n {
			t.Errorf("over %v: %d terms enumerated, TermCount says %d", over, len(terms), n)
		}
		// All distinct subsets.
		seen := make(map[string]bool)
		for _, tm := range terms {
			if seen[tm.String()] {
				t.Errorf("duplicate term %s", tm)
			}
			seen[tm.String()] = true
		}
	}
}
