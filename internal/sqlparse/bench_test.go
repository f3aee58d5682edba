package sqlparse

// Front-end microbenchmarks. BenchmarkTokenize times the lexer, whose
// zero-allocation contract — after warmup (the token slice reaches
// steady-state capacity), lexing allocates nothing —
// TestTokenizeAllocatesNothing holds as an ordinary test.
// BenchmarkParseQuery is the cold path a plan-cache miss pays: lex + parse +
// bind + validate, arena slabs handed off to the result.

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

const benchSQL = `
	SELECT s.sale_id AS id, s.amount, st.region, st.store_id
	FROM SALES s, STORES st
	WHERE s.store_id = st.store_id AND s.amount >= 10.0 AND s.amount <= 5000.0
	  AND st.region <> 'none' AND s.sale_id > 0 AND NOT s.amount = 13.0
	ORDER BY 2 DESC, region LIMIT 100 OFFSET 10`

func benchResolve(view string) (relation.Schema, error) {
	switch view {
	case "SALES":
		return relation.Schema{
			{Name: "sale_id", Kind: relation.KindInt},
			{Name: "store_id", Kind: relation.KindInt},
			{Name: "amount", Kind: relation.KindFloat},
		}, nil
	case "STORES":
		return relation.Schema{
			{Name: "store_id", Kind: relation.KindInt},
			{Name: "region", Kind: relation.KindString},
		}, nil
	}
	return nil, fmt.Errorf("unknown view %q", view)
}

func BenchmarkTokenize(b *testing.B) {
	var lx lexer
	if err := lx.lex(benchSQL); err != nil { // warmup: token slice reaches capacity
		b.Fatal(err)
	}
	tokens := len(lx.toks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lx.lex(benchSQL); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tokens), "tokens")
}

func TestTokenizeAllocatesNothing(t *testing.T) {
	var lx lexer
	if err := lx.lex(benchSQL); err != nil { // warmup: token slice reaches capacity
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := lx.lex(benchSQL); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("lexing %d tokens allocates %v times per run, want 0", len(lx.toks), n)
	}
}

func BenchmarkParseQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(benchSQL, benchResolve); err != nil {
			b.Fatal(err)
		}
	}
}
