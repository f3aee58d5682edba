package serve

import (
	"context"
	"testing"

	warehouse "repro"
	"repro/internal/sqlparse"
)

// TestServeZeroParseOnHit: once a query shape is warm, serving it again
// does not invoke the SQL front end at all — the plan comes straight from
// the cache. sqlparse.ParseCalls is the witness: it must not move across
// the repeated queries.
func TestServeZeroParseOnHit(t *testing.T) {
	s := New(newRetail(t), Config{})
	defer s.Close(context.Background())

	if _, err := s.Query(context.Background(), totalsQuery); err != nil {
		t.Fatal(err)
	}
	warm := sqlparse.ParseCalls()
	for i := 0; i < 5; i++ {
		res, err := s.Query(context.Background(), totalsQuery)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("rows = %v", res.Rows)
		}
	}
	if got := sqlparse.ParseCalls(); got != warm {
		t.Errorf("warm queries parsed: ParseCalls %d -> %d", warm, got)
	}
	st := s.Stats()
	if st.PlanCache.Hits < 5 {
		t.Errorf("stats did not surface the hits: %+v", st)
	}
	if st.PlanCache.Entries == 0 || st.PlanCache.Cap == 0 {
		t.Errorf("cache population not surfaced: %+v", st)
	}
}

// TestServeWindowKeepsPlansWarm: a window committed through the server
// does not cold-start the plan cache — the same shape stays a hit on the
// new epoch.
func TestServeWindowKeepsPlansWarm(t *testing.T) {
	s := New(newRetail(t), Config{})
	defer s.Close(context.Background())
	if _, err := s.Query(context.Background(), totalsQuery); err != nil {
		t.Fatal(err)
	}
	stageSale(t, s.Warehouse(), 103)
	if _, err := s.RunWindow(context.Background(), warehouse.WindowOptions{Mode: warehouse.ModeDAG}); err != nil {
		t.Fatal(err)
	}
	warm := sqlparse.ParseCalls()
	res, err := s.Query(context.Background(), totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 2 {
		t.Fatalf("epoch = %d", res.Epoch)
	}
	if got := sqlparse.ParseCalls(); got != warm {
		t.Errorf("post-window query re-parsed: ParseCalls %d -> %d", warm, got)
	}
}
