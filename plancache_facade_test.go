package warehouse

import (
	"fmt"
	"sync"
	"testing"
)

// TestPlanCacheHitOnRepeat: the second run of the same query shape is a
// cache hit, including when the SQL is reformatted, and survives a window
// commit (window commits don't change the catalog).
func TestPlanCacheHitOnRepeat(t *testing.T) {
	w := newRetail(t)
	const q = "SELECT region, total FROM REGION_TOTALS ORDER BY total DESC"
	if _, err := w.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query("SELECT region,  total\nFROM REGION_TOTALS  ORDER BY total DESC"); err != nil {
		t.Fatal(err)
	}
	st := w.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat: %+v", st)
	}

	stageSale(t, w)
	if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
		t.Fatal(err)
	}
	rows, err := w.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("post-window rows = %v", rows)
	}
	st = w.PlanCacheStats()
	if st.Hits != 2 || st.Invalidations != 0 {
		t.Fatalf("plan did not survive the window commit: %+v", st)
	}
}

// TestPlanCacheInvalidatedByViewDefinition: defining a view bumps the
// catalog version, so a cached plan is discarded and rebound on its next
// probe rather than served against the stale binding.
func TestPlanCacheInvalidatedByViewDefinition(t *testing.T) {
	w := newRetail(t)
	const q = "SELECT region FROM REGION_TOTALS"
	for i := 0; i < 2; i++ {
		if _, err := w.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("warmup: %+v", st)
	}
	w.MustDefineViewSQL("WEST_ONLY", "SELECT sale_id FROM SALES_BY_STORE WHERE region = 'west'")
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(q); err != nil {
		t.Fatal(err)
	}
	st := w.PlanCacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("view definition did not invalidate: %+v", st)
	}
	// The rebound plan is cached again.
	if _, err := w.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := w.PlanCacheStats(); got.Hits != 2 {
		t.Fatalf("rebind not cached: %+v", got)
	}
}

// TestPlanCacheConcurrentStorm: many goroutines hammer a small set of
// query shapes while windows commit underneath them. Run under -race this
// checks that cached plans are safely shared across concurrent readers
// and that the cache itself is race-free against invalidation-free
// version checks.
func TestPlanCacheConcurrentStorm(t *testing.T) {
	w := newRetail(t)
	shapes := []string{
		"SELECT region, total FROM REGION_TOTALS ORDER BY total DESC",
		"SELECT sale_id, amount FROM SALES_BY_STORE WHERE amount >= 10.0 ORDER BY 1 LIMIT 2",
		"SELECT region, COUNT(*) AS n FROM SALES_BY_STORE GROUP BY region ORDER BY n DESC LIMIT 1 OFFSET 0",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := w.Query(shapes[(g+i)%len(shapes)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Windows commit concurrently with the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			d, err := w.NewDelta("SALES")
			if err != nil {
				t.Error(err)
				return
			}
			d.Add(Tuple{Int(int64(200 + i)), Int(2), Float(float64(i))}, 1)
			if err := w.StageDelta("SALES", d); err != nil {
				t.Error(err)
				return
			}
			if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	st := w.PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("storm produced no cache hits: %+v", st)
	}
	if st.Hits+st.Misses < 8*50 {
		t.Fatalf("probe accounting off: %+v", st)
	}
}

// TestPlanCacheLRUAtFacade: a full cache evicts the least recently used
// plan — not the oldest — when a new shape arrives.
func TestPlanCacheLRUAtFacade(t *testing.T) {
	w := newRetail(t)
	query := func(shape int) {
		t.Helper()
		if _, err := w.Query(fmt.Sprintf("SELECT region FROM REGION_TOTALS LIMIT %d", shape+1)); err != nil {
			t.Fatal(err)
		}
	}
	for shape := 0; shape < DefaultPlanCacheSize; shape++ {
		query(shape)
	}
	query(0)                    // a hit: shape 0 is now the most recent
	query(DefaultPlanCacheSize) // evicts shape 1, the least recent
	query(0)                    // still cached
	query(1)                    // evicted, so a miss that evicts shape 2
	st := w.PlanCacheStats()
	if st.Hits != 2 || st.Evictions != 2 || st.Entries != DefaultPlanCacheSize {
		t.Fatalf("LRU at capacity %d: %+v", DefaultPlanCacheSize, st)
	}
}

// TestPlanCacheCloneIsolation: a clone starts with its own empty cache;
// queries against the clone don't touch the parent's counters.
func TestPlanCacheCloneIsolation(t *testing.T) {
	w := newRetail(t)
	if _, err := w.Query("SELECT region FROM REGION_TOTALS"); err != nil {
		t.Fatal(err)
	}
	before := w.PlanCacheStats()
	c := w.Clone()
	if st := c.PlanCacheStats(); st.Entries != 0 || st.Cap != before.Cap {
		t.Fatalf("clone cache = %+v", st)
	}
	if _, err := c.Query("SELECT region FROM REGION_TOTALS"); err != nil {
		t.Fatal(err)
	}
	if st := w.PlanCacheStats(); st != before {
		t.Fatalf("clone query mutated parent stats: %+v vs %+v", st, before)
	}
}

// TestPlanCacheManyShapes exercises eviction bookkeeping under capacity
// pressure from distinct shapes.
func TestPlanCacheManyShapes(t *testing.T) {
	w := newRetail(t)
	for i := 0; i < DefaultPlanCacheSize+12; i++ {
		q := fmt.Sprintf("SELECT region FROM REGION_TOTALS LIMIT %d", i+1)
		if _, err := w.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := w.PlanCacheStats()
	if st.Entries != DefaultPlanCacheSize || st.Evictions != 12 {
		t.Fatalf("capacity pressure: %+v", st)
	}
}
