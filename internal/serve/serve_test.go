package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	warehouse "repro"
)

// newRetail builds the small two-level warehouse the facade tests use:
// SALES/STORES bases, a join view, and an aggregate summary on top.
func newRetail(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	w := warehouse.New()
	w.MustDefineBase("STORES", warehouse.Schema{
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "region", Kind: warehouse.KindString},
	})
	w.MustDefineBase("SALES", warehouse.Schema{
		{Name: "sale_id", Kind: warehouse.KindInt},
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "amount", Kind: warehouse.KindFloat},
	})
	w.MustDefineViewSQL("SALES_BY_STORE", `
		SELECT s.sale_id, s.amount, st.region
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id`)
	w.MustDefineViewSQL("REGION_TOTALS", `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)
	if err := w.Load("STORES", []warehouse.Tuple{
		{warehouse.Int(1), warehouse.String("west")},
		{warehouse.Int(2), warehouse.String("east")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Load("SALES", []warehouse.Tuple{
		{warehouse.Int(100), warehouse.Int(1), warehouse.Float(10)},
		{warehouse.Int(101), warehouse.Int(1), warehouse.Float(20)},
		{warehouse.Int(102), warehouse.Int(2), warehouse.Float(5)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

func stageSale(t *testing.T, w *warehouse.Warehouse, id int64) {
	t.Helper()
	d, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d.Add(warehouse.Tuple{warehouse.Int(id), warehouse.Int(2), warehouse.Float(50)}, 1)
	if err := w.StageDelta("SALES", d); err != nil {
		t.Fatal(err)
	}
}

const totalsQuery = "SELECT region, SUM(amount) AS total FROM SALES_BY_STORE GROUP BY region ORDER BY region"

// TestServeQuery: a plain query comes back with rows and the serving epoch.
func TestServeQuery(t *testing.T) {
	s := New(newRetail(t), Config{})
	defer s.Close(context.Background())
	res, err := s.Query(context.Background(), totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || len(res.Rows) != 2 {
		t.Fatalf("epoch=%d rows=%v", res.Epoch, res.Rows)
	}
	if got := res.Rows[0].String(); got != "(east, 5)" {
		t.Errorf("row 0 = %s", got)
	}
	st := s.Stats()
	if st.Admitted != 1 || st.Completed != 1 || st.Shed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeShedsWhenQueueFull: with one gated worker and a depth-1 queue,
// the third concurrent query is refused immediately with ErrOverloaded —
// backpressure by shedding, not by blocking.
func TestServeShedsWhenQueueFull(t *testing.T) {
	s := New(newRetail(t), Config{Workers: 1, QueueDepth: 1})
	defer s.Close(context.Background())
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	s.gate = func() {
		running <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the worker
		defer wg.Done()
		if _, err := s.Query(context.Background(), totalsQuery); err != nil {
			t.Error(err)
		}
	}()
	<-running // worker is now gated; queue is empty

	wg.Add(1)
	go func() { // fills the queue
		defer wg.Done()
		if _, err := s.Query(context.Background(), totalsQuery); err != nil {
			t.Error(err)
		}
	}()
	// Wait until the queued request is actually in the channel.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if _, err := s.Query(context.Background(), totalsQuery); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	close(release)
	wg.Wait()
	st := s.Stats()
	if st.Shed != 1 || st.Completed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeQueryDeadline: a query whose deadline fires while queued returns
// the context error to the caller and is counted as expired by the worker.
func TestServeQueryDeadline(t *testing.T) {
	s := New(newRetail(t), Config{Workers: 1, QueueDepth: 4})
	defer s.Close(context.Background())
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	s.gate = func() {
		running <- struct{}{}
		<-release
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Query(context.Background(), totalsQuery)
	}()
	<-running

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.Query(ctx, totalsQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	close(release)
	wg.Wait()
	s.Close(context.Background()) // drain so the worker counts the expiry
	if st := s.Stats(); st.Expired != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeWindowCommitFlipsEpoch: a window run through the server bumps
// the epoch, queries before and after see the respective states, and the
// counters record the commit.
func TestServeWindowCommitFlipsEpoch(t *testing.T) {
	w := newRetail(t)
	s := New(w, Config{})
	defer s.Close(context.Background())

	before, err := s.Query(context.Background(), totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	stageSale(t, w, 103)
	rep, err := s.RunWindow(context.Background(), warehouse.WindowOptions{Mode: warehouse.ModeDAG})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seq != 1 {
		t.Errorf("window seq = %d", rep.Seq)
	}
	after, err := s.Query(context.Background(), totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if before.Epoch != 1 || after.Epoch != 2 {
		t.Fatalf("epochs %d -> %d", before.Epoch, after.Epoch)
	}
	if before.Rows[0].String() != "(east, 5)" || after.Rows[0].String() != "(east, 55)" {
		t.Errorf("east totals: %s -> %s", before.Rows[0], after.Rows[0])
	}
	if st := s.Stats(); st.WindowsCommitted != 1 || st.WindowsAborted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeWindowBudgetAbort: a window that blows its budget aborts with
// ErrWindowAborted, the serving epoch is unchanged, the staged batch
// remains pending, and a re-run without the budget commits it.
func TestServeWindowBudgetAbort(t *testing.T) {
	w := newRetail(t)
	s := New(w, Config{})
	defer s.Close(context.Background())
	stageSale(t, w, 103)

	_, err := s.RunWindow(context.Background(), warehouse.WindowOptions{Mode: warehouse.ModeDAG, Timeout: time.Nanosecond})
	if !errors.Is(err, warehouse.ErrWindowAborted) {
		t.Fatalf("want ErrWindowAborted, got %v", err)
	}
	if e := s.Epoch(); e != 1 {
		t.Fatalf("aborted window moved the epoch to %d", e)
	}
	if p := w.Pending(); len(p) != 1 {
		t.Fatalf("aborted window consumed the batch: pending=%v", p)
	}
	res, err := s.Query(context.Background(), totalsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].String() != "(east, 5)" {
		t.Errorf("aborted window leaked state: %s", res.Rows[0])
	}
	if _, err := s.RunWindow(context.Background(), warehouse.WindowOptions{Mode: warehouse.ModeDAG}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WindowsAborted != 1 || st.WindowsCommitted != 1 || st.Epoch != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestServeConcurrentQueriesDuringWindows: queries race windows; every
// result is one of the published states (pre- or post-window totals for
// the east region), never a blend, and observed epochs never go backwards
// per client.
func TestServeConcurrentQueriesDuringWindows(t *testing.T) {
	w := newRetail(t)
	s := New(w, Config{Workers: 4, QueueDepth: 64})
	defer s.Close(context.Background())

	valid := map[string]bool{"(east, 5)": true}
	// Each window adds one east sale of 50.
	for i := 0; i < 6; i++ {
		valid[warehouse.Tuple{warehouse.String("east"), warehouse.Float(5 + float64(i+1)*50)}.String()] = true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query(context.Background(), totalsQuery)
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if res.Epoch < last {
					t.Errorf("epoch went backwards: %d after %d", res.Epoch, last)
					return
				}
				last = res.Epoch
				if !valid[res.Rows[0].String()] {
					t.Errorf("blended result %s at epoch %d", res.Rows[0], res.Epoch)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		stageSale(t, w, int64(200+i))
		if _, err := s.RunWindow(context.Background(), warehouse.WindowOptions{Mode: warehouse.ModeDAG}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if e := s.Epoch(); e != 7 {
		t.Errorf("epoch after 6 windows = %d", e)
	}
}

// TestServeDrain: Close refuses new work, completes admitted work, and is
// idempotent.
func TestServeDrain(t *testing.T) {
	s := New(newRetail(t), Config{Workers: 2})
	if _, err := s.Query(context.Background(), totalsQuery); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Draining() {
		t.Fatal("server not draining after Close")
	}
	if _, err := s.Query(context.Background(), totalsQuery); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}
