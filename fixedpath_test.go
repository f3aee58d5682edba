package warehouse

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/recovery"
	"repro/internal/tpcd"
)

// fixedPathRows is the batch of the fixed-path gate and benchmark: 152 rows
// deleted from the base views and as many inserted, 304 changes — the size of
// the repository benchmark's batch-seq batches.
var fixedPathRows = map[string]int64{tpcd.LineItem: 100, tpcd.Order: 30, tpcd.Customer: 12, tpcd.Supplier: 10}

// fixedPathWarehouse is the TPC-D warehouse at the repository benchmark's
// scale (SF 0.004) served through the facade, with a 304-change batch
// staged.
func fixedPathWarehouse(tb testing.TB) *Warehouse {
	tb.Helper()
	tw, err := tpcd.NewWarehouse(tpcd.Config{SF: residentSF, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	sizes, err := tw.StageChanges(tpcd.MixedRows(fixedPathRows))
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, s := range sizes {
		n += s
	}
	if n != 304 {
		tb.Fatalf("staged %d changes, want 304", n)
	}
	return FromCore(tw.W)
}

// countingSink counts the bytes a journal writes, and keeps none.
type countingSink struct{ n int64 }

func (c *countingSink) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// journalBatch journals through jw what a window writes before and after its
// steps for the staged batch: its own accept, its begin record, its commit.
func journalBatch(tb testing.TB, c *core.Warehouse, s Strategy, jw *journal.Writer) {
	if err := recovery.Begin(c, s, ModeSequential, recovery.Options{Journal: jw, Seq: 1, Planner: "minwork"}); err != nil {
		tb.Fatal(err)
	}
	if err := jw.Commit(journal.CommitRecord{TotalWork: 1}); err != nil {
		tb.Fatal(err)
	}
}

// TestWindowFixedPathIsCompiled holds what a window does before its first
// step to what its catalog does not fix: the VDAG is the catalog version's,
// built where a definition bumps the version and shared by every window's
// clone; MinWork, validation and the step DAG run over its view ids instead
// of building string-keyed graphs; and the batch is journaled in one pass,
// encoded in place.
func TestWindowFixedPathIsCompiled(t *testing.T) {
	w := fixedPathWarehouse(t)
	c := w.Internal()

	g, err := w.Graph()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.Plan(MinWorkPlanner)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := w.Plan(MinWorkPlanner); err != nil {
			t.Fatal(err)
		}
	}); n > 100 {
		t.Errorf("Plan(minwork) allocates %.0f times, want ≤ 100", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := exec.Validate(c, plan.Strategy); err != nil {
			t.Fatal(err)
		}
		exec.BuildDAG(plan.Strategy, c.Graph())
	}); n > 40 {
		t.Errorf("validating the strategy and building its step DAG allocate %.0f times, want ≤ 40", n)
	}

	// One journal across the windows, as a warehouse keeps it.
	var sink countingSink
	jw := journal.NewWriter(&sink)
	journalBatch(t, c, plan.Strategy, jw)
	const runs = 20
	sink.n = 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		journalBatch(t, c, plan.Strategy, jw)
	}
	runtime.ReadMemStats(&after)
	if alloc := float64(after.TotalAlloc - before.TotalAlloc); alloc > 1.5*float64(sink.n) {
		t.Errorf("journaling the batch allocates %.0f bytes for %d written (%.1f×), want ≤ 1.5×",
			alloc/runs, sink.n/runs, alloc/float64(sink.n))
	}

	for i := 0; i < 20; i++ {
		if _, err := w.RunWindowOpts(WindowOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := w.Graph(); again != g {
		t.Errorf("20 windows changed the warehouse's VDAG: windows must share the catalog version's")
	}
	if err := w.DefineView(tpcd.Q3ByPriority, tpcd.Q3ByPriorityDef()); err != nil {
		t.Fatal(err)
	}
	if again, _ := w.Graph(); again == g || !again.IsDerived(tpcd.Q3ByPriority) {
		t.Errorf("a definition left the warehouse with its old VDAG")
	}
}

// BenchmarkWindowFixedPath is what one TPC-D window (the gate's warehouse and
// batch) does before its first step, piece by piece: plan (MinWork, with its
// statistics and estimate), validate, build the step DAG, and journal the
// begin record behind the batch's own accept.
func BenchmarkWindowFixedPath(b *testing.B) {
	w := fixedPathWarehouse(b)
	c := w.Internal()
	plan, err := w.Plan(MinWorkPlanner)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := w.Plan(MinWorkPlanner); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := exec.Validate(c, plan.Strategy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dag", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			exec.BuildDAG(plan.Strategy, c.Graph())
		}
	})
	b.Run("begin", func(b *testing.B) {
		b.ReportAllocs()
		var sink countingSink
		jw := journal.NewWriter(&sink)
		for i := 0; i < b.N; i++ {
			if err := recovery.Begin(c, plan.Strategy, ModeSequential, recovery.Options{Journal: jw, Seq: 1}); err != nil {
				b.Fatal(err)
			}
			if err := jw.Abort(journal.AbortRecord{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sink.n)/float64(b.N), "written-B/op")
	})
}
