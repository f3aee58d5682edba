package ingest

import (
	"context"
	"testing"

	warehouse "repro"
)

// BenchmarkIngestSteadyState measures the amortized per-tuple cost of the
// continuous path — Submit (encode + queue) plus the micro-batch windows
// that drain it — with journaling off, isolating ingest overhead from fsync.
// Reported as ns/change and maintenance work/change.
func BenchmarkIngestSteadyState(b *testing.B) {
	w := buildFixture(b, fixSeed, fixStores, fixSales)
	ing, err := New(Config{Warehouse: w, QueueLimit: 4096})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sets := genSets(fixSeed, fixStores, fixSales, 64, 16)
	deltas := make([]*warehouse.Delta, len(sets))
	for i, s := range sets {
		deltas[i] = s.delta(b, w)
	}
	changes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sets[i%len(sets)]
		if err := ing.Submit("SALES", deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
		changes += len(s.ids)
		// Stand in for the window loop: drain once the queue is half full.
		ing.mu.Lock()
		ready := ing.depth >= ing.highWaterMark()
		ing.mu.Unlock()
		if ready {
			if err := ing.drain(ctx, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := ing.Close(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := ing.Stats()
	if changes > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(changes), "ns/change")
	}
	b.ReportMetric(st.WorkPerChange, "work/change")
	b.ReportMetric(float64(st.Windows), "windows")
}
