package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
)

// stagedAggregate returns a warehouse whose aggregate view A over R(a, b),
// grouped on a, holds groups groups of four rows, b = 0, 10, 20 and 30,
// with A's change for a batch that moves one row of each of changed groups
// computed and awaiting Install: the row b = 30 goes and one with b = 5
// comes. Shape "sum-count" is SUM(b) and COUNT(*), so every changed group's
// sum changes; shape "max" is MAX(b), so every changed group loses its
// maximum's last copy and its fold scans the group's values for the next.
func stagedAggregate(tb testing.TB, shape string, groups, changed int) *Warehouse {
	tb.Helper()
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		tb.Fatal(err)
	}
	aggs := map[string]string{"sum-count": "SUM(r.b) AS total, COUNT(*) AS n", "max": "MAX(r.b) AS hi"}[shape]
	if aggs == "" {
		tb.Fatalf("unknown shape %q", shape)
	}
	defineSQL(tb, w, "A", "SELECT r.a, "+aggs+" FROM R r GROUP BY r.a")
	rows := make([]relation.Tuple, 0, 4*groups)
	for g := 0; g < groups; g++ {
		for b := int64(0); b < 40; b += 10 {
			rows = append(rows, intRow(int64(g), b))
		}
	}
	if err := w.LoadBase("R", rows); err != nil {
		tb.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		tb.Fatal(err)
	}
	d := delta.New(schemaR)
	for i := 0; i < changed; i++ {
		g := int64(i * (groups / changed))
		d.Add(intRow(g, 30), -1)
		d.Add(intRow(g, 5), 1)
	}
	if err := w.StageDelta("R", d); err != nil {
		tb.Fatal(err)
	}
	if _, err := w.ComputeCtx(nil, "A", []string{"R"}); err != nil {
		tb.Fatal(err)
	}
	return w
}

// installMallocs installs A on a fresh clone of w and returns the number of
// heap allocations the install made.
func installMallocs(tb testing.TB, w *Warehouse) uint64 {
	run := w.Clone()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	if _, _, err := run.Install("A"); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

// TestInstallAllocationsPerGroup: installing an aggregate's change into a
// cloned table — every group it touches is shared with the clone's source,
// as in every window — allocates a bounded few times per changed group: the
// group's own copy, its accumulators' and a share of the buckets'. Finalizing
// the change into a tuple delta first, as installs once did, took about
// twelve.
func TestInstallAllocationsPerGroup(t *testing.T) {
	const changed = 240
	w := stagedAggregate(t, "sum-count", 20*changed, changed)
	fewest := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		fewest = min(fewest, installMallocs(t, w))
	}
	if per := float64(fewest) / changed; per > 6 {
		t.Fatalf("Install of %d changed SUM/COUNT groups allocated %.1f times a group, want at most 6", changed, per)
	}
}

// TestAccumulatingIntoAGroupAllocatesNothing: the sink finds a group that
// its aggregate change already holds by the row's encoded group key, so a
// row of that group, whatever its aggregates — MIN/MAX included, for a value
// already in the group's bag — allocates nothing.
func TestAccumulatingIntoAGroupAllocatesNothing(t *testing.T) {
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	cq := parseSQL(t, w, "SELECT r.a, SUM(r.b) AS total, COUNT(*) AS n, AVG(r.b) AS mean, MIN(r.b) AS lo, MAX(r.b) AS hi FROM R r GROUP BY r.a")
	s := newSink(cq, acc{p: delta.NewGroupPartials(cq.GroupSchema(), cq.AggSpecs())})
	row := intRow(1, 10)
	s.add(row, 1)
	if allocs := testing.AllocsPerRun(100, func() { s.add(row, 1) }); allocs != 0 {
		t.Fatalf("accumulating a row into a group already present allocated %v times, want 0", allocs)
	}
}

// BenchmarkInstall times what one window's Install of an aggregate view
// runs: a staged change to 240 of 24 000 groups, installed into a clone of
// the table, in the two shapes of stagedAggregate. It reports ns and
// allocations per changed group.
func BenchmarkInstall(b *testing.B) {
	const changed = 240
	for _, shape := range []string{"sum-count", "max"} {
		b.Run(shape, func(b *testing.B) {
			w := stagedAggregate(b, shape, 100*changed, changed)
			var mallocs uint64
			var ms runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := w.Clone()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				if _, _, err := run.Install("A"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/changed, "ns/group")
			b.ReportMetric(float64(mallocs)/float64(b.N)/changed, "allocs/group")
		})
	}
}
