package main

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/tpcd"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile([]float64{10, 20}, 50); got != 15 {
		t.Errorf("p50 of two = %v, want the interpolated 15", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps 2: the union counts once
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 130}, // sticks out: clipped to the parent
		{ID: 5, Parent: 2, StartNS: 10, EndNS: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 40, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestScheduleTimesFromDue(t *testing.T) {
	s := schedule{start: time.Now().Add(-35 * time.Millisecond), every: 10 * time.Millisecond}
	// Request 2 was due 15 ms ago: no sleep, and the lateness is reported.
	t0 := time.Now()
	due, late := s.await(2)
	if !due.Equal(s.start.Add(20 * time.Millisecond)) {
		t.Errorf("due = %v", due.Sub(s.start))
	}
	if late < 15*time.Millisecond || time.Since(t0) > 5*time.Millisecond {
		t.Errorf("late = %v after waiting %v; want at least 15ms without sleeping", late, time.Since(t0))
	}
	// Request 5 is due 15 ms from now: await sleeps until then.
	due, late = s.await(5)
	if time.Now().Before(due) {
		t.Error("await returned before the due time")
	}
	if late > 10*time.Millisecond {
		t.Errorf("late = %v on a request awaited in time", late)
	}
}

func TestQueryLatencyLeavesOutGeneratorLag(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Connection free at the due time, generator 3 ms late: the 2 ms of service count.
	if got := queryLatency(at(10), at(4), at(13), at(15)); got != 2*time.Millisecond {
		t.Errorf("free connection, late generator: %v, want 2ms", got)
	}
	// The reply before came back 20 ms after this request was due, and the
	// generator sent 1 ms after that: the stall is charged, the 1 ms is not.
	if got := queryLatency(at(10), at(30), at(31), at(33)); got != 22*time.Millisecond {
		t.Errorf("stalled connection: %v, want the 20ms stall plus 2ms of service", got)
	}
}

func TestHostClock(t *testing.T) {
	var h hostClock
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	if h.factor() != 1 || h.slowdown(t0) != 1 {
		t.Errorf("a phase without readings: factor %v, slowdown %v, want 1", h.factor(), h.slowdown(t0))
	}
	// The host ran at nominal speed around 10 ms and 20 ms, twice as slow around 30 ms.
	h.at = []time.Time{at(10), at(20), at(30)}
	h.ms = []float64{refKernelMS, refKernelMS, 2 * refKernelMS}
	for _, c := range []struct {
		ms   int
		want float64
	}{{0, 1}, {14, 1}, {24, 1}, {26, 2}, {99, 2}} {
		if got := h.slowdown(at(c.ms)); got != c.want {
			t.Errorf("slowdown at %d ms = %v, want %v (the nearest reading)", c.ms, got, c.want)
		}
	}
	// Three samples of the same work: the one measured in the slow spell read
	// twice as long on the clock, and the same at nominal speed.
	if got := h.atNominal([]float64{5, 5, 10}, []time.Time{at(9), at(19), at(29)}); got != 5 {
		t.Errorf("atNominal = %v, want 5", got)
	}
	if got := h.factor(); got != 1 {
		t.Errorf("factor = %v, want the median reading over the nominal time, 1", got)
	}
	var live hostClock
	live.sample()
	if len(live.ms) != 1 || live.ms[0] <= 0 || live.at[0].Before(t0) {
		t.Errorf("a reading of the kernel: %v at %v", live.ms, live.at)
	}
}

func tpcdRows(t *testing.T, seed int64) map[string][]relation.Tuple {
	t.Helper()
	src, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.0005, Seed: seed, Queries: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string][]relation.Tuple)
	for _, v := range tpcd.BaseViews {
		for _, r := range src.W.MustView(v).SortedRows() {
			rows[v] = append(rows[v], r.Tuple)
		}
	}
	return rows
}

func TestGeneratorDeterminism(t *testing.T) {
	rows := tpcdRows(t, 7)
	digests := func(g changeGen) []uint64 {
		var out []uint64
		for _, n := range []int{40, 3, 40, 200} {
			out = append(out, g.next(n).digest())
		}
		return out
	}
	same := func(a, b []uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	a, b := digests(newTPCDGen(7, rows)), digests(newTPCDGen(7, rows))
	if !same(a, b) {
		t.Errorf("TPC-D: same seed, different batches: %x vs %x", a, b)
	}
	if c := digests(newTPCDGen(8, rows)); same(a, c) {
		t.Error("TPC-D: different seeds gave the same batches")
	}
	retail := func(seed int64) changeGen {
		g := newRetailGen(dataSeed, 16)
		for i := 0; i < 500; i++ {
			g.sale()
		}
		g.reseed(seed)
		return g
	}
	if a, b := digests(retail(7)), digests(retail(7)); !same(a, b) {
		t.Errorf("retail: same seed, different batches: %x vs %x", a, b)
	}
	if a, c := digests(retail(7)), digests(retail(8)); same(a, c) {
		t.Error("retail: different seeds gave the same batches")
	}
}

func TestGeneratorMixAndMirror(t *testing.T) {
	g := newRetailGen(1, 16)
	for i := 0; i < 3000; i++ {
		g.sale()
	}
	ins, changes := 0, 0
	var top int64
	for i := 0; i < 100; i++ {
		b := g.next(20)
		ins += b.inserts
		changes += b.changes
		top = b.maxID
	}
	if changes != 2000 || ins != 1000 {
		t.Errorf("100 submits of 20: %d changes, %d inserts; want 2000 and 1000", changes, ins)
	}
	// Half inserts, half deletes: the table keeps its size.
	if got := len(g.mirror()[retailSales]); got != 3000 {
		t.Errorf("mirror holds %d rows, want the 3000 it was loaded with", got)
	}
	seen := make(map[int64]bool)
	for _, r := range g.mirror()[retailSales] {
		if seen[r[0].Int()] {
			t.Fatalf("sale %d twice in the mirror", r[0].Int())
		}
		seen[r[0].Int()] = true
	}
	// The watermark is MAX(sale_id): the newest ids must never be deleted.
	for id := top - retailGuard + 1; id <= top; id++ {
		if !seen[id] {
			t.Fatalf("sale %d of the newest %d was deleted", id, retailGuard)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "window_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "changes_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	if v := judge(lower, steady, shift(steady, 1.05)); v.status != "ok" {
		t.Errorf("5%% slower within a 10%% bound: %s", v.status)
	}
	if v := judge(lower, steady, shift(steady, 1.2)); v.status != "REGRESSION" {
		t.Errorf("20%% slower: %s", v.status)
	}
	if v := judge(higher, steady, shift(steady, 0.8)); v.status != "REGRESSION" || v.delta <= 0 {
		t.Errorf("20%% less throughput: %s (delta %v)", v.status, v.delta)
	}
	if v := judge(higher, steady, shift(steady, 1.2)); v.status != "ok" {
		t.Errorf("20%% more throughput: %s", v.status)
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if v := judge(lower, noisy, noisy); v.status != "unresolved" {
		t.Errorf("a spread wider than the bound: %s", v.status)
	}
	// No metric is exempt: set-up time that cannot be told from noise says so.
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}
	if v := judge(setup, steady, noisy); v.status != "unresolved" {
		t.Errorf("setup_s with a spread wider than its bound: %s", v.status)
	}
}

func TestFixedWork(t *testing.T) {
	// The work of a run is a function of -seconds alone.
	c := findWorkload("batch-seq")
	if got := c.windows(20, false); got != 60 {
		t.Errorf("batch-seq samples %d windows in a 20 s run, want 60", got)
	}
	if got := c.windows(20, true); got != 30 {
		t.Errorf("batch-seq samples %d windows in a traced 20 s run, want 30", got)
	}
	// However short the run, the prefix the exact counts are taken over is run.
	if got := c.warmup + c.windows(0.1, true); got != c.prefix {
		t.Errorf("a 0.1 s run has %d windows, want the prefix of %d", got, c.prefix)
	}
}

func TestTimedFileBareAndTraced(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "journal")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := newTracer()
	tf := &timedFile{f: f, tr: tr}
	write := func() {
		if _, err := tf.Write([]byte("record")); err != nil {
			t.Fatal(err)
		}
		if err := tf.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	write() // bare: counted, not timed, no spans
	if c := tf.counters(); c.bytes != 6 || c.syncs != 1 || c.write != 0 || c.sync != 0 || len(tr.snapshot()) != 0 {
		t.Errorf("bare write: counters %+v, %d span(s)", c, len(tr.snapshot()))
	}
	parent := tr.reserve(0, "window.run", 7, time.Now())
	tf.trace(true, parent, 7)
	write()
	tf.trace(false, 0, 0)
	write()
	c, spans := tf.counters(), tr.snapshot()
	if c.bytes != 18 || c.syncs != 3 || c.write <= 0 || c.sync <= 0 {
		t.Errorf("after a traced write: counters %+v", c)
	}
	if len(spans) != 3 || spans[1].Name != "journal.write" || spans[2].Name != "journal.sync" || spans[2].Parent != parent || spans[2].Seq != 7 {
		t.Errorf("spans after one traced write among bare ones: %+v", spans)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the tables in main.go and metrics.go; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
}

// TestSmoke runs all four workloads and their correctness checks at the
// smoke scale, untraced and traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	digests := make(map[string]string)
	for _, cfg := range workloads {
		for _, trace := range []bool{false, true} {
			t0 := time.Now()
			res, err := runWorkload(cfg, 11, 0.5, trace, true, t.TempDir())
			t.Logf("%s trace=%v: %v", cfg.name, trace, time.Since(t0))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", cfg.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: ops %d failed %d: %v", cfg.name, trace, res.Attempted, res.Failed, res.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", cfg.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v (reported: %v)", cfg.name, trace, d.Name, v.Value, ok)
				}
			}
			if !trace {
				digests[cfg.name] = res.Digest
			}
		}
	}
	// The same seed's batches on two engines must give the same state.
	if a, b := digests["batch-seq"], digests["batch-dag-bounded"]; a != b {
		t.Errorf("batch-seq ends its prefix on %s, batch-dag-bounded on %s", a, b)
	}
}
