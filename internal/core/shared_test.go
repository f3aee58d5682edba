package core

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

// newSiblingWarehouse builds base R(a,b), S(b,c) and n sibling join views
// V1..Vn = R ⋈ S on b with distinct selection thresholds — the cross-view
// sharing case: every view's Comp over {R, S} reads the same four operands
// (δR, δS, and the states of R and S), and builds one of the deltas (the
// term over both joins them; the states are read through their indexes).
func newSiblingWarehouse(t *testing.T, n int, opts Options) *Warehouse {
	t.Helper()
	w := New(opts)
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	if err := w.DefineBase("S", schemaS); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		b := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
		b.Join("r.b", "s.b").
			Where(&algebra.Binary{Op: algebra.OpGt, L: b.Col("s.c"), R: &algebra.Const{Value: relation.NewInt(int64(i * 10))}}).
			SelectCol("r.a").SelectCol("s.c")
		cq, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := w.DefineDerived(fmt.Sprintf("V%d", i), cq); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func loadSiblingData(t *testing.T, w *Warehouse) {
	t.Helper()
	var rRows, sRows []relation.Tuple
	for i := int64(0); i < 120; i++ {
		rRows = append(rRows, intRow(i, i%10))
		sRows = append(sRows, intRow(i%10, i))
	}
	if err := w.LoadBase("R", rRows); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("S", sRows); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"R", "S"} {
		d := delta.New(w.MustView(base).Schema())
		d.Add(intRow(1000, 3), 1)
		d.Add(intRow(3, 55), 1)
		if err := w.StageDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
}

// runSiblingWindow computes and installs every view dual-stage, returning
// the per-view CompReports.
func runSiblingWindow(t *testing.T, w *Warehouse, n int) []CompReport {
	t.Helper()
	reps := make([]CompReport, n)
	for i := 1; i <= n; i++ {
		rep, err := w.Compute(fmt.Sprintf("V%d", i), []string{"R", "S"})
		if err != nil {
			t.Fatal(err)
		}
		reps[i-1] = rep
	}
	for _, name := range []string{"R", "S", "V1", "V2", "V3"}[:n+2] {
		if _, err := w.Install(name); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// TestSharedRegistryHitMissSaved: with three sibling views and the build
// cache attached for the window, the first Compute makes the builds (shared
// misses), later ones reuse them (shared hits) and report the operand tuples
// whose physical scan was elided — while the reported work stays identical
// to an unshared run and the final state verifies against recomputation.
func TestSharedRegistryHitMissSaved(t *testing.T) {
	const n = 3
	shared := newSiblingWarehouse(t, n, Options{ShareComputation: true})
	loadSiblingData(t, shared)
	plain := newSiblingWarehouse(t, n, Options{})
	loadSiblingData(t, plain)

	if !shared.AttachSharing() {
		t.Fatal("AttachSharing refused")
	}
	sharedReps := runSiblingWindow(t, shared, n)
	stats := shared.DetachSharing()
	plainReps := runSiblingWindow(t, plain, n)

	var hits, misses int
	var saved int64
	for i := range sharedReps {
		if sharedReps[i].OperandTuples != plainReps[i].OperandTuples {
			t.Errorf("V%d: work %d with sharing, %d without — the metric must not move",
				i+1, sharedReps[i].OperandTuples, plainReps[i].OperandTuples)
		}
		if sharedReps[i].CacheMisses != plainReps[i].CacheMisses || sharedReps[i].CacheHits != plainReps[i].CacheHits {
			t.Errorf("V%d: cache %d/%d with sharing, %d/%d without — a Compute asks for the same builds either way",
				i+1, sharedReps[i].CacheHits, sharedReps[i].CacheMisses, plainReps[i].CacheHits, plainReps[i].CacheMisses)
		}
		hits += sharedReps[i].SharedHits
		misses += sharedReps[i].SharedMisses
		saved += sharedReps[i].SharedTuplesSaved
		if p := plainReps[i]; p.SharedHits != 0 || p.SharedMisses != 0 || p.SharedTuplesSaved != 0 {
			t.Errorf("V%d: sharing-off run reports shared counters %+v", i+1, p)
		}
	}
	if misses == 0 || hits == 0 || saved == 0 {
		t.Fatalf("sharing never engaged: hits=%d misses=%d saved=%d", hits, misses, saved)
	}
	// Later views reuse the first view's builds: the first view makes them
	// all, every view after it only hits.
	if sharedReps[0].SharedHits != 0 {
		t.Errorf("V1: %d shared hits before anything was built", sharedReps[0].SharedHits)
	}
	for i := 1; i < n; i++ {
		if sharedReps[i].SharedHits == 0 || sharedReps[i].SharedMisses != 0 {
			t.Errorf("V%d: shared %d hits / %d misses, want only hits", i+1, sharedReps[i].SharedHits, sharedReps[i].SharedMisses)
		}
	}
	if stats.BytesPeak == 0 || len(stats.Detail) != misses {
		t.Errorf("cache stats: peak %d, %d detail lines for %d builds", stats.BytesPeak, len(stats.Detail), misses)
	}
	for _, d := range stats.Detail {
		// Every build was dropped by its view's Install before the detach.
		if d.Requests != n || d.Hits != n-1 || d.Rows == 0 || d.Fate != "dropped" {
			t.Errorf("detail %+v, want %d requests / %d hits, dropped at Install", d, n, n-1)
		}
	}
	if err := shared.VerifyAll(); err != nil {
		t.Fatalf("shared run corrupted state: %v", err)
	}
}

// stageBulk stages n more rows — (k, k) for n keys no loaded row carries —
// on each of the named two-column integer base views. State tables are read
// through resident indexes and build nothing, so what a term over two of
// these views builds is a delta: one of the deltas is on its build side, and
// a delta carries no index.
func stageBulk(t *testing.T, w *Warehouse, n int, bases ...string) {
	t.Helper()
	for _, base := range bases {
		d := delta.New(w.MustView(base).Schema())
		for i := int64(0); i < int64(n); i++ {
			d.Add(intRow(2_000_000+i, 2_000_000+i), 1)
		}
		if err := w.StageDelta(base, d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowCacheKeepsBuildsUntilInstall: a build of the window's cache stays
// resident past the Compute that made it until its view installs. Every
// later sibling Comp hits it, Install(R) leaves it (it is a build of δS) and
// Install(S) drops it. The case is named budget=0 —
// no memory budget — as it was when the cache also ran under one; an
// unbounded cache is now the only kind.
func TestWindowCacheKeepsBuildsUntilInstall(t *testing.T) {
	t.Run("budget=0", func(t *testing.T) {
		const n = 3
		w := newSiblingWarehouse(t, n, Options{ShareComputation: true})
		loadSiblingData(t, w)
		stageBulk(t, w, 120, "R", "S")
		if !w.AttachSharing() {
			t.Fatal("AttachSharing refused")
		}
		held := func() []SharedEntryStats {
			w.cache.mu.Lock()
			defer w.cache.mu.Unlock()
			var out []SharedEntryStats
			for _, slot := range w.cache.tables {
				out = append(out, slot.stats("resident"))
				if slot.bt == nil {
					t.Errorf("%s: kept without a build table", slot.stats("").Name)
				}
			}
			return out
		}
		for i := 1; i <= n; i++ {
			rep, err := w.Compute(fmt.Sprintf("V%d", i), []string{"R", "S"})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(i-1, 1); rep.SharedHits != want || rep.SharedMisses != 1-want {
				t.Errorf("Comp(V%d): shared %d hits / %d misses, want %d / %d", i, rep.SharedHits, rep.SharedMisses, want, 1-want)
			}
			if kept := held(); len(kept) != 1 || kept[0].Name != "δS[0]" {
				t.Errorf("after Comp(V%d) the cache holds %+v, want the one build of δS", i, kept)
			}
		}
		if _, err := w.Install("R"); err != nil {
			t.Fatal(err)
		}
		if kept := held(); len(kept) != 1 {
			t.Errorf("Install(R) left %+v, want the build of δS kept", kept)
		}
		for _, name := range []string{"S", "V1", "V2", "V3"} {
			if _, err := w.Install(name); err != nil {
				t.Fatal(err)
			}
		}
		if kept := held(); len(kept) != 0 {
			t.Errorf("Install(S) left %+v in the cache", kept)
		}
		stats := w.DetachSharing()
		if len(stats.Detail) != 1 || stats.Detail[0].Fate != "dropped" || stats.Detail[0].Requests != n || stats.Detail[0].Hits != n-1 {
			t.Errorf("cache detail %+v, want one build asked for %d times, dropped at Install", stats.Detail, n)
		}
		if err := w.VerifyAll(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSharedRegistryLifecycle: a build the window's cache keeps counts in
// its resident bytes until Install of its view drops it, and then stops
// counting — asserted on the cache's accounting, which is what a leak would
// inflate.
func TestSharedRegistryLifecycle(t *testing.T) {
	const n = 2
	w := newSiblingWarehouse(t, n, Options{ShareComputation: true})
	loadSiblingData(t, w)
	if !w.AttachSharing() {
		t.Fatal("AttachSharing refused")
	}
	used := func() int64 {
		w.cache.mu.Lock()
		defer w.cache.mu.Unlock()
		return w.cache.used
	}
	if _, err := w.Compute("V1", []string{"R", "S"}); err != nil {
		t.Fatal(err)
	}
	before := used()
	if before == 0 {
		t.Fatal("nothing kept after the first of two consumers")
	}

	// Comp(V1, {R, S}) built δS (δR drives the two-delta term). Install of
	// a view drops the builds on its delta and state, and only those.
	if _, err := w.Install("R"); err != nil {
		t.Fatal(err)
	}
	if after := used(); after != before {
		t.Errorf("Install(R): kept %d → %d bytes, but the build kept is on δS", before, after)
	}
	rep, err := w.Compute("V2", []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedHits != 1 || rep.SharedMisses != 0 {
		t.Errorf("Comp(V2) after Install(R): %+v, want the build of δS found", rep.EngineCounters)
	}
	if _, err := w.Install("S"); err != nil {
		t.Fatal(err)
	}
	if after := used(); after != 0 {
		t.Errorf("Install(S) left %d bytes kept", after)
	}
	if stats := w.DetachSharing(); stats.BytesPeak != before {
		t.Errorf("peak %d bytes, want the one build's %d", stats.BytesPeak, before)
	}
}

// TestSharedRegistryDisabled: without ShareComputation the attach refuses
// and Computes report no shared counters.
func TestSharedRegistryDisabled(t *testing.T) {
	w := newSiblingWarehouse(t, 2, Options{})
	loadSiblingData(t, w)
	if w.AttachSharing() {
		t.Fatal("AttachSharing attached a cache with sharing disabled")
	}
	if stats := w.DetachSharing(); stats.BytesPeak != 0 || len(stats.Detail) != 0 {
		t.Errorf("detach with nothing attached: %+v", stats)
	}
	for _, rep := range runSiblingWindow(t, w, 2) {
		if rep.SharedHits != 0 || rep.SharedMisses != 0 || rep.CacheMisses == 0 {
			t.Errorf("sharing-off Compute: %+v", rep.EngineCounters)
		}
	}
}
