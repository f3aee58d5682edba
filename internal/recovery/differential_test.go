package recovery

// Crash-recovery differential harness: for ~100 seeded random warehouses
// (the same generator as the executor differential harness — mixed
// join/aggregate views, 1–4 derivation levels, diamonds, integer columns so
// comparisons are exact) a window is journaled, crashed at a random step
// (every execution mode; one in three crashes is panic-flavoured), and
// recovered on a warehouse rebuilt from the pre-window snapshot. The
// recovered state must be bag-identical to an uninterrupted run of the same
// window, the completed journal must hold every step exactly once, and the
// installed-delta digests must match the uninterrupted run's journal.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/planner"
	"repro/internal/relation"
	"repro/internal/snapshot"
	"repro/internal/strategy"
)

// diffWarehouse builds a random leveled warehouse: 2–3 integer bases at
// level 0, then 1–4 derivation levels of 1–2 views each, diamonds common.
// It is deterministic in rng, which is what lets a restart rebuild the
// identical catalog from the trial seed.
func diffWarehouse(t *testing.T, rng *rand.Rand) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	type viewInfo struct {
		name   string
		schema relation.Schema
	}
	var all []viewInfo
	prev := []viewInfo{}

	nBase := 2 + rng.Intn(2)
	for i := 0; i < nBase; i++ {
		name := fmt.Sprintf("B%d", i)
		cols := 2 + rng.Intn(2)
		schema := make(relation.Schema, cols)
		for c := 0; c < cols; c++ {
			schema[c] = relation.Column{Name: fmt.Sprintf("c%d", c), Kind: relation.KindInt}
		}
		if err := w.DefineBase(name, schema); err != nil {
			t.Fatal(err)
		}
		var rows []relation.Tuple
		for r := 0; r < 8+rng.Intn(20); r++ {
			tup := make(relation.Tuple, cols)
			for c := range tup {
				tup[c] = relation.NewInt(rng.Int63n(5))
			}
			rows = append(rows, tup)
		}
		if err := w.LoadBase(name, rows); err != nil {
			t.Fatal(err)
		}
		all = append(all, viewInfo{name, schema})
		prev = append(prev, viewInfo{name, schema})
	}

	levels := 1 + rng.Intn(4)
	id := 0
	for level := 1; level <= levels; level++ {
		var cur []viewInfo
		for k := 0; k < 1+rng.Intn(2); k++ {
			refs := []viewInfo{prev[rng.Intn(len(prev))]}
			if rng.Intn(2) == 0 {
				other := all[rng.Intn(len(all))]
				if other.name != refs[0].name {
					refs = append(refs, other)
				}
			}
			b := algebra.NewBuilder()
			var aliases []string
			for r, child := range refs {
				alias := fmt.Sprintf("t%d", r)
				b.From(alias, child.name, child.schema)
				aliases = append(aliases, alias)
			}
			randCol := func(r int) string {
				return aliases[r] + "." + refs[r].schema[rng.Intn(len(refs[r].schema))].Name
			}
			for r := 1; r < len(refs); r++ {
				b.Join(randCol(r-1), randCol(r))
			}
			if rng.Intn(3) == 0 {
				b.Where(&algebra.Binary{
					Op: algebra.OpLe,
					L:  b.Col(randCol(0)),
					R:  &algebra.Const{Value: relation.NewInt(rng.Int63n(5) + 1)},
				})
			}
			if rng.Intn(2) == 0 {
				b.GroupByCol(randCol(0), "g")
				b.Agg("s", delta.AggSum, b.Col(randCol(len(refs)-1)))
				b.Agg("n", delta.AggCount, nil)
			} else {
				b.SelectCol(randCol(0), "p0")
				b.SelectCol(randCol(len(refs)-1), "p1")
			}
			def, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("D%d", id)
			id++
			if err := w.DefineDerived(name, def); err != nil {
				t.Fatal(err)
			}
			cur = append(cur, viewInfo{name, def.OutputSchema()})
			all = append(all, viewInfo{name, def.OutputSchema()})
		}
		prev = cur
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	return w
}

// stageDiffChanges stages a change batch on every base view: inserts only,
// deletes only, or mixed.
func stageDiffChanges(t *testing.T, w *core.Warehouse, rng *rand.Rand) {
	t.Helper()
	kind := rng.Intn(3)
	for _, name := range w.ViewNames() {
		v := w.MustView(name)
		if !v.IsBase() {
			continue
		}
		d := delta.New(v.Schema())
		if kind != 0 {
			for _, r := range v.SortedRows() {
				if rng.Intn(4) == 0 {
					n := int64(1)
					if r.Count > 1 && rng.Intn(2) == 0 {
						n = r.Count
					}
					d.Add(r.Tuple, -n)
				}
			}
		}
		if kind != 1 {
			for i := 0; i < 1+rng.Intn(5); i++ {
				tup := make(relation.Tuple, len(v.Schema()))
				for c := range tup {
					tup[c] = relation.NewInt(rng.Int63n(5))
				}
				d.Add(tup, 1)
			}
		}
		if err := w.StageDelta(name, d); err != nil {
			t.Fatal(err)
		}
	}
}

// viewBags snapshots every view's sorted (tuple, count) bag.
func viewBags(w *core.Warehouse) map[string][]string {
	bags := make(map[string][]string)
	for _, v := range w.ViewNames() {
		for _, r := range w.MustView(v).SortedRows() {
			bags[v] = append(bags[v], fmt.Sprintf("%v x%d", r.Tuple, r.Count))
		}
	}
	return bags
}

func compareBags(t *testing.T, trial int, name string, ref, got map[string][]string) {
	t.Helper()
	for v := range ref {
		a, b := ref[v], got[v]
		if len(a) != len(b) {
			t.Fatalf("trial %d %s: %s has %d rows, reference %d", trial, name, v, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d %s: %s row %d: %s vs reference %s", trial, name, v, i, b[i], a[i])
			}
		}
	}
}

// instDigestsOf extracts the last journal window's Inst-step digests by
// strategy index.
func instDigestsOf(t *testing.T, buf *bytes.Buffer) map[int]uint64 {
	t.Helper()
	lg := readLog(t, buf)
	if len(lg.Windows) == 0 {
		t.Fatal("journal has no windows")
	}
	wl := lg.Windows[len(lg.Windows)-1]
	out := make(map[int]uint64)
	for _, sr := range wl.Steps {
		out[sr.Index] = sr.Digest
	}
	return out
}

// TestCrashRecoveryDifferential is the harness entry point.
func TestCrashRecoveryDifferential(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 12
	}
	// Legs are mode × sharing; scheduler workers and the term engine's width
	// are drawn per leg. (The "term-parallel" leg — sequential scheduling
	// with ParallelTerms — went with the second evaluator it selected: width
	// is now a number every leg draws, and the "sequential" leg covers that
	// combination whenever it draws a width above 1.)
	modes := []struct {
		name  string
		mode  exec.Mode
		share bool
	}{
		{"sequential", exec.ModeSequential, false},
		{"staged", exec.ModeStaged, false},
		{"dag", exec.ModeDAG, false},
		// Window-wide shared computation: crashes must not leak the window's
		// build cache, and a sharing-off recovery of a sharing-on window must
		// replay to identical digests (sharing elides scans, not results).
		{"shared", exec.ModeSequential, true},
		{"shared-dag", exec.ModeDAG, true},
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(20260806 + trial)
		rng := rand.New(rand.NewSource(seed))
		base := diffWarehouse(t, rng)
		var snap bytes.Buffer
		if err := snapshot.Write(base, &snap); err != nil {
			t.Fatal(err)
		}
		stageDiffChanges(t, base, rng)

		g, err := exec.Graph(base)
		if err != nil {
			t.Fatal(err)
		}
		var s strategy.Strategy
		if trial%2 == 0 {
			s = strategy.DualStageVDAG(g)
		} else {
			stats, err := exec.PlanningStats(base)
			if err != nil {
				t.Fatal(err)
			}
			mw, err := planner.MinWork(g, stats)
			if err != nil {
				t.Fatalf("trial %d (%s): %v", trial, g, err)
			}
			s = mw.Strategy
		}
		skipEmpty := rng.Intn(2) == 0
		rng.Intn(3) // the draw of an option since retired; kept so that every trial stays the trial it was

		for mi, m := range modes {
			width := 1 + rng.Intn(4)
			co := core.Options{
				SkipEmptyDeltas: skipEmpty, ShareComputation: m.share,
				ParallelTerms: width > 1, Workers: width,
			}
			workers := 1 + rng.Intn(4)

			// Reference: the same window, journaled, uninterrupted.
			refW := base.Clone()
			refW.SetOptions(co)
			var refJ bytes.Buffer
			refRes, err := Run(refW, s, Options{
				Journal: journal.NewWriter(&refJ), Seq: trial, Mode: m.mode,
				Workers: workers, Validate: true,
			})
			if err != nil {
				t.Fatalf("trial %d %s reference: %v\nstrategy: %s", trial, m.name, err, s)
			}
			ref := viewBags(refRes.Core)
			refDigests := instDigestsOf(t, &refJ)

			// Crashed run: die at a random step; one in three deaths is a
			// panic that must not take the process down with it.
			crashW := base.Clone()
			crashW.SetOptions(co)
			inj := faults.New(seed + int64(mi))
			crashStep := 1 + rng.Intn(len(s))
			if trial%3 == 0 {
				inj.PanicCrashAt("step", crashStep)
			} else {
				inj.CrashAt("step", crashStep)
			}
			var jbuf bytes.Buffer
			_, err = Run(crashW, s, Options{
				Journal: journal.NewWriter(&jbuf), Seq: trial, Mode: m.mode,
				Workers: workers, Validate: true, Faults: inj,
			})
			if err == nil {
				t.Fatalf("trial %d %s: crash at step %d did not fire", trial, m.name, crashStep)
			}
			lg := readLog(t, &jbuf)
			if lg.InFlight() == nil {
				t.Fatalf("trial %d %s: crashed journal not in-flight", trial, m.name)
			}

			// Restart: rebuild the catalog from the trial seed, restore the
			// pre-window snapshot, recover the in-flight window.
			w2 := diffWarehouse(t, rand.New(rand.NewSource(seed)))
			if err := snapshot.Read(w2, bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("trial %d %s: restoring snapshot: %v", trial, m.name, err)
			}
			res, err := Recover(w2, &lg, Options{Journal: journal.NewWriter(&jbuf)})
			if err != nil {
				t.Fatalf("trial %d %s: recovery after crash at step %d: %v\nstrategy: %s",
					trial, m.name, crashStep, err, s)
			}
			compareBags(t, trial, "recovered "+m.name, ref, viewBags(res.Core))
			if err := res.Core.VerifyAll(); err != nil {
				t.Fatalf("trial %d %s: recovered warehouse inconsistent: %v", trial, m.name, err)
			}

			// The completed journal holds the window exactly once, with
			// every step present once and Inst digests identical to the
			// uninterrupted run's.
			final := readLog(t, &jbuf)
			if final.InFlight() != nil || final.CommittedCount() != 1 {
				t.Fatalf("trial %d %s: journal not completed: inflight=%v committed=%d",
					trial, m.name, final.InFlight() != nil, final.CommittedCount())
			}
			gotDigests := instDigestsOf(t, &jbuf)
			if len(gotDigests) != len(s) {
				t.Fatalf("trial %d %s: completed window has %d steps, strategy %d",
					trial, m.name, len(gotDigests), len(s))
			}
			for idx, want := range refDigests {
				if gotDigests[idx] != want {
					t.Fatalf("trial %d %s: step %d installed-delta digest %016x, uninterrupted run %016x",
						trial, m.name, idx, gotDigests[idx], want)
				}
			}
		}
	}
}
