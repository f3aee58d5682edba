package warehouse

// Bounded-memory differential harness: for seeded random warehouses and
// change batches, the same window is run unbounded, at a 1 MiB budget, and
// at a 1-byte budget (everything spills). All three must produce identical
// bags in every view and identical installed-delta digests step for step —
// spilling changes bytes moved, never results. The starved leg must actually
// spill somewhere across the run, and somewhere in a Comp that also probes a
// resident join index — a spilled step's passes repeat the index steps of
// its pipeline — or the harness proved nothing. The random catalogs' joins
// have two operands, so a last trial runs the fixture of
// sharing_facade_test.go, whose terms join a delta, an aggregate store (the
// build that spills) and a plain table (the index step).

import (
	"fmt"
	"math/rand"
	"testing"
)

// instDigests keys each step's installed-delta digest by its expression.
func instDigests(rep WindowReport) map[string]uint64 {
	out := make(map[string]uint64)
	for _, step := range rep.Report.Steps {
		if step.Skipped {
			continue
		}
		out[fmt.Sprintf("%v", step.Expr)] = step.Digest
	}
	return out
}

func digestsMatch(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// trialCatalog returns the warehouse of one trial of the harnesses below,
// the function that stages its next change batch, and the trial's random
// source: the seeded random catalog for trial < trials, and after them the
// sibling-view fixture of sharing_facade_test.go, whose terms join a delta,
// an aggregate store and a plain table.
func trialCatalog(t *testing.T, trial, trials int, seedMul int64) (*Warehouse, func(), *rand.Rand) {
	catalogSeed := int64(99105 + trial)
	rng := rand.New(rand.NewSource(catalogSeed * seedMul))
	if trial == trials {
		ref := newSharingWarehouse(t, Options{})
		return ref, func() { stageSharingDelta(t, ref) }, rng
	}
	ref := buildOnline(t, catalogSeed)
	return ref, func() { stageOnline(t, ref, rng) }, rng
}

func TestBoundedMemoryDifferential(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	const windowsPer = 5
	modes := []Mode{ModeSequential, ModeStaged, ModeDAG}
	legs := []struct {
		name   string
		budget int64
	}{
		{"1MiB", 1 << 20},
		{"starved", 1}, // the "0 budget" leg: nothing fits, every build spills
	}

	// Seed base chosen so the generated catalogs include join views in most
	// trials (including both -short trials): join-free catalogs build no
	// hash state and cannot spill, and a harness that never spills proves
	// nothing. The two join-free seeds in range stay as controls.
	var starvedSpills, spillsBesideProbes int
	for trial := 0; trial <= trials; trial++ {
		ref, stage, rng := trialCatalog(t, trial, trials, 13)

		for win := 0; win < windowsPer; win++ {
			stage()
			mode := modes[win%len(modes)]
			opts := WindowOptions{Mode: mode, Workers: 1 + rng.Intn(4)}

			// Budgeted legs run the identical window on clones of the staged
			// warehouse, then the unbounded reference commits.
			clones := make([]*Warehouse, len(legs))
			for i, leg := range legs {
				clones[i] = ref.Clone()
				clones[i].SetMemoryBudget(leg.budget)
			}
			refRep, err := ref.RunWindowOpts(opts)
			if err != nil {
				t.Fatalf("trial %d win %d: unbounded window: %v", trial, win, err)
			}
			refBags, _ := snapshotBags(t, ref)
			refDigests := instDigests(refRep)

			for i, leg := range legs {
				rep, err := clones[i].RunWindowOpts(opts)
				if err != nil {
					t.Fatalf("trial %d win %d leg %s: %v", trial, win, leg.name, err)
				}
				bags, _ := snapshotBags(t, clones[i])
				if !bagsEqual(bags, refBags) {
					t.Fatalf("trial %d win %d leg %s: bags diverge from unbounded run", trial, win, leg.name)
				}
				if got := instDigests(rep); !digestsMatch(got, refDigests) {
					t.Fatalf("trial %d win %d leg %s: installed-delta digests diverge:\n got %v\nwant %v",
						trial, win, leg.name, got, refDigests)
				}
				if err := clones[i].Verify(); err != nil {
					t.Fatalf("trial %d win %d leg %s: %v", trial, win, leg.name, err)
				}
				if leg.budget == 1 {
					starvedSpills += rep.Counters().SpillCount
					for _, step := range rep.Report.Steps {
						if step.SpillCount > 0 && step.IndexProbes > 0 {
							spillsBesideProbes++
						}
					}
				}
			}
		}
	}
	if starvedSpills == 0 || spillsBesideProbes == 0 {
		t.Fatalf("the starved leg spilled %d builds, in %d steps that also probed an index: the harness exercised nothing", starvedSpills, spillsBesideProbes)
	}
}

// TestSharingOnOffDifferential is the sharing-on leg of the differential
// harness: for seeded random warehouses, every window is planned by the
// sharing-aware search (SharedPlanner) at a tiny 1 MiB shared budget and run
// twice from identical clones — the build cache kept per Comp (sharing off)
// and for the window (sharing on). Both legs execute the same strategy, so
// their installed-delta digests and OperandTuples work must be identical and
// their bags must match the reference warehouse's committed state: sharing
// elides physical scans, never results or the metric. Every scheduling mode
// is exercised, at term engine width 1 and 2 on alternating windows, and the
// sharing leg must actually register hits somewhere across the run: the last
// trial runs the sibling-view fixture of sharing_facade_test.go, whose every
// Comp hashes the same aggregate store, because the random catalogs join
// mostly plain tables, which are read through resident indexes and build
// nothing. (The fourth, "termparallel" configuration — sequential scheduling
// with ParallelTerms — selected the second evaluator; the alternating width
// covers it on the sequential leg of every other trial.)
func TestSharingOnOffDifferential(t *testing.T) {
	trials := 4
	if testing.Short() {
		trials = 2
	}
	cfgs := []struct {
		name    string
		mode    Mode
		workers int
	}{
		{"sequential", ModeSequential, 0},
		{"staged", ModeStaged, 2},
		{"dag", ModeDAG, 3},
	}
	const budget = 1 << 20

	var sharedHits int
	var tuplesSaved int64
	for trial := 0; trial <= trials; trial++ {
		ref, stage, _ := trialCatalog(t, trial, trials, 29)

		for win, cfg := range cfgs {
			stage()
			opts := WindowOptions{Planner: SharedPlanner, Mode: cfg.mode, Workers: cfg.workers}

			legOff, legOn := ref.Clone(), ref.Clone()
			legOff.SetSharing(false, budget)
			legOn.SetSharing(true, budget)
			if (trial+win)%2 == 1 {
				legOff.SetParallelism(2, true)
				legOn.SetParallelism(2, true)
			}
			offRep, err := legOff.RunWindowOpts(opts)
			if err != nil {
				t.Fatalf("trial %d win %d %s: share-off leg: %v", trial, win, cfg.name, err)
			}
			onRep, err := legOn.RunWindowOpts(opts)
			if err != nil {
				t.Fatalf("trial %d win %d %s: share-on leg: %v", trial, win, cfg.name, err)
			}

			// Identical strategy, identical modeled work: OperandTuples counts
			// an operand once per term whether or not its build was shared.
			if off, on := offRep.Report.TotalWork(), onRep.Report.TotalWork(); off != on {
				t.Fatalf("trial %d win %d %s: work moved under sharing: %d vs %d",
					trial, win, cfg.name, on, off)
			}
			if got, want := instDigests(onRep), instDigests(offRep); !digestsMatch(got, want) {
				t.Fatalf("trial %d win %d %s: installed-delta digests diverge:\n got %v\nwant %v",
					trial, win, cfg.name, got, want)
			}

			// The reference commits the same batch through the default planner;
			// every leg's final state must match it bag for bag.
			if _, err := ref.RunWindowOpts(WindowOptions{Mode: cfg.mode, Workers: cfg.workers}); err != nil {
				t.Fatalf("trial %d win %d %s: reference window: %v", trial, win, cfg.name, err)
			}
			refBags, _ := snapshotBags(t, ref)
			for leg, w := range map[string]*Warehouse{"share-off": legOff, "share-on": legOn} {
				bags, _ := snapshotBags(t, w)
				if !bagsEqual(bags, refBags) {
					t.Fatalf("trial %d win %d %s leg %s: bags diverge from reference commit",
						trial, win, cfg.name, leg)
				}
				if err := w.Verify(); err != nil {
					t.Fatalf("trial %d win %d %s leg %s: %v", trial, win, cfg.name, leg, err)
				}
			}
			for _, step := range onRep.Report.Steps {
				sharedHits += step.SharedHits
				tuplesSaved += step.SharedTuplesSaved
			}
		}
	}
	if sharedHits == 0 || tuplesSaved == 0 {
		t.Fatalf("the sharing leg never shared (hits=%d saved=%d): the harness exercised nothing",
			sharedHits, tuplesSaved)
	}
}
