package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/faults"
	"repro/internal/strategy"
)

var allModes = []Mode{ModeSequential, ModeStaged, ModeDAG}

// TestModesAgree: sequential, staged and DAG scheduling, at several pool
// sizes, leave identical states, report identical per-step work in strategy
// order, and report consistent metrics computed from the same measured run.
func TestModesAgree(t *testing.T) {
	base := newForkWarehouse(t)
	stageForkChanges(t, base)
	s := forkDualStage(base)

	var ref Report
	var refRows string
	for _, mode := range allModes {
		for _, workers := range []int{0, 1, 2, 4, 8} {
			name := fmt.Sprintf("%s/workers=%d", mode, workers)
			w := base.Clone()
			rep, err := Execute(w, s, Options{Mode: mode, Workers: workers, Validate: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := w.VerifyAll(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var sig strings.Builder
			for _, v := range []string{"R", "S", "J1", "J2"} {
				for _, r := range w.MustView(v).SortedRows() {
					fmt.Fprintf(&sig, "%s:%s*%d;", v, r.Tuple, r.Count)
				}
			}
			if refRows == "" {
				ref, refRows = rep, sig.String()
			}
			if sig.String() != refRows {
				t.Fatalf("%s: final state differs from sequential", name)
			}
			if len(rep.Steps) != len(s) {
				t.Fatalf("%s: %d steps reported, want %d", name, len(rep.Steps), len(s))
			}
			for i, step := range rep.Steps {
				if step.Expr.Key() != s[i].Key() || step.Work != ref.Steps[i].Work {
					t.Errorf("%s: step %d is %s work %d, sequential ran %s work %d",
						name, i, step.Expr, step.Work, ref.Steps[i].Expr, ref.Steps[i].Work)
				}
				if step.Elapsed <= 0 {
					t.Errorf("%s: %s has zero Elapsed", name, step.Expr)
				}
				if step.Worker < 0 || step.Worker >= rep.Sched.Workers {
					t.Errorf("%s: %s ran on worker %d of %d", name, step.Expr, step.Worker, rep.Sched.Workers)
				}
			}
			sc := rep.Sched
			if sc.Mode != mode || sc.TotalWork != rep.TotalWork() || sc.TotalWork != ref.TotalWork() {
				t.Errorf("%s: schedule %+v, report work %d, sequential %d", name, sc, rep.TotalWork(), ref.TotalWork())
			}
			if sc.CriticalPathWork <= 0 || sc.CriticalPathWork > sc.SpanWork || sc.SpanWork > sc.TotalWork {
				t.Errorf("%s: want 0 < critical path %d ≤ span %d ≤ total %d",
					name, sc.CriticalPathWork, sc.SpanWork, sc.TotalWork)
			}
			if sc.Speedup() < 1 || sc.Elapsed <= 0 || rep.Elapsed != sc.Elapsed {
				t.Errorf("%s: speedup %v elapsed %v/%v", name, sc.Speedup(), sc.Elapsed, rep.Elapsed)
			}
			switch {
			case mode == ModeSequential && sc.Workers != 1:
				t.Errorf("%s: sequential ran %d workers", name, sc.Workers)
			case mode == ModeStaged && sc.Workers != 4:
				t.Errorf("%s: staged ran %d workers, widest stage has 4", name, sc.Workers)
			case mode == ModeDAG && workers > 0 && sc.Workers > workers:
				t.Errorf("%s: pool reported %d workers, bound was %d", name, sc.Workers, workers)
			}
		}
	}
}

// TestStagedHoldsLevelsBack pins what distinguishes the two concurrent
// modes of the one scheduler. In forkDualStage, Inst(J2) waits only for
// Comp(J2,{R}) but sits one level above the slower Comp(J1,{R,S}). DAG mode
// must run it while Comp(J1,…) is still in flight — here Comp(J1,…)'s OnStep
// refuses to return until Inst(J2) has completed — and staged mode must not:
// its completions come level by level even when Comp(J1,…) dawdles.
func TestStagedHoldsLevelsBack(t *testing.T) {
	slow := strategy.Comp{View: "J1", Over: []string{"R", "S"}}.Key()
	fast := strategy.Inst{View: "J2"}.Key()

	t.Run("dag", func(t *testing.T) {
		w := newForkWarehouse(t)
		stageForkChanges(t, w)
		fastDone := make(chan struct{})
		_, err := Execute(w, forkDualStage(w), Options{Mode: ModeDAG, Workers: 2, OnStep: func(_ int, step StepReport) error {
			switch step.Expr.Key() {
			case fast:
				close(fastDone)
			case slow:
				select {
				case <-fastDone:
				case <-time.After(10 * time.Second):
					return errors.New("Inst(J2) was held back behind Comp(J1,{R,S}): DAG mode ran a barrier")
				}
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("staged", func(t *testing.T) {
		w := newForkWarehouse(t)
		stageForkChanges(t, w)
		var mu sync.Mutex
		var levels []int
		rep, err := Execute(w, forkDualStage(w), Options{Mode: ModeStaged, OnStep: func(_ int, step StepReport) error {
			if step.Expr.Key() == slow {
				time.Sleep(20 * time.Millisecond) // give a leaky barrier time to show
			}
			mu.Lock()
			levels = append(levels, step.Level)
			mu.Unlock()
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if len(levels) != len(rep.Steps) || rep.Sched.Levels != 2 {
			t.Fatalf("saw %d completions of %d steps in %d levels", len(levels), len(rep.Steps), rep.Sched.Levels)
		}
		for i := 1; i < len(levels); i++ {
			if levels[i] < levels[i-1] {
				t.Fatalf("completion order by level %v: a level-%d step finished after a level-%d one", levels, levels[i], levels[i-1])
			}
		}
	})
}

// failingStrategy puts one mid-DAG failure (Comp on a base view is rejected
// by the engine) among healthy expressions.
func failingStrategy() strategy.Strategy {
	return strategy.Strategy{
		strategy.Comp{View: "J1", Over: []string{"R"}},
		strategy.Comp{View: "R", Over: []string{"R"}}, // fails: R is base
		strategy.Comp{View: "J2", Over: []string{"R"}},
		strategy.Inst{View: "R"},
		strategy.Comp{View: "J1", Over: []string{"S"}},
		strategy.Inst{View: "S"},
		strategy.Inst{View: "J1"}, strategy.Inst{View: "J2"},
	}
}

// TestErrorDeterministic: a Comp failing mid-strategy cancels scheduling and
// the same error comes back on every run, across modes, repeated trials and
// pool sizes; the report holds only steps that completed.
func TestErrorDeterministic(t *testing.T) {
	for _, mode := range allModes {
		for trial := 0; trial < 30; trial++ {
			w := newForkWarehouse(t)
			stageForkChanges(t, w)
			rep, err := Execute(w, failingStrategy(), Options{Mode: mode, Workers: 1 + trial%4})
			if err == nil {
				t.Fatal("failing strategy executed without error")
			}
			if !strings.Contains(err.Error(), "Comp(R, {R})") {
				t.Fatalf("%s trial %d: first error not deterministic: %v", mode, trial, err)
			}
			if len(rep.Steps) >= len(failingStrategy()) {
				t.Fatalf("%s trial %d: %d steps reported for a failed run", mode, trial, len(rep.Steps))
			}
		}
	}
}

// TestFirstErrorSmallestIndex: when several expressions fail in one run, the
// error reported is the one earliest in strategy order (the tie-break that
// makes concurrent failures deterministic).
func TestFirstErrorSmallestIndex(t *testing.T) {
	s := strategy.Strategy{
		strategy.Comp{View: "R", Over: []string{"R"}}, // fails first in order
		strategy.Comp{View: "S", Over: []string{"S"}}, // also fails
		strategy.Inst{View: "R"}, strategy.Inst{View: "S"},
	}
	for trial := 0; trial < 20; trial++ {
		w := newForkWarehouse(t)
		stageForkChanges(t, w)
		// One worker takes the lowest ready index, so the run itself is
		// deterministic and both failures race only in index.
		_, err := Execute(w, s, Options{Mode: ModeDAG, Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "Comp(R, {R})") {
			t.Fatalf("trial %d: err = %v, want Comp(R, {R}) failure", trial, err)
		}
	}
}

// TestSiblingCancellationDoesNotOutrankItsCause: a step that fails cancels the
// steps running beside it, and one of those may come earlier in the strategy.
// The run reports the failure — here a transient fault, which the recovery
// ladder retries in place — and never the cancellation it caused. The delta
// on R is large enough that Comp(J1, {R}), first in the strategy, is usually
// still probing when the second step to start fails.
func TestSiblingCancellationDoesNotOutrankItsCause(t *testing.T) {
	for _, mode := range []Mode{ModeStaged, ModeDAG} {
		for trial := 0; trial < 4; trial++ {
			w := newForkWarehouse(t)
			dR := delta.New(schemaR)
			for i := int64(0); i < 30000; i++ {
				dR.Add(intRow(100+i, 10+10*(i%2)), 1)
			}
			if err := w.StageDelta("R", dR); err != nil {
				t.Fatal(err)
			}
			inj := faults.New(1)
			inj.FailAt("step", 2)
			_, err := Execute(w, forkDualStage(w), Options{Mode: mode, Workers: 2, Faults: inj})
			if !faults.IsTransient(err) {
				t.Fatalf("%s trial %d: the run reports %v, not the transient fault that stopped it", mode, trial, err)
			}
		}
	}
}

// TestNoGoroutineLeak: after many failing and cancelled runs, the goroutine
// count returns to its baseline — no worker is left waiting on the ready
// set.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		mode := allModes[1+i%2]
		w := newForkWarehouse(t)
		stageForkChanges(t, w)
		if _, err := Execute(w, failingStrategy(), Options{Mode: mode, Workers: 4}); err == nil {
			t.Fatal("expected error")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		w2 := newForkWarehouse(t)
		stageForkChanges(t, w2)
		if _, err := Execute(w2, forkDualStage(w2), Options{Mode: mode, Workers: 4, Context: ctx}); err == nil {
			t.Fatal("cancelled run reported success")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // give exited goroutines a chance to be reaped
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestValidateRejects: Execute refuses an incorrect strategy, and an unknown
// mode, before touching the warehouse.
func TestValidateRejects(t *testing.T) {
	w := newForkWarehouse(t)
	stageForkChanges(t, w)
	// Install(R) before Comp(J1,{R}) violates C3: the comp reads δR after
	// it was folded in.
	bad := strategy.Strategy{
		strategy.Inst{View: "R"},
		strategy.Comp{View: "J1", Over: []string{"R"}},
		strategy.Comp{View: "J1", Over: []string{"S"}},
		strategy.Comp{View: "J2", Over: []string{"R"}},
		strategy.Inst{View: "S"},
		strategy.Inst{View: "J1"}, strategy.Inst{View: "J2"},
	}
	for _, mode := range allModes {
		if _, err := Execute(w, bad, Options{Mode: mode, Validate: true}); err == nil {
			t.Fatalf("%s: incorrect strategy accepted", mode)
		}
	}
	if _, err := Execute(w, forkDualStage(w), Options{Mode: "bogus"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if len(w.PendingViews()) != 2 {
		t.Fatalf("refused runs touched the warehouse: pending %v", w.PendingViews())
	}
}

// TestEmptyStrategy: a zero-node DAG completes trivially in every mode.
func TestEmptyStrategy(t *testing.T) {
	for _, mode := range allModes {
		w := newForkWarehouse(t)
		rep, err := Execute(w, nil, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalWork() != 0 || len(rep.Steps) != 0 || rep.Sched.Levels != 0 {
			t.Errorf("%s: empty strategy produced work: %+v", mode, rep)
		}
	}
}
