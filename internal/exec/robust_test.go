package exec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/faults"
	"repro/internal/relation"
	"repro/internal/strategy"
)

// bombExpr is a boolean operator that, once armed, panics with err on every
// Eval — an injected misbehaving operator for the worker panic-recovery
// tests. It stays inert during setup (initial view refresh).
type bombExpr struct {
	armed atomic.Bool
	err   error
}

func (b *bombExpr) Eval(relation.Tuple) relation.Value {
	if b.armed.Load() {
		panic(b.err)
	}
	return relation.NewBool(true)
}
func (b *bombExpr) Kind() relation.Kind     { return relation.KindBool }
func (b *bombExpr) Columns(dst []int) []int { return dst }
func (b *bombExpr) String() string          { return "bomb()" }

// newBombSetup builds base R, derived V = σ_bomb(R) with staged changes,
// and the strategy C(V,{R}); I(V); I(R).
func newBombSetup(t *testing.T, bomb algebra.Expr) (*core.Warehouse, strategy.Strategy) {
	t.Helper()
	w := core.New(core.Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	v := parseSQL(t, w, "SELECT r.a, r.b FROM R r")
	if bomb != nil {
		v.Filters = append(v.Filters, bomb)
	}
	if err := w.DefineDerived("V", v); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("R", []relation.Tuple{intRow(1, 10), intRow(2, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	d := delta.New(schemaR)
	d.Add(intRow(3, 30), 1)
	d.Add(intRow(4, 40), 1)
	if err := w.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	s := strategy.Strategy{
		strategy.Comp{View: "V", Over: []string{"R"}},
		strategy.Inst{View: "V"},
		strategy.Inst{View: "R"},
	}
	return w, s
}

// TestWorkerPanicBecomesError: a panicking operator inside any execution
// mode's worker surfaces as an error naming the expression, with the panic
// value's identity intact — never as a process crash.
func TestWorkerPanicBecomesError(t *testing.T) {
	for _, mode := range allModes {
		t.Run(string(mode), func(t *testing.T) {
			boom := errors.New("boom")
			bomb := &bombExpr{err: boom}
			w, s := newBombSetup(t, bomb)
			bomb.armed.Store(true)
			_, err := Execute(w, s, Options{Mode: mode, Workers: 4, Validate: true})
			if err == nil {
				t.Fatal("panicking operator did not fail the run")
			}
			if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "Comp(V") {
				t.Fatalf("error lacks panic/expression context: %v", err)
			}
			if !errors.Is(err, boom) {
				t.Fatalf("panic value identity lost: %v", err)
			}
		})
	}
}

// TestInjectedStepFaults: faults wired through Options fire at step
// boundaries in every mode, including panic-flavoured ones, and stay
// recognizable through the scheduler's wrapping.
func TestInjectedStepFaults(t *testing.T) {
	for _, mode := range allModes {
		t.Run(string(mode)+"/fail", func(t *testing.T) {
			w, s := newBombSetup(t, nil)
			inj := faults.New(1)
			inj.FailAt("step", 2)
			_, err := Execute(w, s, Options{Mode: mode, Workers: 4, Validate: true, Faults: inj})
			var f *faults.Fault
			if !errors.As(err, &f) {
				t.Fatalf("injected fault not surfaced: %v", err)
			}
			if f.Point != "step" || f.Hit != 2 {
				t.Fatalf("wrong fault surfaced: %+v", f)
			}
		})
		t.Run(string(mode)+"/panic", func(t *testing.T) {
			w, s := newBombSetup(t, nil)
			inj := faults.New(1)
			inj.PanicAt("step", 1)
			_, err := Execute(w, s, Options{Mode: mode, Workers: 4, Validate: true, Faults: inj})
			var f *faults.Fault
			if !errors.As(err, &f) {
				t.Fatalf("injected panic not surfaced as fault: %v", err)
			}
			if !f.Panicked {
				t.Fatalf("fault lost its panic flavour: %+v", f)
			}
		})
	}
}

// TestOnStepNotification: OnStep sees every completed step exactly once
// with its strategy index, in every mode; an OnStep error fails the window.
func TestOnStepNotification(t *testing.T) {
	for _, mode := range allModes {
		t.Run(string(mode), func(t *testing.T) {
			w, s := newBombSetup(t, nil)
			var mu sync.Mutex
			seen := make(map[int]string)
			_, err := Execute(w, s, Options{Mode: mode,
				Workers: 4, Validate: true,
				OnStep: func(idx int, step StepReport) error {
					mu.Lock()
					seen[idx] = step.Expr.Key()
					mu.Unlock()
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != len(s) {
				t.Fatalf("OnStep saw %d steps, want %d: %v", len(seen), len(s), seen)
			}
			for idx, key := range seen {
				if s[idx].Key() != key {
					t.Fatalf("step %d reported as %s, strategy has %s", idx, key, s[idx].Key())
				}
			}
		})
		t.Run(string(mode)+"/error", func(t *testing.T) {
			w, s := newBombSetup(t, nil)
			boom := errors.New("journal full")
			_, err := Execute(w, s, Options{Mode: mode,
				Workers: 4, Validate: true,
				OnStep: func(idx int, step StepReport) error { return boom },
			})
			if !errors.Is(err, boom) {
				t.Fatalf("OnStep error did not fail the run: %v", err)
			}
		})
	}
}

// TestCancelledContextStopsModes: a pre-cancelled context stops every mode
// before it mutates the warehouse.
func TestCancelledContextStopsModes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range allModes {
		t.Run(string(mode), func(t *testing.T) {
			w, s := newBombSetup(t, nil)
			rep, err := Execute(w, s, Options{Mode: mode, Workers: 4, Validate: true, Context: ctx})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if len(rep.Steps) != 0 {
				t.Fatalf("%d steps ran under a cancelled context", len(rep.Steps))
			}
		})
	}
}
