package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/relation"
)

// bombExpr is a boolean operator that panics with err once its Eval count
// exceeds after — an injected misbehaving operator for the panic-recovery
// tests.
type bombExpr struct {
	calls int64
	after int64
	err   error
}

func (b *bombExpr) Eval(relation.Tuple) relation.Value {
	if b.calls++; b.calls > b.after {
		panic(b.err)
	}
	return relation.NewBool(true)
}
func (b *bombExpr) Kind() relation.Kind     { return relation.KindBool }
func (b *bombExpr) Columns(dst []int) []int { return dst }
func (b *bombExpr) String() string          { return "bomb()" }

// newBombWarehouse builds base R and derived V = σ_bomb(R), loading nRows
// rows into R and staging nRows delta rows so δR drives the maintenance
// term.
func newBombWarehouse(t *testing.T, bomb *bombExpr, nRows int) *Warehouse {
	t.Helper()
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	v := parseSQL(t, w, "SELECT r.a, r.b FROM R r")
	v.Filters = append(v.Filters, bomb)
	if err := w.DefineDerived("V", v); err != nil {
		t.Fatal(err)
	}
	rows := make([]relation.Tuple, nRows)
	d := delta.New(schemaR)
	for i := range rows {
		rows[i] = intRow(int64(i), int64(i%7))
		d.Add(intRow(int64(nRows+i), int64(i%7)), 1)
	}
	if err := w.LoadBase("R", rows); err != nil {
		t.Fatal(err)
	}
	if err := w.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestOperatorPanicBecomesError: an operator that panics fails each way into
// the term engine — Compute, and Recompute and Evaluate, which no window step
// guards — with an error that names the panic and keeps its value's
// identity.
func TestOperatorPanicBecomesError(t *testing.T) {
	boom := errors.New("boom")
	w := newBombWarehouse(t, &bombExpr{err: boom}, 10)
	def := w.MustView("V").Def()
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Compute", func() error { _, err := w.ComputeCtx(nil, "V", []string{"R"}); return err }},
		{"Recompute", func() error { _, err := w.Recompute("V"); return err }},
		{"Evaluate", func() error { _, err := w.Evaluate(def); return err }},
	} {
		err := tc.run()
		if err == nil {
			t.Fatalf("%s: a panicking operator did not fail it", tc.name)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: the error does not mention the panic: %v", tc.name, err)
		}
		if !errors.Is(err, boom) {
			t.Errorf("%s: panic value identity lost: %v", tc.name, err)
		}
	}
}

func TestComputeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := newBombWarehouse(t, &bombExpr{after: 1 << 40}, 10)
	if _, err := w.ComputeCtx(ctx, "V", []string{"R"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// pastDeadline is a context whose deadline has passed while the runtime's
// timer has not cancelled it yet: Err is still nil.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Second), true }

// TestComputeStopsAtAPassedDeadline: the term loop asks ContextErr, so a
// context past its deadline stops a multi-term Comp before its first term,
// even while its Err is still nil.
func TestComputeStopsAtAPassedDeadline(t *testing.T) {
	w := newThreeWayWarehouse(t, Options{})
	stageRandomChanges(t, w, rand.New(rand.NewSource(7)))
	rep, err := w.ComputeCtx(pastDeadline{context.Background()}, "V3", []string{"R", "S", "T"})
	if !errors.Is(err, context.DeadlineExceeded) || rep.Terms != 0 || rep.OperandTuples != 0 {
		t.Fatalf("a Comp past its deadline ran %d terms (%d tuples), err %v", rep.Terms, rep.OperandTuples, err)
	}
}

// scanBomb is an operand whose scan panics: a build side that fails while
// the run's cache makes it.
type scanBomb struct{ err error }

func (scanBomb) Cardinality() int64                      { return 1 }
func (scanBomb) DistinctCount() int64                    { return 1 }
func (b scanBomb) Scan(func(relation.Tuple, int64) bool) { panic(b.err) }

// TestPanickingBuildFailsItsTerm: a build whose operand scan panics fails the
// term that asked for it with an error that keeps the panic's value, and the
// run's cache keeps nothing of it, so no later term probes a half-made table.
func TestPanickingBuildFailsItsTerm(t *testing.T) {
	boom := errors.New("boom")
	env := &evalEnv{cache: make(buildCache)}
	pl := &pipeline{driver: 0, steps: []joinStep{{ref: 1}}}
	ops := operands{state: []source{deltaSource{delta.New(schemaR)}, scanBomb{boom}}}
	if _, err := runTerm(3, pl, ops, 0, nil, env); !errors.Is(err, boom) || !strings.Contains(err.Error(), "term 3") {
		t.Fatalf("a panicking build returned %v", err)
	}
	if len(env.cache) != 0 || env.ctr.CacheMisses != 1 {
		t.Errorf("after the failed build the cache holds %d tables, counters %+v", len(env.cache), env.ctr)
	}
}
