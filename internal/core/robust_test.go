package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

// bombExpr is a boolean operator that panics with err once its Eval count
// exceeds after — an injected misbehaving operator for the panic-recovery
// tests. Eval runs concurrently under the parallel engines, hence the
// atomic counter.
type bombExpr struct {
	calls atomic.Int64
	after int64
	err   error
}

func (b *bombExpr) Eval(relation.Tuple) relation.Value {
	if b.calls.Add(1) > b.after {
		panic(b.err)
	}
	return relation.NewBool(true)
}
func (b *bombExpr) Kind() relation.Kind     { return relation.KindBool }
func (b *bombExpr) Columns(dst []int) []int { return dst }
func (b *bombExpr) String() string          { return "bomb()" }

// newBombWarehouse builds base R and derived V = σ_bomb(R), staging nRows
// delta rows so δR drives the maintenance term.
func newBombWarehouse(t *testing.T, opts Options, bomb *bombExpr, nRows int) *Warehouse {
	t.Helper()
	w := New(opts)
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	vb := algebra.NewBuilder().From("r", "R", schemaR)
	vb.Where(bomb).SelectCol("r.a").SelectCol("r.b")
	v, err := vb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("V", v); err != nil {
		t.Fatal(err)
	}
	d := delta.New(schemaR)
	for i := 0; i < nRows; i++ {
		d.Add(intRow(int64(i), int64(i%7)), 1)
	}
	if err := w.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestParallelTermPanicBecomesError(t *testing.T) {
	boom := errors.New("boom")
	bomb := &bombExpr{err: boom}
	w := newBombWarehouse(t, Options{ParallelTerms: true, Workers: 4}, bomb, 10)
	_, err := w.Compute("V", []string{"R"})
	if err == nil {
		t.Fatal("panicking operator did not fail the Compute")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error does not mention the panic: %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("panic value identity lost: %v", err)
	}
}

func TestMorselPanicBecomesError(t *testing.T) {
	boom := errors.New("boom")
	// Enough rows for several morsels; the bomb lets the first morsel's
	// rows through so the panic fires on a pooled morsel goroutine.
	bomb := &bombExpr{err: boom, after: 10}
	w := newBombWarehouse(t, Options{ParallelTerms: true, Workers: 4, morselSize: 8}, bomb, 200)
	_, err := w.Compute("V", []string{"R"})
	if err == nil {
		t.Fatal("panicking operator did not fail the Compute")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("panic value identity lost: %v", err)
	}
}

func TestComputeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []bool{false, true} {
		w := newBombWarehouse(t, Options{ParallelTerms: par, Workers: 2}, &bombExpr{after: 1 << 40}, 10)
		_, err := w.ComputeCtx(ctx, "V", []string{"R"})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: want context.Canceled, got %v", par, err)
		}
	}
}
