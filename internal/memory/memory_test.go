package memory

import (
	"sync"
	"testing"
)

// TestBudgetReserveRelease: basic accounting — grants admit under the limit,
// deny over it, and released bytes return to the pool.
func TestBudgetReserveRelease(t *testing.T) {
	b := NewBudget(100)
	if b.Limit() != 100 {
		t.Fatalf("Limit() = %d, want 100", b.Limit())
	}
	g1, ok := b.TryReserveUnder(60, 0)
	if !ok || g1.Bytes() != 60 {
		t.Fatalf("first reservation denied (ok=%v bytes=%d)", ok, g1.Bytes())
	}
	if _, ok := b.TryReserveUnder(50, 0); ok {
		t.Fatal("60+50 admitted against a 100-byte limit")
	}
	g2, ok := b.TryReserveUnder(40, 0)
	if !ok {
		t.Fatal("60+40 denied against a 100-byte limit")
	}
	if got := b.Used(); got != 100 {
		t.Fatalf("Used() = %d, want 100", got)
	}
	g1.Release()
	if got := b.Used(); got != 40 {
		t.Fatalf("Used() after release = %d, want 40", got)
	}
	// Idempotent release: a second Release must not go negative.
	g1.Release()
	g2.Release()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used() after all releases = %d, want 0", got)
	}
	if got := b.Peak(); got != 100 {
		t.Fatalf("Peak() = %d, want 100", got)
	}
}

// TestBudgetTryReserveUnder: a caller cap below the limit gates admission,
// while Reserve ignores both and still feeds the peak.
func TestBudgetTryReserveUnder(t *testing.T) {
	b := NewBudget(100)
	if _, ok := b.TryReserveUnder(80, 75); ok {
		t.Fatal("80 admitted under a 75-byte cap")
	}
	g, ok := b.TryReserveUnder(70, 75)
	if !ok {
		t.Fatal("70 denied under a 75-byte cap")
	}
	// Forced reservation: over limit, still granted, still tracked.
	f := b.Reserve(200)
	if got := b.Used(); got != 270 {
		t.Fatalf("Used() = %d, want 270", got)
	}
	if got := b.Peak(); got != 270 {
		t.Fatalf("Peak() = %d, want 270", got)
	}
	f.Release()
	g.Release()
}

// TestBudgetUnlimited: a non-positive limit admits everything but still
// accounts usage and peak — the accounting-only mode the spill experiment's
// unbounded leg relies on.
func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(0)
	g, ok := b.TryReserveUnder(1<<40, 0)
	if !ok {
		t.Fatal("unlimited budget denied a reservation")
	}
	if b.Peak() != 1<<40 {
		t.Fatalf("peak=%d", b.Peak())
	}
	g.Release()
}

// TestBudgetNilSafe: every method on a nil *Budget (and a nil *Grant) is
// inert — the zero-configuration hook production paths rely on.
func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	g, ok := b.TryReserveUnder(10, 0)
	if !ok || g != nil {
		t.Fatalf("nil budget: TryReserveUnder = (%v, %v)", g, ok)
	}
	if b.Reserve(10) != nil {
		t.Fatal("nil budget: Reserve returned a grant")
	}
	if b.Used() != 0 || b.Peak() != 0 || b.Limit() != 0 {
		t.Fatal("nil budget accounted something")
	}
	g.Release() // nil grant
}

// TestBudgetConcurrentBalance hammers the budget from many goroutines mixing
// admitted, denied and forced reservations; when everything releases, the
// balance must be exactly zero and the peak within the forced-over-limit
// bound. Run under -race this also proves the locking discipline.
func TestBudgetConcurrentBalance(t *testing.T) {
	const (
		workers = 16
		rounds  = 500
		limit   = 1 << 20
	)
	b := NewBudget(limit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []*Grant
			for i := 0; i < rounds; i++ {
				n := int64(1 + (w*rounds+i)%4096)
				switch i % 3 {
				case 0:
					if g, ok := b.TryReserveUnder(n, 0); ok {
						held = append(held, g)
					}
				case 1:
					held = append(held, b.Reserve(n))
				default:
					if len(held) > 0 {
						held[len(held)-1].Release()
						held[len(held)-1].Release() // double release is a no-op
						held = held[:len(held)-1]
					}
				}
			}
			for _, g := range held {
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	if got := b.Used(); got != 0 {
		t.Fatalf("Used() = %d after all releases, want 0", got)
	}
	// Forced reservations can push past the limit, but the peak can never
	// exceed the sum of every reservation ever granted.
	if p := b.Peak(); p <= 0 || p > int64(workers)*rounds*4096 {
		t.Fatalf("Peak() = %d, outside (0, %d]", p, int64(workers)*rounds*4096)
	}
}
