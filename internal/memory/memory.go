// Package memory implements the window-wide memory budget for bounded
// execution: one Budget per update window, drawn on by every allocator of
// bulk state — the builds of the term engine's cache and the loaded
// partitions of spilled ones. Consumers reserve before materializing and
// release when the state dies; a denied reservation is the signal to spill
// (Grace-style partitioned builds, see internal/core/spill.go) rather than
// an error.
//
// A nil *Budget is inert: every method is safe to call, TryReserveUnder
// always grants, and nothing is accounted — production paths carry the hook at zero
// configuration cost, exactly like a nil faults.Injector.
package memory

import "sync"

// Budget is a byte budget with reserve/release accounting. Safe for
// concurrent use: windows evaluate many Comp expressions at once and each
// fans out over terms and morsels.
type Budget struct {
	mu    sync.Mutex
	limit int64 // <= 0: unlimited (accounting only)
	used  int64
	peak  int64
}

// NewBudget creates a budget of limit bytes. A non-positive limit means
// unlimited: every reservation is granted, but usage and peak are still
// accounted (how the spill experiment measures an unbounded run's
// footprint).
func NewBudget(limit int64) *Budget {
	return &Budget{limit: limit}
}

// Limit returns the configured byte limit (<= 0: unlimited).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Grant is one outstanding reservation. Release returns the bytes to the
// budget; releasing twice — or releasing a nil grant — is a no-op, so every
// exit path can release unconditionally.
type Grant struct {
	b        *Budget
	n        int64
	released bool
}

// Bytes returns the granted size.
func (g *Grant) Bytes() int64 {
	if g == nil {
		return 0
	}
	return g.n
}

// Release returns the grant's bytes to the budget. Idempotent and nil-safe.
func (g *Grant) Release() {
	if g == nil || g.b == nil {
		return
	}
	g.b.mu.Lock()
	if !g.released {
		g.released = true
		g.b.used -= g.n
	}
	g.b.mu.Unlock()
}

// TryReserveUnder reserves n bytes iff the reservation fits a
// caller-supplied cap, returning the grant and whether it was admitted: it
// is admitted iff used+n <= cap (a non-positive cap falls back to the
// budget's limit). Callers reserve under a cap below the limit to keep
// headroom for the forced reservations of spill-partition loads. On a nil
// budget the reservation is always admitted (and never accounted). A denied
// reservation is the caller's signal to spill.
func (b *Budget) TryReserveUnder(n, cap int64) (*Grant, bool) {
	if b == nil {
		return nil, true
	}
	if cap <= 0 {
		cap = b.limit
	}
	b.mu.Lock()
	if b.limit > 0 && b.used+n > cap {
		b.mu.Unlock()
		return nil, false
	}
	g := b.grantLocked(n)
	b.mu.Unlock()
	return g, true
}

// Reserve force-reserves n bytes regardless of the limit. Used for state
// that must be resident to make progress — the one spill partition per
// spilled step a probing pass loads — and still tracked, so PeakReservedBytes
// reports what was genuinely held.
func (b *Budget) Reserve(n int64) *Grant {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	g := b.grantLocked(n)
	b.mu.Unlock()
	return g
}

// grantLocked records a successful reservation. Callers hold b.mu.
func (b *Budget) grantLocked(n int64) *Grant {
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	return &Grant{b: b, n: n}
}

// Used returns the bytes currently reserved.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Peak returns the high-water mark of reserved bytes.
func (b *Budget) Peak() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}
