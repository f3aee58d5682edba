package core

import (
	"fmt"
	"sync"
)

// Epoch-based versioned snapshots. Every published warehouse state is an
// epoch: an immutable *Warehouse plus a monotonically increasing number.
// Readers pin the current epoch, evaluate any number of queries against its
// (frozen) state, and unpin; an update window executes on a copy-on-write
// clone and, on commit, flips the registry to the successor in one atomic
// step. Because tables are COW at relation granularity (storage.Table.Clone),
// an epoch flip shares every untouched relation with its predecessor —
// keeping N epochs alive costs only the relations that changed between them.
//
// Garbage collection is by reference count: a retired epoch (no longer
// current) is dropped from the registry when its last reader unpins, at
// which point Go's collector reclaims any relations no surviving epoch
// shares.

// Epoch is one immutable published version of the warehouse state.
type Epoch struct {
	n    uint64
	w    *Warehouse
	refs int // pinned readers; guarded by the owning registry's mutex
}

// Epochs is the registry of published warehouse versions: one current
// epoch, plus retired epochs kept alive by pinned readers.
type Epochs struct {
	mu      sync.Mutex
	current *Epoch
	live    map[uint64]*Epoch // current + every retired epoch with refs > 0
}

// NewEpochs publishes w as epoch 1 of a fresh registry. The caller must
// treat w's materialized state as immutable from this point on; updates go
// through clone-and-Flip.
func NewEpochs(w *Warehouse) *Epochs {
	e := &Epoch{n: 1, w: w}
	return &Epochs{current: e, live: map[uint64]*Epoch{1: e}}
}

// Current returns the current epoch's number.
func (r *Epochs) Current() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current.n
}

// Live returns how many epochs the registry keeps alive (the current one
// plus retired epochs still pinned by readers).
func (r *Epochs) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Pin takes a read reference on the current epoch. The returned pin's
// warehouse is immutable — it never observes a concurrent window's installs
// — and stays valid until Unpin, regardless of how many flips happen in
// between. Pins are cheap; take one per consistent read set.
func (r *Epochs) Pin() *Pin {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.current.refs++
	return &Pin{r: r, e: r.current}
}

// Flip atomically publishes next as the new current epoch and returns its
// number. The retired predecessor stays alive while readers hold pins on it
// and is garbage-collected when the last one unpins. next must not be
// mutated after the flip.
func (r *Epochs) Flip(next *Warehouse) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.current
	e := &Epoch{n: old.n + 1, w: next}
	r.current = e
	r.live[e.n] = e
	if old.refs == 0 {
		delete(r.live, old.n)
	}
	return e.n
}

// Pin is a read reference on one epoch. It is not safe for concurrent use
// by multiple goroutines; each reader takes its own.
type Pin struct {
	r    *Epochs
	e    *Epoch
	done bool
}

// Epoch returns the pinned epoch's number.
func (p *Pin) Epoch() uint64 { return p.e.n }

// Warehouse returns the pinned state. Callers must only read it.
func (p *Pin) Warehouse() *Warehouse { return p.e.w }

// Unpin releases the reference. A retired epoch whose last pin is released
// is dropped from the registry so its unshared relations can be collected.
// Unpin is idempotent.
func (p *Pin) Unpin() {
	if p.done {
		return
	}
	p.done = true
	r := p.r
	r.mu.Lock()
	defer r.mu.Unlock()
	p.e.refs--
	if p.e.refs < 0 {
		panic(fmt.Sprintf("core: epoch %d unpinned more times than pinned", p.e.n))
	}
	if p.e.refs == 0 && p.e != r.current {
		delete(r.live, p.e.n)
	}
}
