package check

import (
	"fmt"
	"slices"
	"testing"

	warehouse "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/journal"
	"repro/internal/relation"
)

// State is what a warehouse looks like at one epoch, and what the window
// that led to it installed: the form the oracle's prediction and every leg's
// outcome are compared in.
type State struct {
	// Epoch is the serving epoch captured (0 for the oracle's prediction).
	Epoch uint64
	// Bags holds every view's sorted (tuple, count) bag, StateDigest the
	// journal's fingerprint of all of them together.
	Bags        map[string][]string
	StateDigest uint64
	// InstDigests fingerprints, view by view, the delta the window installed
	// (delta.Digest; absent for a view it left unchanged). Nil when the
	// state was captured without the window's report.
	InstDigests map[string]uint64
}

func bagsOf(c *core.Warehouse) map[string][]string {
	bags := make(map[string][]string)
	for _, name := range c.ViewNames() {
		lines := []string{}
		for _, r := range c.MustView(name).SortedRows() {
			lines = append(lines, fmt.Sprintf("%v x%d", r.Tuple, r.Count))
		}
		bags[name] = lines
	}
	return bags
}

// Capture reads the serving epoch of w whole, under one pin: a state any
// part of which came from another epoch is a blend. With the report of the
// window that committed the epoch it also records what the window installed.
func Capture(w *warehouse.Warehouse, window ...warehouse.Report) State {
	p := w.PinEpoch()
	defer p.Close()
	s := State{Epoch: p.Epoch(), Bags: bagsOf(p.Internal()), StateDigest: journal.StateDigest(p.Internal())}
	for _, rep := range window {
		s.InstDigests = make(map[string]uint64)
		for _, step := range rep.Steps {
			if inst, ok := step.Expr.(warehouse.Inst); ok && step.Digest != 0 {
				s.InstDigests[inst.View] = step.Digest
			}
		}
	}
	return s
}

// Oracle predicts the state the window over w's staged changes must commit,
// by the definition of correctness (Def. 3.2): on a clone, the base deltas
// are installed and every derived view is recomputed. The installed-delta
// digests are predicted too, as the digest of each view's bag difference.
func Oracle(t testing.TB, w *warehouse.Warehouse) State {
	t.Helper()
	c := w.Internal().Clone()
	diffs := make(map[string]*delta.Delta)
	scan := func(sign int64) {
		for _, name := range c.ViewNames() {
			v := c.MustView(name)
			if diffs[name] == nil {
				diffs[name] = delta.New(v.Schema())
			}
			v.Scan(func(tup relation.Tuple, n int64) bool {
				diffs[name].Add(tup, sign*n)
				return true
			})
		}
	}
	scan(-1)
	for _, name := range c.ViewNames() {
		if v := c.MustView(name); v.IsBase() && v.HasPending() {
			if _, err := c.Install(name); err != nil {
				t.Fatalf("check: oracle: installing %s: %v", name, err)
			}
		}
	}
	if err := c.RefreshAll(); err != nil {
		t.Fatalf("check: oracle: %v", err)
	}
	scan(+1)
	s := State{Bags: bagsOf(c), InstDigests: make(map[string]uint64), StateDigest: journal.StateDigest(c)}
	for name, d := range diffs {
		if !d.IsEmpty() {
			s.InstDigests[name] = d.Digest()
		}
	}
	return s
}

// Diff reports the first difference between the state wanted and the one
// got: a view's bag, the state digest, or — where both sides know them — an
// installed-delta digest. Epochs are not compared.
func Diff(want, got State) error {
	for name, w := range want.Bags {
		g, ok := got.Bags[name]
		if !ok {
			return fmt.Errorf("view %s is missing", name)
		}
		if !slices.Equal(w, g) {
			i := 0
			for i < len(w) && i < len(g) && w[i] == g[i] {
				i++
			}
			return fmt.Errorf("view %s has %d distinct rows, want %d; from row %d on they are %q, want %q", name, len(g), len(w), i, g[i:], w[i:])
		}
	}
	if len(got.Bags) != len(want.Bags) {
		return fmt.Errorf("%d views, want %d", len(got.Bags), len(want.Bags))
	}
	if want.StateDigest != got.StateDigest {
		return fmt.Errorf("state digest %016x, want %016x, over equal bags", got.StateDigest, want.StateDigest)
	}
	if want.InstDigests != nil && got.InstDigests != nil {
		for name := range want.Bags {
			if w, g := want.InstDigests[name], got.InstDigests[name]; w != g {
				return fmt.Errorf("Inst(%s) installed a delta that digests to %016x, want %016x", name, g, w)
			}
		}
	}
	return nil
}

// Invariants checks what must hold of every epoch a warehouse adopts: each
// resident join index equals a rebuild from its table's rows, and (VerifyAll)
// each view's running digest equals a scan's and every derived view its
// recomputation from its children.
func Invariants(w *warehouse.Warehouse) error {
	p := w.PinEpoch()
	defer p.Close()
	c := p.Internal()
	for _, name := range c.ViewNames() {
		if tbl := c.MustView(name).Table(); tbl != nil {
			if err := tbl.CheckIndexes(); err != nil {
				return fmt.Errorf("view %s: %w", name, err)
			}
		}
	}
	return c.VerifyAll()
}
