package check

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	warehouse "repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/recovery"
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
			lines = append(lines, line(r.Tuple, r.Count))
		}
		bags[name] = lines
	}
	return bags
}

// line renders one row of a State's bag.
func line(tup relation.Tuple, count int64) string { return fmt.Sprintf("%v x%d", tup, count) }

// byLoops evaluates a definition over the current states of c's views by
// nested loops over whole joined rows: every column is there, and every
// filter, select expression, group-by key and aggregate input is evaluated
// on the full row. It shares nothing with the term engine but the
// expressions and the accumulators, so an engine that leaves out a column a
// definition reads — the same way when it maintains and when it recomputes —
// disagrees with it. The catalogs are small and all-integer, so the loops are
// cheap and the bags compare exactly. The lines come sorted as strings.
func byLoops(c *core.Warehouse, cq *algebra.CQ) []string {
	type row struct {
		tup   relation.Tuple
		count int64
	}
	operands := make([][]row, len(cq.Refs))
	at := make([][]algebra.Expr, len(cq.Refs)) // the filters whose refs are bound at depth i
	for i, ref := range cq.Refs {
		c.MustView(ref.View).Scan(func(tup relation.Tuple, count int64) bool {
			operands[i] = append(operands[i], row{tup, count})
			return true
		})
	}
	for fi, f := range cq.Filters {
		i := max(bits.Len64(cq.FilterRefs(fi))-1, 0)
		at[i] = append(at[i], f)
	}
	d := delta.New(cq.OutputSchema())
	p := delta.NewGroupPartials(cq.GroupSchema(), cq.AggSpecs())
	joined := make(relation.Tuple, len(cq.JoinedSchema()))
	var join func(i int, count int64)
	join = func(i int, count int64) {
		if i < len(operands) {
		next:
			for _, r := range operands[i] {
				copy(joined[cq.RefOffset(i):], r.tup)
				for _, f := range at[i] {
					if !algebra.EvalBool(f, joined) {
						continue next
					}
				}
				join(i+1, count*r.count)
			}
			return
		}
		if !cq.IsAggregate() {
			out := make(relation.Tuple, len(cq.Select))
			for k, s := range cq.Select {
				out[k] = s.E.Eval(joined)
			}
			d.Add(out, count)
			return
		}
		key, inputs := make(relation.Tuple, len(cq.GroupBy)), make([]relation.Value, len(cq.Aggs))
		for k, g := range cq.GroupBy {
			key[k] = g.E.Eval(joined)
		}
		for k, a := range cq.Aggs {
			if inputs[k] = relation.Null; a.Input != nil {
				inputs[k] = a.Input.Eval(joined)
			}
		}
		p.Accumulate(key, inputs, count)
	}
	join(0, 1)
	if err := d.Seal(); err != nil {
		panic(err) // d holds what Add encoded
	}
	var lines []string
	d.Scan(func(tup relation.Tuple, count int64) bool {
		lines = append(lines, line(tup, count))
		return true
	})
	p.Scan(func(key string, gp *delta.GroupPartial) bool {
		if gp.Support > 0 {
			out, _ := relation.DecodeTuple(key) // Accumulate encoded it
			for _, a := range gp.Accums {
				out = append(out, a.Output(gp.Support))
			}
			lines = append(lines, line(out, 1))
		}
		return true
	})
	slices.Sort(lines)
	return lines
}

// Capture reads the serving epoch of w whole, under one pin: a state any
// part of which came from another epoch is a blend. With the report of the
// window that committed the epoch it also records what the window installed.
func Capture(w *warehouse.Warehouse, window ...warehouse.Report) State {
	p := w.PinEpoch()
	defer p.Close()
	s := State{Epoch: p.Epoch(), Bags: bagsOf(p.Internal()), StateDigest: recovery.StateDigest(p.Internal())}
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
// are installed and every derived view is recomputed — by the term engine,
// and each checked against nested loops over whole rows (byLoops). The
// installed-delta digests are predicted too, as the digest of each view's
// bag difference.
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
			if _, _, err := c.Install(name); err != nil {
				t.Fatalf("check: oracle: installing %s: %v", name, err)
			}
		}
	}
	if err := c.RefreshAll(); err != nil {
		t.Fatalf("check: oracle: %v", err)
	}
	scan(+1)
	s := State{Bags: bagsOf(c), InstDigests: make(map[string]uint64), StateDigest: recovery.StateDigest(c)}
	for _, name := range c.ViewNames() {
		if v := c.MustView(name); !v.IsBase() {
			got, want := slices.Clone(s.Bags[name]), byLoops(c, v.Def())
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Fatalf("check: oracle: the term engine recomputes %s as %q, nested loops over whole rows give %q", name, got, want)
			}
		}
	}
	for name, d := range diffs {
		if err := d.Seal(); err != nil {
			t.Fatal(err)
		}
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
// resident join index equals a rebuild from its table's rows, each summary
// view's rows are the outputs of the groups they carry, and (VerifyAll)
// each view's running digest equals a scan's and every derived view its
// recomputation from its children.
func Invariants(w *warehouse.Warehouse) error {
	p := w.PinEpoch()
	defer p.Close()
	c := p.Internal()
	for _, name := range c.ViewNames() {
		tbl := c.MustView(name).Table()
		if err := cmp.Or(tbl.CheckIndexes(), tbl.CheckGroups()); err != nil {
			return fmt.Errorf("view %s: %w", name, err)
		}
	}
	return c.VerifyAll()
}
