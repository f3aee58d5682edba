package strategy

import (
	"fmt"
	"sort"

	"repro/internal/vdag"
)

// CountViewStrategies returns the number of correct view strategies for a
// view defined over n views: the ordered Bell (Fubini) number a(n), via the
// recurrence a(n) = Σ_{k=1..n} C(n,k)·a(n−k). This reproduces Table 1 of
// the paper (1, 3, 13, 75, 541, 4683 for n = 1..6).
func CountViewStrategies(n int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("strategy: negative n")
	}
	if n > 15 {
		return 0, fmt.Errorf("strategy: count overflows int64 beyond n=15")
	}
	a := make([]int64, n+1)
	a[0] = 1
	for m := 1; m <= n; m++ {
		var sum int64
		c := int64(1) // C(m, k)
		for k := 1; k <= m; k++ {
			c = c * int64(m-k+1) / int64(k)
			sum += c * a[m-k]
		}
		a[m] = sum
	}
	return a[n], nil
}

// OrderedPartitions enumerates every ordered set partition of items: every
// way of splitting items into non-empty blocks where both the assignment and
// the order of blocks matter. The number of results is the ordered Bell
// number of len(items).
func OrderedPartitions(items []string) [][][]string {
	if len(items) == 0 {
		return [][][]string{{}}
	}
	var out [][][]string
	// Choose the block containing items[0]: every subset of the rest joins
	// it; recursively partition the remainder, then insert the block at
	// every position.
	head, rest := items[0], items[1:]
	n := len(rest)
	for mask := 0; mask < 1<<uint(n); mask++ {
		block := []string{head}
		var remain []string
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				block = append(block, rest[i])
			} else {
				remain = append(remain, rest[i])
			}
		}
		for _, sub := range OrderedPartitions(remain) {
			for pos := 0; pos <= len(sub); pos++ {
				part := make([][]string, 0, len(sub)+1)
				part = append(part, sub[:pos]...)
				part = append(part, block)
				part = append(part, sub[pos:]...)
				out = append(out, part)
			}
		}
	}
	return out
}

// Permutations enumerates all permutations of items.
func Permutations(items []string) [][]string {
	var out [][]string
	VisitPermutations(append([]string(nil), items...), func(p []string) {
		out = append(out, append([]string(nil), p...))
	})
	return out
}

// VisitPermutations calls visit with every permutation of items, in the
// order Permutations lists them, without materializing them: items is
// permuted in place (and restored on return), so visit must copy what it
// keeps.
func VisitPermutations[T any](items []T, visit func([]T)) {
	visitPermutations(items, 0, visit)
}

func visitPermutations[T any](items []T, k int, visit func([]T)) {
	if k == len(items) {
		visit(items)
		return
	}
	for i := k; i < len(items); i++ {
		items[k], items[i] = items[i], items[k]
		visitPermutations(items, k+1, visit)
		items[k], items[i] = items[i], items[k]
	}
}

// EnumerateViewStrategies enumerates one representative of every correct
// view strategy for view over children — one per ordered partition of the
// children. (Within a partition, reordering the Inst expressions of a block
// does not change the work incurred — footnotes 3 and 4 of the paper — so
// one representative per partition covers the whole space up to
// work-equivalence.)
func EnumerateViewStrategies(view string, children []string) []Strategy {
	parts := OrderedPartitions(children)
	out := make([]Strategy, 0, len(parts))
	for _, p := range parts {
		out = append(out, PartitionedView(view, p))
	}
	return out
}

// EnumerateOneWayViewStrategies enumerates the n! 1-way view strategies.
func EnumerateOneWayViewStrategies(view string, children []string) []Strategy {
	perms := Permutations(children)
	out := make([]Strategy, 0, len(perms))
	for _, p := range perms {
		out = append(out, OneWayView(view, p))
	}
	return out
}

// EnumerateVDAGStrategies enumerates every correct VDAG strategy of g, up
// to work-equivalence: for each derived view it considers every ordered
// partition of that view's children (the full view-strategy space), and for
// each combination it enumerates every interleaving compatible with the
// correctness conditions. The output is exponential in the size of the
// VDAG; this is the brute-force oracle the tests use to certify MinWork and
// Prune on small graphs.
func EnumerateVDAGStrategies(g *vdag.Graph) []Strategy {
	derived := g.DerivedViews()
	var out []Strategy
	seen := make(map[string]bool)

	// choices[i] is the ordered partition chosen for derived[i].
	choices := make([][][]string, len(derived))
	var assign func(i int)
	assign = func(i int) {
		if i == len(derived) {
			for _, s := range interleave(g, derived, choices) {
				k := s.String()
				if !seen[k] {
					seen[k] = true
					out = append(out, s)
				}
			}
			return
		}
		for _, p := range OrderedPartitions(g.Children(derived[i])) {
			choices[i] = p
			assign(i + 1)
		}
	}
	assign(0)
	return out
}

// interleave enumerates all correct VDAG strategies whose used view
// strategies equal the chosen partitions. It builds the expression set and
// the precedence constraints the choices induce, then enumerates all
// topological orders.
func interleave(g *vdag.Graph, derived []string, choices [][][]string) []Strategy {
	// Collect expressions: per-view Comp sequences (from partitions) and
	// one Inst per view.
	exprs := make(map[string]Expr)
	addExpr := func(e Expr) string {
		k := e.Key()
		exprs[k] = e
		return k
	}
	for _, v := range g.Views() {
		addExpr(Inst{View: v})
	}
	// prereq[k] lists keys that must precede expression k.
	prereq := make(map[string][]string)
	addEdge := func(after, before string) {
		prereq[after] = append(prereq[after], before)
	}
	for i, v := range derived {
		part := choices[i]
		// Minimal precedence constraints of a correct view strategy with
		// these blocks: comps are chained (the chosen propagation order);
		// each block's installs fall after that block's comp (C3) and
		// before the next comp (C4); Inst(v) falls after the last comp
		// (C5). Installs within a block, and Inst(v) relative to the last
		// block's installs, are otherwise free (footnotes 3–4 of the
		// paper), so all such interleavings are enumerated.
		var compKeys []string
		for _, block := range part {
			compKeys = append(compKeys, addExpr(Comp{View: v, Over: append([]string(nil), block...)}))
		}
		for bi := 1; bi < len(compKeys); bi++ {
			addEdge(compKeys[bi], compKeys[bi-1])
		}
		for bi, block := range part {
			for _, b := range block {
				instKey := Inst{View: b}.Key()
				addEdge(instKey, compKeys[bi])
				if bi+1 < len(compKeys) {
					addEdge(compKeys[bi+1], instKey)
				}
			}
		}
		addEdge(Inst{View: v}.Key(), compKeys[len(compKeys)-1])
	}
	// C8: Comp(Vk, {…Vj…}) after every Comp(Vj, …).
	for k, e := range exprs {
		ck, ok := e.(Comp)
		if !ok {
			continue
		}
		for _, vj := range ck.Over {
			if g.IsBase(vj) {
				continue
			}
			for k2, e2 := range exprs {
				if cj, ok := e2.(Comp); ok && cj.View == vj {
					addEdge(k, k2)
				}
			}
		}
	}
	// Enumerate topological orders by DFS over ready expressions.
	keys := make([]string, 0, len(exprs))
	for k := range exprs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	done := make(map[string]bool, len(keys))
	var cur Strategy
	var out []Strategy
	var rec func()
	rec = func() {
		if len(cur) == len(keys) {
			out = append(out, cur.Clone())
			return
		}
		for _, k := range keys {
			if done[k] {
				continue
			}
			ready := true
			for _, p := range prereq[k] {
				if !done[p] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			done[k] = true
			cur = append(cur, exprs[k])
			rec()
			cur = cur[:len(cur)-1]
			done[k] = false
		}
	}
	rec()
	return out
}
