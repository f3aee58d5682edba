package core

import (
	"cmp"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/storage"
)

// This file is the term engine — the one evaluator behind Compute,
// Recompute, Evaluate and refresh:
//
//   - runTerms runs the maintenance terms of one definition one after
//     another in term order on the caller's goroutine, each pushing the rows
//     of its driver's scan through its compiled join pipeline (orders.go)
//     into the run's sink. Operands are read in place, never copied: a
//     state table's scan hands out its stored tuples, and a delta's the rows
//     its Seal decoded (delta.Delta).
//     A window's parallelism is between expressions (package exec's
//     scheduler), never inside one.
//   - buildCache is the one cache of transient build state: it shares
//     immutable build-side hash tables across the terms of one run, which
//     makes it and drops it — every term joining the same operand on the
//     same equi-key columns probes one physical table instead of
//     re-scanning and re-hashing the operand. The linear work metric still
//     charges each term its operand scan — the cache changes the machine's
//     work, not the metric's — and EngineCounters reports the hits and
//     tuples saved. The same rule covers the steps a resident join index
//     serves (see stepSide): they ask for no build at all.
//   - the sink folds term output straight into the view's pending state, in
//     term and row order.

// recoveredErr converts a recovered panic value into an error naming where
// it happened. Error identity is preserved (%w) so injected faults stay
// recognizable to errors.As after being delivered as a panic.
func recoveredErr(what string, p any) error {
	if err, ok := p.(error); ok {
		return fmt.Errorf("core: panic in %s: %w", what, err)
	}
	return fmt.Errorf("core: panic in %s: %v", what, p)
}

// hashBytes is FNV-1a over an encoded key, the hash of the engine's
// hash-then-verify probe scheme.
func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

// buildEntry is one build-side tuple. Its encoded join key is the arena
// bytes from the previous entry's kend up to its own; next chains the
// entries that share a head (entry index + 1; 0 ends the chain).
type buildEntry struct {
	tup   relation.Tuple
	count int64
	kend  int
	next  int32
}

// buildTable is an immutable build-side hash table laid out flat: one entry
// per row in a single array, chained from a power-of-two array of heads
// selected by the 64-bit hash of the encoded key projection, with every
// key's encoding in one arena — a handful of allocations per build however
// many rows it holds, and none per probe. A chain may mix keys (they share
// a head, or collide on the whole hash), so a probe verifies byte equality
// before it emits; the order of a chain never shows in the output bag. With
// no key columns (cross product) every entry has the empty key, lands in
// one chain, and matches every probe. The tuples are the ones the operand's
// scan handed out — a state table's stored rows, a delta's decoded ones —
// and are only read.
type buildTable struct {
	entries []buildEntry
	heads   []int32 // entry index + 1 of each chain's first entry; 0 = empty
	arena   []byte
}

// newBuildTable hashes an operand's rows on the key columns (operand-local
// indexes, canonical newCol order) as its scan yields them.
func newBuildTable(src source, cols []int) *buildTable {
	n := int(src.DistinctCount())
	nh := 1
	for nh < n {
		nh <<= 1
	}
	bt := &buildTable{entries: make([]buildEntry, 0, n), heads: make([]int32, nh)}
	key := make(relation.Tuple, len(cols))
	src.Scan(func(t relation.Tuple, c int64) bool {
		for ki, col := range cols {
			key[ki] = t[col]
		}
		if bt.arena == nil {
			// Size the arena from the first key: exact when keys are of
			// fixed width (integers, dates), a first guess otherwise.
			var first [64]byte
			bt.arena = make([]byte, 0, len(key.AppendEncoded(first[:0]))*n)
		}
		start := len(bt.arena)
		bt.arena = key.AppendEncoded(bt.arena)
		head := &bt.heads[hashBytes(bt.arena[start:])&uint64(nh-1)]
		bt.entries = append(bt.entries, buildEntry{tup: t, count: c, kend: len(bt.arena), next: *head})
		*head = int32(len(bt.entries))
		return true
	})
	return bt
}

// first returns the head of the chain an encoded probe key selects.
func (bt *buildTable) first(enc []byte) int32 {
	return bt.heads[hashBytes(enc)&uint64(len(bt.heads)-1)]
}

// keyOf returns the encoded join key of entry i.
func (bt *buildTable) keyOf(i int32) []byte {
	start := 0
	if i > 0 {
		start = bt.entries[i-1].kend
	}
	return bt.arena[start:bt.entries[i].kend]
}

// buildKey identifies a build table: the physical operand (state table,
// a summary view's included, or resolved delta — stable pointers until the
// operand's view installs) plus the canonical key-column list.
type buildKey struct {
	src  source
	cols string
}

// buildCache is the one cache of transient build tables: the build sides
// of one run of the term engine. The first term that asks for an (operand,
// key columns) pair builds its table; every later term of the run probes
// that table. The cache belongs to the run — one goroutine fills it and
// drops it with the run — so no build outlives the operand it was made
// from: an operand changes only when its view installs, and no Install runs
// inside a Compute.
type buildCache map[buildKey]*buildTable

// build returns the build table of src over the key columns of step,
// accounting the request to the run: its first request of a pair is a miss,
// every further one a hit.
func (env *evalEnv) build(src source, step *joinStep) *buildTable {
	key := buildKey{src: src, cols: step.colsKey}
	if bt, ok := env.cache[key]; ok {
		env.ctr.CacheHits++
		env.ctr.CacheTuplesSaved += src.Cardinality()
		return bt
	}
	env.ctr.CacheMisses++
	bt := newBuildTable(src, step.cols)
	env.cache[key] = bt
	return bt
}

// runTerms is the term engine: it evaluates terms of cq over ops into out
// and fills the work and cache accounting of rep. It runs the terms one
// after another, in term order on the caller's goroutine, each along the
// pipeline its driver — the smallest of its deltas, ties by reference
// index — compiled, and each emitting into one sink that writes straight
// into out. A term that panics (a misbehaving operator, an injected fault)
// fails the run with an error, as does a context that is done before a
// term (ContextErr); the first error ends it. The run seals the delta it
// appended to, whatever its outcome: the rows are then out's to read.
func runTerms(env *evalEnv, cq *algebra.CQ, terms []compiledTerm, ops operands, out acc, rep *CompReport) (err error) {
	env.cache = make(buildCache)
	if out.d != nil {
		defer func() { err = cmp.Or(err, out.d.Seal()) }()
	}

	sink := newSink(cq, out)
	for ti := range terms {
		if err := ContextErr(env.ctx); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		t := &terms[ti]
		k := 0
		for j := 1; j < len(t.deltaRefs); j++ {
			if ops.delta[t.deltaRefs[j]].Cardinality() < ops.delta[t.deltaRefs[k]].Cardinality() {
				k = j
			}
		}
		scanned, err := runTerm(ti, t.orders[k], ops, t.deltaMask, sink, env)
		if err != nil {
			return err
		}
		rep.Terms++
		rep.OperandTuples += scanned
	}
	rep.EngineCounters = env.ctr
	return nil
}

// acc accumulates term output: the signed change rows of an SPJ definition
// (d), the rows of a full evaluation of one (t), or the group partials of an
// aggregate one (p). Exactly one is set.
type acc struct {
	d *delta.Delta
	t *storage.Table
	p *delta.GroupPartials
}

// add folds in count copies of one projected row: key is the encoded select
// tuple, or the encoded group key with the aggregate inputs beside it. The
// key is not retained.
func (a acc) add(key []byte, inputs []relation.Value, count int64) {
	switch {
	case a.p != nil:
		a.p.AccumulateEncoded(key, inputs, count)
	case a.t != nil:
		a.t.InsertEncoded(key, count)
	default:
		a.d.AddEncoded(string(key), count)
	}
}

// projector maps a joined row to a definition's output: the select list of
// an SPJ view, or the group key and aggregate inputs of a summary view. It
// owns its scratch, so what project returns is valid until the next call.
type projector struct {
	cq     *algebra.CQ
	key    relation.Tuple
	inputs []relation.Value
}

func newProjector(cq *algebra.CQ) *projector {
	if cq.IsAggregate() {
		return &projector{cq: cq, key: make(relation.Tuple, len(cq.GroupBy)), inputs: make([]relation.Value, len(cq.Aggs))}
	}
	return &projector{cq: cq, key: make(relation.Tuple, len(cq.Select))}
}

func (p *projector) project(row relation.Tuple) (relation.Tuple, []relation.Value) {
	if !p.cq.IsAggregate() {
		for i, s := range p.cq.Select {
			p.key[i] = s.E.Eval(row)
		}
		return p.key, nil
	}
	for i, g := range p.cq.GroupBy {
		p.key[i] = g.E.Eval(row)
	}
	for i, a := range p.cq.Aggs {
		if a.Input != nil {
			p.inputs[i] = a.Input.Eval(row)
		} else {
			p.inputs[i] = relation.Null
		}
	}
	return p.key, p.inputs
}

// sink is where every term of one engine run emits: it projects each joined
// row and folds it straight into the target, in term and row order. Bag
// accumulation is commutative (integer counts; integer sums), and float sums
// follow that order.
type sink struct {
	proj   *projector
	target acc
	enc    []byte
}

func newSink(cq *algebra.CQ, target acc) *sink {
	return &sink{proj: newProjector(cq), target: target, enc: make([]byte, 0, 64)}
}

// add is the pipeline's sinkFn.
func (s *sink) add(row relation.Tuple, count int64) {
	key, inputs := s.proj.project(row)
	s.enc = key.AppendEncoded(s.enc[:0])
	s.target.add(s.enc, inputs, count)
}
