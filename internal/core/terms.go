package core

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

// This file is the term engine — the one evaluator behind Compute,
// Recompute, Evaluate and refresh:
//
//   - runTerms runs the maintenance terms of one definition one after
//     another in term order on the caller's goroutine, each pushing its
//     driver rows through its compiled join pipeline (orders.go) into the
//     run's sink.
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
//     serves (see indexStep): they ask for no build at all.
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
// one chain, and matches every probe. The tuples are the operand's own
// (see materializeScan) and are only read.
type buildTable struct {
	entries []buildEntry
	heads   []int32 // entry index + 1 of each chain's first entry; 0 = empty
	arena   []byte
}

// newBuildTable hashes an operand's materialized rows on the key columns
// (operand-local indexes, canonical newCol order).
func newBuildTable(rows []prow, cols []int) *buildTable {
	nh := 1
	for nh < len(rows) {
		nh <<= 1
	}
	bt := &buildTable{entries: make([]buildEntry, len(rows)), heads: make([]int32, nh)}
	key := make(relation.Tuple, len(cols))
	for i := range rows {
		r := &rows[i]
		for ki, col := range cols {
			key[ki] = r.row[col]
		}
		start := len(bt.arena)
		bt.arena = key.AppendEncoded(bt.arena)
		if i == 0 {
			// Size the arena from the first key: exact when keys are of
			// fixed width (integers, dates), a first guess otherwise.
			bt.arena = append(make([]byte, 0, len(bt.arena)*len(rows)), bt.arena...)
		}
		head := &bt.heads[hashBytes(bt.arena[start:])&uint64(nh-1)]
		bt.entries[i] = buildEntry{tup: r.row, count: r.count, kend: len(bt.arena), next: *head}
		*head = int32(i + 1)
	}
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

// scanCache memoizes the driver scans of one run: the 2^r−1 terms
// repeatedly drive from the same deltas, and a delta decodes its rows on
// every scan. The memoized rows are shared read-only — the pipeline copies
// into a scratch row before evaluating anything.
type scanCache map[source][]prow

func (c scanCache) get(src source) []prow {
	rows, ok := c[src]
	if !ok {
		rows = materializeScan(src)
		c[src] = rows
	}
	return rows
}

// materializeScan snapshots a source as (tuple, count) rows. A state table
// hands out its stored tuples, which every epoch holding the row shares, so
// the rows are read-only here and in everything built from them: the
// pipeline copies a row into its scratch row and never writes through it.
func materializeScan(src source) []prow {
	rows := make([]prow, 0, src.DistinctCount())
	src.Scan(func(t relation.Tuple, c int64) bool {
		rows = append(rows, prow{row: t, count: c})
		return true
	})
	return rows
}

// buildKey identifies a build table: the physical operand (state table,
// aggregate store or resolved delta — stable pointers until the operand's
// view installs) plus the canonical key-column list.
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
	bt := newBuildTable(materializeScan(src), step.cols)
	env.cache[key] = bt
	return bt
}

// runTerms is the term engine: it evaluates terms of cq over ops into out
// and fills the work and cache accounting of rep. It runs the terms one
// after another, in term order on the caller's goroutine, each along the
// pipeline its driver — the smallest of its deltas, ties by reference
// index — compiled, and each emitting into one sink that writes straight
// into out. A term that panics (a misbehaving operator, an injected fault)
// fails the run with an error, as does a cancelled context between terms;
// the first error ends it.
func runTerms(env *evalEnv, cq *algebra.CQ, terms []compiledTerm, ops operands, out acc, rep *CompReport) error {
	env.cache = make(buildCache)
	env.scans = make(scanCache)

	sink := newSink(cq, out)
	for ti := range terms {
		if err := env.ctxErr(); err != nil {
			return err
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
	rep.OutputTuples = sink.produced()
	rep.EngineCounters = env.ctr
	return nil
}

// acc accumulates term output: the signed change rows of an SPJ definition
// (d) or the group partials of an aggregate one (p). Exactly one is set.
type acc struct {
	d *delta.Delta
	p *delta.GroupPartials
}

func newAcc(cq *algebra.CQ) acc {
	if cq.IsAggregate() {
		return acc{p: delta.NewGroupPartials(cq.GroupSchema(), cq.AggSpecs())}
	}
	return acc{d: delta.New(cq.OutputSchema())}
}

// add folds in count copies of one projected row: key is the encoded select
// tuple, or the encoded group key with the aggregate inputs beside it.
func (a acc) add(key string, inputs []relation.Value, count int64) {
	if a.p != nil {
		a.p.AccumulateEncoded(key, inputs, count)
		return
	}
	a.d.AddEncoded(key, count)
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
	before int // groups in an aggregate target before the run
	rows   int64
}

func newSink(cq *algebra.CQ, target acc) *sink {
	s := &sink{proj: newProjector(cq), target: target, enc: make([]byte, 0, 64)}
	if target.p != nil {
		s.before = target.p.GroupCount()
	}
	return s
}

// add is the pipeline's sinkFn.
func (s *sink) add(row relation.Tuple, count int64) {
	key, inputs := s.proj.project(row)
	s.enc = key.AppendEncoded(s.enc[:0])
	s.target.add(string(s.enc), inputs, count)
	s.rows++
}

// produced returns the run's produced-row count: change rows emitted for an
// SPJ definition, newly affected groups for an aggregate one.
func (s *sink) produced() int64 {
	if s.target.p != nil {
		return int64(s.target.p.GroupCount() - s.before)
	}
	return s.rows
}
