package core

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/memory"
	"repro/internal/relation"
)

// This file is the term engine — the one evaluator behind Compute,
// Recompute, Evaluate and refresh:
//
//   - runTerms plans the maintenance terms of one definition, pre-warms their
//     distinct scans and builds when the pool has background workers, runs
//     the terms on the pool with each join step's probe rows split into
//     fixed-size morsels, and flushes the sinks. Options.ParallelTerms only
//     sizes the pool; the default engine is this code at width 1, where every
//     task runs inline on the caller in term order.
//   - buildCache is the one cache of transient build state: it shares
//     immutable build-side hash tables across the terms of one run — and,
//     attached to the warehouse for an update window (AttachSharing), across
//     the window's Comps: every term joining the same operand on the same
//     equi-key columns probes one physical table instead of re-scanning and
//     re-hashing the operand. The linear work metric still charges each
//     term its operand scan — the cache changes the machine's work, not the
//     metric's — and EngineCounters reports the hits and tuples saved. The
//     same rule covers the steps a resident join index serves (see
//     indexStep): they ask for no build at all.
//   - sinks accumulate term output in mutex-protected shards that merge into
//     the target at flush. Bag accumulation is commutative (integer counts;
//     integer sums), so the result is independent of scheduling; float sums
//     commute up to rounding. At width 1 the single shard is the target
//     itself, so rows accumulate straight into the view's pending state in
//     term and row order.

// DefaultMorselSize is the number of probe rows dispatched per parallel
// morsel. Large enough that per-task overhead (closure, pool handoff) is
// amortized over thousands of probes, small enough that a skewed join step
// still splits across workers.
const DefaultMorselSize = 1024

// effectiveWorkers resolves the Workers option (0 = GOMAXPROCS).
func effectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// workerPool is the warehouse-wide budget for intra-Compute parallelism: a
// semaphore admitting workers−1 background goroutines, the submitting
// goroutine being the workers-th. do never blocks waiting for a slot — when
// the pool is saturated the task runs inline on the submitter — which both
// bounds total goroutines under composed DAG- and term-level parallelism
// and makes nested waits (a term waiting on its morsels) deadlock-free. A
// nil pool is a pool of width 1: everything runs inline.
type workerPool struct {
	sem chan struct{}
}

// width is the number of goroutines the pool lets one submitter occupy,
// itself included.
func (p *workerPool) width() int {
	if p == nil {
		return 1
	}
	return cap(p.sem) + 1
}

func newWorkerPool(workers int) *workerPool {
	return &workerPool{sem: make(chan struct{}, effectiveWorkers(workers)-1)}
}

// do runs fn on a pooled goroutine tracked by wg if a slot is free, and
// inline otherwise.
func (p *workerPool) do(wg *sync.WaitGroup, fn func()) {
	if p != nil {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				fn()
			}()
			return
		default:
		}
	}
	fn()
}

// recoveredErr converts a recovered panic value into an error naming where
// it happened. Error identity is preserved (%w) so injected faults stay
// recognizable to errors.As after crossing a goroutine boundary as a panic.
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

// buildRes is a resolved build side: a resident table or a spilled one, the
// budget grant a resident one holds until the cache drops it (nil without an
// attached budget), and the estimate of its resident footprint.
type buildRes struct {
	bt    *buildTable
	sp    *spilledBuild
	grant *memory.Grant
	bytes int64
}

// buildFromRows hashes materialized rows under the window memory budget:
// resident when the reservation fits (the grant travels with the result),
// spilled to disk otherwise. Without an attached budget it is the classic
// unbudgeted build. Every build of the engine is made here.
func buildFromRows(env *evalEnv, rows []prow, cols []int) (buildRes, error) {
	est := estimateRowsBytes(rows)
	mm := env.mem
	if mm == nil {
		return buildRes{bt: newBuildTable(rows, cols), bytes: est}, nil
	}
	if g, ok := mm.budget.TryReserveUnder(est, mm.resLimit); ok {
		return buildRes{bt: newBuildTable(rows, cols), grant: g, bytes: est}, nil
	}
	sp, err := mm.spill(env, rows, cols, est)
	return buildRes{sp: sp, bytes: est}, err
}

// scanCache memoizes materialized operand scans for one Compute: the 2^r−1
// terms repeatedly read the same deltas and state tables, and a delta
// decodes its rows on every scan. The memoized rows are shared
// read-only — the pipeline copies into a scratch row before evaluating
// anything.
type scanCache struct {
	mu    sync.Mutex
	slots map[source]*scanSlot
}

type scanSlot struct {
	once sync.Once
	rows []prow
}

func newScanCache() *scanCache { return &scanCache{slots: make(map[source]*scanSlot)} }

func (c *scanCache) get(src source) []prow {
	c.mu.Lock()
	slot := c.slots[src]
	if slot == nil {
		slot = &scanSlot{}
		c.slots[src] = slot
	}
	c.mu.Unlock()
	slot.once.Do(func() { slot.rows = materializeScan(src) })
	return slot.rows
}

// materializeScan snapshots a source as (tuple, count) rows. A state table
// hands out its stored tuples, which every epoch holding the row shares, so
// the rows are read-only here and in everything built from them: the
// pipeline copies a row into its scratch row and never writes through it.
func materializeScan(src source) []prow {
	rows := make([]prow, 0, src.Cardinality())
	src.Scan(func(t relation.Tuple, c int64) bool {
		rows = append(rows, prow{row: t, count: c})
		return true
	})
	return rows
}

// buildRows reads a build side's rows. With background workers they come
// from the scan memo, which the warm phase filled in parallel and which
// other builds and drivers of the same operand share. At width 1 nothing
// overlaps, so the operand is scanned on demand and the rows are dropped
// once the table is built: no copy of a state operand outlives its build.
func (e *evalEnv) buildRows(src source) []prow {
	if e.pool.width() == 1 {
		return materializeScan(src)
	}
	return e.scans.get(src)
}

// buildKey identifies a build table: the physical operand (state table,
// aggregate store or resolved delta — stable pointers until the operand's
// view installs) plus the canonical key-column list.
type buildKey struct {
	src  source
	cols string
}

func colsKey(cols []int) string {
	b := make([]byte, 0, 3*len(cols))
	for i, c := range cols {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// buildCache is the one cache of transient build tables. The first requester
// of an (operand, key columns) pair builds; every later requester blocks on
// that build and reuses it.
//
// A run of the term engine outside a window makes its own cache, which dies
// with the run. A window's cache (AttachSharing) outlives the runs: a build
// stays for the window's later Comps until its view installs or the window
// detaches — resident under its memory grant, or spilled and holding no
// memory, as buildFromRows left it; the memory budget is the one bound on
// what it holds. No versions or reference counts are needed for that to be
// right: an operand's content changes only when its view installs (C5/C8 put
// every Comp of V before any reader of δV, and V's state changes only at
// Inst(V)), Install(V) drops the builds on V's state and on δV, and every
// scheduler orders a Comp against the installs of the views it reads — so a
// build found in the cache was made from the operand as it is now. Dropping a
// build returns its grant; a run still probing it keeps the table alive until
// it finishes.
type buildCache struct {
	mu     sync.Mutex
	tables map[buildKey]*buildSlot
	// The rest is a window's cache only. used is the resident bytes it keeps
	// now, peak their high-water mark; gone collects the report lines of
	// dropped builds.
	window     bool
	used, peak int64
	gone       []SharedEntryStats
}

// buildSlot is one build of the cache. The once publishes res and err; kept
// is written under the cache's lock.
type buildSlot struct {
	key     buildKey
	view    string
	isDelta bool
	owner   *evalEnv // the run whose request made the slot
	once    sync.Once
	res     buildRes
	err     error
	rows    int64
	kept    bool // a window's build that stays after its run
	// asks counts the runs that asked for the build, hits those of them
	// that did not make it.
	asks, hits atomic.Int64
}

func newBuildCache(window bool) *buildCache {
	return &buildCache{tables: make(map[buildKey]*buildSlot), window: window}
}

// warm constructs the build table without touching the run's hit/miss
// accounting. Pre-warming is an engine scheduling detail: the first term
// that asks for the build still records it as its miss, so the reported
// counters are identical with and without pre-warming. A warm-phase error
// is remembered by the slot and surfaces, deterministically in term order,
// from the first get.
func (c *buildCache) warm(env *evalEnv, br buildReq) {
	c.resolveBuild(env, c.slot(env, br), br)
}

// get returns the build a term asks for, accounting the request to the
// term's run: its first request of a pair is the run's miss — shared when
// another run of the window made the build — and every further one a hit.
func (c *buildCache) get(env *evalEnv, br buildReq) (buildRes, error) {
	slot := c.slot(env, br)
	card := br.src.Cardinality()
	env.mu.Lock()
	if env.asked[slot] {
		env.ctr.CacheHits++
		env.ctr.CacheTuplesSaved += card
	} else {
		if env.asked == nil {
			env.asked = make(map[*buildSlot]bool)
		}
		env.asked[slot] = true
		slot.asks.Add(1)
		env.ctr.CacheMisses++
		if slot.owner != env {
			slot.hits.Add(1)
			env.ctr.SharedHits++
			env.ctr.SharedTuplesSaved += card
		} else if c.window {
			env.ctr.SharedMisses++
		}
	}
	env.mu.Unlock()
	c.resolveBuild(env, slot, br)
	return slot.res, slot.err
}

func (c *buildCache) slot(env *evalEnv, br buildReq) *buildSlot {
	key := buildKey{src: br.src, cols: colsKey(br.cols)}
	c.mu.Lock()
	slot, ok := c.tables[key]
	if !ok {
		slot = &buildSlot{key: key, view: br.view, isDelta: br.isDelta, owner: env}
		c.tables[key] = slot
	}
	c.mu.Unlock()
	return slot
}

// resolveBuild materializes a slot's build, once: scan the operand, hash it
// under the memory budget (buildFromRows) and, in a window's cache, keep it
// past its run.
func (c *buildCache) resolveBuild(env *evalEnv, slot *buildSlot, br buildReq) {
	slot.once.Do(func() {
		rows := env.buildRows(br.src)
		slot.rows = int64(len(rows))
		slot.res, slot.err = buildFromRows(env, rows, br.cols)
		if slot.err != nil || !c.window {
			return
		}
		c.mu.Lock()
		slot.kept = true
		c.used += slot.held()
		c.peak = max(c.peak, c.used)
		c.mu.Unlock()
	})
}

// held is the resident bytes a built slot occupies: none once spilled.
func (s *buildSlot) held() int64 {
	if s.res.sp != nil {
		return 0
	}
	return s.res.bytes
}

// drop removes a slot from the cache and returns its grant; a later request
// for the pair builds afresh. Callers hold c.mu, and the slot's build has
// finished: a run waits for the builds it asked for, and no Comp reading a
// view runs beside that view's Install.
func (c *buildCache) drop(slot *buildSlot) {
	delete(c.tables, slot.key)
	slot.res.grant.Release()
	if slot.kept {
		c.used -= slot.held()
	}
	if c.window {
		c.gone = append(c.gone, slot.stats("dropped"))
	}
}

// endRun drops what a finished run built and the cache does not keep — every
// build of a run's own cache, the failed ones of a window's. The run has
// joined its workers, so none of its builds is still in the making.
func (c *buildCache) endRun(env *evalEnv) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slot := range c.tables {
		if slot.owner == env && !slot.kept {
			c.drop(slot)
		}
	}
}

// invalidate drops the builds made from a view's state or pending delta,
// which its Install is about to change.
func (c *buildCache) invalidate(view string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slot := range c.tables {
		if slot.view == view {
			c.drop(slot)
		}
	}
}

// SharedEntryStats reports the life of one build of a window's cache, for
// EXPLAIN SHARING.
type SharedEntryStats struct {
	// Name renders the operand and the key columns it was hashed on:
	// "δV[0]", "V[1,2]".
	Name string
	// Requests counts the Comps that asked for the build; Hits those served
	// a build another Comp had made.
	Requests, Hits int64
	// Rows and Bytes describe the built table (resident estimate).
	Rows, Bytes int64
	// Fate is where the build was when the window ended: "resident" or
	// "spilled" (kept to the end), or "dropped" (its view installed, or it
	// failed).
	Fate string
}

func (s *buildSlot) stats(fate string) SharedEntryStats {
	name := s.view
	if s.isDelta {
		name = "δ" + name
	}
	return SharedEntryStats{
		Name: name + "[" + s.key.cols + "]", Requests: s.asks.Load(), Hits: s.hits.Load(),
		Rows: s.rows, Bytes: s.res.bytes, Fate: fate,
	}
}

// SharedStats summarizes a detached window cache.
type SharedStats struct {
	// BytesPeak is the high-water mark of the resident bytes the cache
	// kept.
	BytesPeak int64
	// Detail lists every build the cache held, sorted by name.
	Detail []SharedEntryStats
}

// AttachSharing gives the warehouse a build cache for the coming window, so
// that a build one Comp makes serves the window's later Comps. It reports
// false — attaching nothing — when Options.ShareComputation is off or a
// cache is already attached. Not safe to call while expressions execute;
// callers attach before the window's first step.
func (w *Warehouse) AttachSharing() bool {
	if !w.opts.ShareComputation || w.cache != nil {
		return false
	}
	w.cache = newBuildCache(true)
	return true
}

// DetachSharing removes the window's cache, dropping every build it still
// holds, and returns its stats. Safe to call when nothing is attached.
func (w *Warehouse) DetachSharing() SharedStats {
	c := w.cache
	w.cache = nil
	if c == nil {
		return SharedStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := SharedStats{BytesPeak: c.peak, Detail: c.gone}
	for _, slot := range c.tables {
		fate := "resident"
		if slot.res.sp != nil {
			fate = "spilled"
		}
		st.Detail = append(st.Detail, slot.stats(fate))
		slot.res.grant.Release()
	}
	sort.SliceStable(st.Detail, func(i, j int) bool { return st.Detail[i].Name < st.Detail[j].Name })
	return st
}

// runTerms is the term engine: it evaluates terms of cq into out and fills
// the work and cache accounting of rep. It runs in phases: plan every term
// (cheap, data-independent); when the pool has background workers, pre-warm
// the distinct operand scans and then the distinct build tables concurrently;
// fan the terms out on the pool, each probing through morsels and emitting
// into the sinks; flush the sinks into out once every term is done. The
// pre-warm phases matter because the terms of one Comp all want the same few
// scans and builds first: left to the terms, those constructions serialize
// behind sync.Once while every other worker parks. With no background workers
// there is nobody to park, so width 1 goes straight to the terms, which then
// run inline one after another. Errors surface deterministically in term
// order.
func (w *Warehouse) runTerms(env *evalEnv, cq *algebra.CQ, terms []maintain.Term, deltas map[string]*delta.Delta, out acc, rep *CompReport) error {
	if env.cache == nil {
		env.cache = newBuildCache(false)
	}
	defer env.cache.endRun(env)
	env.scans = newScanCache()

	plans := make([]*termPlan, len(terms))
	for ti, term := range terms {
		plan, err := w.planTerm(cq, term, deltas)
		if err != nil {
			return err
		}
		plans[ti] = plan
	}
	var wg sync.WaitGroup
	if env.pool.width() > 1 {
		if err := warm(env, &wg, plans); err != nil {
			return err
		}
	}

	sinks := newSinks(cq, out, shardCount(env.pool.width()))
	probes := make([]int64, len(terms))
	errs := make([]error, len(terms))
	for ti := range terms {
		ti := ti
		env.pool.do(&wg, func() {
			defer func() {
				if r := recover(); r != nil {
					errs[ti] = recoveredErr(fmt.Sprintf("term %d", ti), r)
				}
			}()
			if err := env.ctxErr(); err != nil {
				errs[ti] = err
				return
			}
			probes[ti], errs[ti] = runTerm(plans[ti], sinks.local, env)
		})
	}
	wg.Wait()
	for ti := range terms {
		if errs[ti] != nil {
			return errs[ti]
		}
		rep.Terms++
		rep.OperandTuples += plans[ti].scanned
		env.ctr.IndexProbes += probes[ti]
		env.ctr.IndexTuplesSaved += plans[ti].indexed
		for i := range plans[ti].pl.steps {
			if idx := plans[ti].pl.steps[i].idx; idx != nil {
				env.ctr.IndexTuplesSaved -= idx.scanned
			}
		}
	}
	rep.OutputTuples = sinks.flush()
	rep.EngineCounters = env.ctr
	return nil
}

// warm pre-scans the plans' distinct sources, then pre-builds their distinct
// build tables (builds read the memoized scans). Each phase's items are
// independent, so they use the whole pool; cache.warm bypasses the hit/miss
// accounting, so the first term to request each build still records its one
// miss.
func warm(env *evalEnv, wg *sync.WaitGroup, plans []*termPlan) error {
	srcSet := make(map[source]bool)
	buildSet := make(map[buildKey]buildReq)
	for _, plan := range plans {
		srcSet[plan.driverSrc] = true
		for _, br := range plan.builds {
			srcSet[br.src] = true
			buildSet[buildKey{src: br.src, cols: colsKey(br.cols)}] = br
		}
	}
	// Warm closures run operand Scan callbacks, which can panic (a
	// misbehaving operator, an injected fault). A panic in a pooled
	// goroutine would kill the process, so every closure is guarded; the
	// first panic (any order — warm work has no term identity) wins.
	var mu sync.Mutex
	var warmErr error
	guard := func(what string, fn func()) func() {
		return func() {
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if warmErr == nil {
						warmErr = recoveredErr(what, r)
					}
					mu.Unlock()
				}
			}()
			fn()
		}
	}
	for src := range srcSet {
		src := src
		env.pool.do(wg, guard("operand scan", func() { env.scans.get(src) }))
	}
	wg.Wait()
	if warmErr != nil {
		return warmErr
	}
	for _, wb := range buildSet {
		wb := wb
		env.pool.do(wg, guard("build warm", func() { env.cache.warm(env, wb) }))
	}
	wg.Wait()
	return warmErr
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

func (a acc) merge(b acc) {
	if a.p != nil {
		a.p.Merge(b.p)
		return
	}
	a.d.Merge(b.d)
}

// projector maps a joined row to a definition's output: the select list of
// an SPJ view, or the group key and aggregate inputs of a summary view. It
// owns its scratch, so each goroutine takes its own, and what project
// returns is valid until the next call.
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

// shardCount sizes the sink shard array: one shard at width 1, else a few
// shards per worker (rounded to a power of two for mask selection), which
// keeps lock contention low without bloating the final merge.
func shardCount(width int) int {
	if width == 1 {
		return 1
	}
	p := 1
	for p < 2*width && p < 64 {
		p <<= 1
	}
	return p
}

// sinks fans the output of one engine run into shards. Rows route by the
// hash of their encoded output key (select tuple or group key), so one key
// always lands in one shard and the merged bag is exact regardless of
// scheduling. With a single shard, that shard is the target.
type sinks struct {
	cq     *algebra.CQ
	target acc
	before int // groups in an aggregate target before the run
	mask   uint64
	shards []sinkShard
}

type sinkShard struct {
	mu       sync.Mutex
	acc      acc
	produced int64
	_        [4]uint64 // soften false sharing between neighboring shards
}

func newSinks(cq *algebra.CQ, target acc, n int) *sinks {
	s := &sinks{cq: cq, target: target, mask: uint64(n - 1), shards: make([]sinkShard, n)}
	if target.p != nil {
		s.before = target.p.GroupCount()
	}
	for i := range s.shards {
		s.shards[i].acc = target
		if n > 1 {
			s.shards[i].acc = newAcc(cq)
		}
	}
	return s
}

// local returns a sink closure with private projection and encoding
// scratch; only the shard append is locked.
func (s *sinks) local() sinkFn {
	proj := newProjector(s.cq)
	enc := make([]byte, 0, 64)
	return func(row relation.Tuple, count int64) {
		key, inputs := proj.project(row)
		enc = key.AppendEncoded(enc[:0])
		sh := &s.shards[0]
		if s.mask != 0 {
			sh = &s.shards[hashBytes(enc)&s.mask]
		}
		sh.mu.Lock()
		sh.acc.add(string(enc), inputs, count)
		sh.produced++
		sh.mu.Unlock()
	}
}

// flush merges the shards into the target and returns the produced-row
// count: change rows emitted for an SPJ definition, newly affected groups
// for an aggregate one.
func (s *sinks) flush() int64 {
	var produced int64
	for i := range s.shards {
		sh := &s.shards[i]
		if sh.acc != s.target {
			s.target.merge(sh.acc)
		}
		produced += sh.produced
	}
	if s.target.p != nil {
		return int64(s.target.p.GroupCount() - s.before)
	}
	return produced
}
