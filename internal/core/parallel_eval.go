package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/memory"
	"repro/internal/relation"
)

// This file is the intra-Compute parallel engine (Options.ParallelTerms):
//
//   - computeParallel evaluates the 2^r − 1 maintenance terms of one Comp
//     concurrently on a bounded, warehouse-wide worker pool, with each join
//     step's probe rows further split into fixed-size morsels.
//   - buildCache shares immutable build-side hash tables across the terms of
//     one Compute: every term joining the same operand on the same equi-key
//     columns probes one physical table instead of re-scanning and
//     re-hashing the operand. The linear work metric still charges each
//     term its operand scan — the cache changes the machine's work, not the
//     metric's — and CompReport reports the hits and tuples saved.
//   - Sharded, mutex-protected sinks accumulate term output concurrently
//     and merge into the view's pending state at flush. Bag accumulation is
//     commutative (integer counts; integer sums), so the final pending bag
//     is independent of scheduling; float sums commute up to rounding,
//     exactly as they already do under the map-iteration order of the
//     sequential engine.

// DefaultMorselSize is the number of probe rows dispatched per parallel
// morsel. Large enough that per-task overhead (closure, pool handoff) is
// amortized over thousands of probes, small enough that a skewed join step
// still splits across workers.
const DefaultMorselSize = 1024

// seqSinks adapts a single-threaded sink to the engine's factory interface.
func seqSinks(sink sinkFn) sinkFactory {
	return func() sinkFn { return sink }
}

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
// and makes nested waits (a term waiting on its morsels) deadlock-free.
type workerPool struct {
	sem chan struct{}
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

// buildRes is a resolved build side: a resident table or a spilled one,
// plus the budget grant the receiver must release (nil when the build is
// unbudgeted or owned by a cache/registry with its own release schedule).
type buildRes struct {
	bt    *buildTable
	sp    *spilledBuild
	owned *memory.Grant
}

// buildFor returns a build side for one request, through the per-Compute
// cache when the parallel engine supplies one. Cached results stay owned by
// the cache (released at Compute end); only term-local results carry an
// owned grant back to the caller.
func buildFor(env *evalEnv, br buildReq) (buildRes, error) {
	cache := env.buildCache()
	if cache == nil {
		return resolveBuild(env, br)
	}
	res, err := cache.get(env, br)
	res.owned = nil // the cache releases its slots' grants
	return res, err
}

// resolveBuild materializes one build request, serving it from the
// window-wide shared registry when one is attached and the operand is worth
// sharing. With the per-Compute cache in front (parallel engine), the
// registry sees each distinct (operand, columns) pair once per Compute.
func resolveBuild(env *evalEnv, br buildReq) (buildRes, error) {
	if br.inter != nil {
		return resolveInterBuild(env, br)
	}
	if env != nil && env.shared != nil {
		res, ok, err := env.shared.reg.acquire(env, env.shared, br)
		if err != nil {
			return buildRes{}, err
		}
		if ok {
			return res, nil // registry-owned; no grant to release here
		}
	}
	return buildLocal(env, br)
}

// resolveInterBuild materializes one composite build: the registry serves
// (or computes) the pair's shared raw equi-join, and the hash table over
// the probe columns is built per consumer — deduplicated within a Compute
// by the build cache in front, whose key is the interEntry's stable
// identity. planTerm only emits inter requests when it matched a registry
// hint, so env.shared is always present here.
func resolveInterBuild(env *evalEnv, br buildReq) (buildRes, error) {
	su := env.sharedUse()
	rows, err := su.reg.acquireInter(env, su, br.inter)
	if err != nil {
		return buildRes{}, err
	}
	return buildFromRows(env, rows, br.cols)
}

// buildLocal materializes one build side from an operand scan; see
// buildFromRows for the budget handling.
func buildLocal(env *evalEnv, br buildReq) (buildRes, error) {
	return buildFromRows(env, scanSource(env, br.src), br.cols)
}

// buildFromRows hashes already-materialized rows under the window memory
// budget: resident when the reservation fits (the grant travels with the
// result), spilled to disk otherwise. Without an attached budget it is the
// classic unbudgeted build.
func buildFromRows(env *evalEnv, rows []prow, cols []int) (buildRes, error) {
	mu := env.memUse()
	if mu == nil {
		return buildRes{bt: newBuildTable(rows, cols)}, nil
	}
	est := estimateRowsBytes(rows)
	if g, ok := mu.mm.budget.TryReserveUnder(est, mu.mm.resLimit); ok {
		return buildRes{bt: newBuildTable(rows, cols), owned: g}, nil
	}
	sp, err := mu.mm.spill(env.evalCtx(), mu, rows, cols, est)
	if err != nil {
		return buildRes{}, err
	}
	return buildRes{sp: sp}, nil
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

// scanSource reads an operand's rows, memoized per Compute when the
// parallel engine supplies a scan cache.
func scanSource(env *evalEnv, src source) []prow {
	if env == nil || env.scans == nil {
		return materializeScan(src)
	}
	return env.scans.get(src)
}

// buildKey identifies a shareable build table: the physical operand (state
// table, aggregate store or resolved delta — all stable pointers for the
// duration of one Compute) plus the canonical key-column list.
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

// buildCache shares build tables across the concurrently evaluating terms
// of one Compute. The first requester of a (operand, key columns) pair
// builds; every later requester blocks on that build and reuses it. hits
// and saved feed CompReport's cache accounting.
type buildCache struct {
	mu     sync.Mutex
	tables map[buildKey]*buildSlot
	hits   atomic.Int64
	misses atomic.Int64
	saved  atomic.Int64
}

type buildSlot struct {
	once    sync.Once
	res     buildRes
	err     error
	counted atomic.Bool // set by the first term-level requester, which pays the miss
}

func newBuildCache() *buildCache {
	return &buildCache{tables: make(map[buildKey]*buildSlot)}
}

// warm constructs the build table without touching the per-Compute hit/miss
// accounting. Pre-warming is an engine scheduling detail: the first term
// that asks for the build still records the construction as its miss, so
// the reported hits/misses/saved are identical with and without
// pre-warming. Resolution goes through resolveBuild, so the warm phase is
// also where a shared registry serves (or admits) the table — exactly one
// registry interaction per distinct build of the Compute. A warm-phase
// resolution error is remembered by the slot and surfaces, deterministically
// in term order, from the first get.
func (c *buildCache) warm(env *evalEnv, br buildReq) {
	slot := c.slot(buildKey{src: br.src, cols: colsKey(br.cols)})
	slot.once.Do(func() { slot.res, slot.err = resolveBuild(env, br) })
}

func (c *buildCache) get(env *evalEnv, br buildReq) (buildRes, error) {
	slot := c.slot(buildKey{src: br.src, cols: colsKey(br.cols)})
	if slot.counted.CompareAndSwap(false, true) {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
		c.saved.Add(br.src.Cardinality())
	}
	slot.once.Do(func() { slot.res, slot.err = resolveBuild(env, br) })
	return slot.res, slot.err
}

func (c *buildCache) slot(key buildKey) *buildSlot {
	c.mu.Lock()
	slot, ok := c.tables[key]
	if !ok {
		slot = &buildSlot{}
		c.tables[key] = slot
	}
	c.mu.Unlock()
	return slot
}

// releaseAll returns every cache-owned budget grant. Called once when the
// owning Compute finishes (any exit path); slots still mid-build cannot
// exist then — computeParallel joins all workers first.
func (c *buildCache) releaseAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, slot := range c.tables {
		slot.res.owned.Release()
	}
}

// computeParallel is Compute's ParallelTerms path. It runs in four phases:
// plan every term (cheap, data-independent), pre-warm the distinct operand
// scans concurrently, pre-warm the distinct build tables concurrently, then
// fan the terms out on the shared pool, each probing through morsels and
// emitting into sharded sinks; flush merges the shards into the view's
// pending state once every term is done. The pre-warm phases matter because
// the terms of one Comp all want the same few scans and builds first: left
// to the terms, those constructions serialize behind sync.Once while every
// other worker parks. Errors surface deterministically in term order.
func (w *Warehouse) computeParallel(ctx context.Context, rep CompReport, v *View, terms []maintain.Term, deltas map[string]*delta.Delta, su *sharedUse) (CompReport, error) {
	cache := newBuildCache()
	defer cache.releaseAll()
	env := &evalEnv{cache: cache, scans: newScanCache(), pool: w.pool, morsel: w.opts.MorselSize, ctx: ctx, shared: su, mem: newMemUse(w.mem)}

	plans := make([]*termPlan, len(terms))
	for ti, term := range terms {
		plan, err := w.planTerm(v.def, term, deltas, su)
		if err != nil {
			return rep, err
		}
		plans[ti] = plan
	}

	// Pre-warm distinct scans, then distinct builds (builds read the
	// memoized scans). Each phase's items are independent, so they use the
	// whole pool; warm() bypasses the hit/miss accounting, so the first
	// term to request each build still records its one miss.
	srcSet := make(map[source]bool)
	buildSet := make(map[buildKey]buildReq)
	for _, plan := range plans {
		srcSet[plan.driverSrc] = true
		for _, br := range plan.builds {
			// Composite builds are warmed as builds only: pre-scanning their
			// operands would waste two scans whenever the registry serves
			// the intermediate from another Comp's build.
			if br.inter == nil {
				srcSet[br.src] = true
			}
			buildSet[buildKey{src: br.src, cols: colsKey(br.cols)}] = br
		}
	}
	// Pre-warm closures run operand Scan callbacks, which can panic (a
	// misbehaving operator, an injected fault). A panic in a pooled
	// goroutine would kill the process, so every closure is guarded; the
	// first panic (any order — warm work has no term identity) wins.
	var warmMu sync.Mutex
	var warmErr error
	guard := func(what string, fn func()) func() {
		return func() {
			defer func() {
				if r := recover(); r != nil {
					warmMu.Lock()
					if warmErr == nil {
						warmErr = recoveredErr(what, r)
					}
					warmMu.Unlock()
				}
			}()
			fn()
		}
	}
	var wg sync.WaitGroup
	for src := range srcSet {
		src := src
		w.pool.do(&wg, guard("operand scan of "+v.name, func() { env.scans.get(src) }))
	}
	wg.Wait()
	if warmErr != nil {
		return rep, warmErr
	}
	for _, wb := range buildSet {
		wb := wb
		w.pool.do(&wg, guard("build warm of "+v.name, func() { cache.warm(env, wb) }))
	}
	wg.Wait()
	if warmErr != nil {
		return rep, warmErr
	}

	sinks, flush := w.makeShardedSink(v)
	scanned := make([]int64, len(terms))
	errs := make([]error, len(terms))
	for ti := range terms {
		ti := ti
		w.pool.do(&wg, func() {
			defer func() {
				if r := recover(); r != nil {
					errs[ti] = recoveredErr(fmt.Sprintf("term %d of %s", ti, v.name), r)
				}
			}()
			if err := env.ctxErr(); err != nil {
				errs[ti] = err
				return
			}
			scanned[ti], errs[ti] = runTerm(plans[ti], sinks, env)
		})
	}
	wg.Wait()
	for ti := range terms {
		if errs[ti] != nil {
			return rep, errs[ti]
		}
		rep.Terms++
		rep.OperandTuples += scanned[ti]
	}
	rep.OutputTuples = flush()
	rep.BuildCacheHits = int(cache.hits.Load())
	rep.BuildCacheMisses = int(cache.misses.Load())
	rep.BuildTuplesSaved = cache.saved.Load()
	su.fill(&rep)
	env.memUse().fill(&rep)
	return rep, nil
}

// shardCount sizes the sink shard array: a few shards per worker (rounded
// to a power of two for mask selection) keeps lock contention low without
// bloating the final merge.
func shardCount(workers int) int {
	n := 2 * effectiveWorkers(workers)
	p := 1
	for p < n && p < 64 {
		p <<= 1
	}
	return p
}

// makeShardedSink returns the concurrency-safe counterpart of makeSink:
// a factory of goroutine-local sink closures writing to mutex-protected
// shards, plus a flush merging the shards into the view's pending state and
// returning the produced-row count (change rows for SPJ views, newly
// affected groups for aggregate views — the same quantities makeSink
// reports).
func (w *Warehouse) makeShardedSink(v *View) (sinkFactory, func() int64) {
	if v.agg != nil {
		s := newAggShards(v, shardCount(w.opts.Workers))
		return s.local, s.flush
	}
	s := newDeltaShards(v, shardCount(w.opts.Workers))
	return s.local, s.flush
}

// deltaShards accumulates SPJ change rows. Each shard owns a private Delta;
// rows route by the hash of their encoded output tuple, so one output tuple
// always lands in one shard and the merged bag is exact regardless of
// scheduling.
type deltaShards struct {
	view   *View
	mask   uint64
	shards []deltaShard
}

type deltaShard struct {
	mu       sync.Mutex
	d        *delta.Delta
	produced int64
	_        [4]uint64 // soften false sharing between neighboring shards
}

func newDeltaShards(v *View, n int) *deltaShards {
	s := &deltaShards{view: v, mask: uint64(n - 1), shards: make([]deltaShard, n)}
	for i := range s.shards {
		s.shards[i].d = delta.New(v.Schema())
	}
	return s
}

// local returns a sink closure with private projection and encoding
// scratch; only the shard append is locked.
func (s *deltaShards) local() sinkFn {
	selects := s.view.def.Select
	out := make(relation.Tuple, len(selects))
	enc := make([]byte, 0, 64)
	return func(row relation.Tuple, count int64) {
		for i, sel := range selects {
			out[i] = sel.E.Eval(row)
		}
		enc = out.AppendEncoded(enc[:0])
		sh := &s.shards[hashBytes(enc)&s.mask]
		sh.mu.Lock()
		sh.d.AddEncoded(string(enc), count)
		sh.produced++
		sh.mu.Unlock()
	}
}

func (s *deltaShards) flush() int64 {
	v := s.view
	v.mu.Lock()
	if v.pendingDelta == nil {
		v.pendingDelta = delta.New(v.Schema())
	}
	pd := v.pendingDelta
	v.mu.Unlock()
	var produced int64
	for i := range s.shards {
		sh := &s.shards[i]
		pd.Merge(sh.d)
		produced += sh.produced
	}
	return produced
}

// aggShards accumulates aggregate group partials, sharded by group key so
// each group's accumulator lives in exactly one shard.
type aggShards struct {
	view   *View
	mask   uint64
	shards []aggShard
}

type aggShard struct {
	mu sync.Mutex
	p  *delta.GroupPartials
	_  [4]uint64
}

func newAggShards(v *View, n int) *aggShards {
	s := &aggShards{view: v, mask: uint64(n - 1), shards: make([]aggShard, n)}
	for i := range s.shards {
		s.shards[i].p = delta.NewGroupPartials(v.def.GroupSchema(), v.def.AggSpecs())
	}
	return s
}

func (s *aggShards) local() sinkFn {
	groupExprs := s.view.def.GroupBy
	aggs := s.view.def.Aggs
	group := make(relation.Tuple, len(groupExprs))
	inputs := make([]relation.Value, len(aggs))
	enc := make([]byte, 0, 64)
	return func(row relation.Tuple, count int64) {
		for i, g := range groupExprs {
			group[i] = g.E.Eval(row)
		}
		for i, a := range aggs {
			if a.Input != nil {
				inputs[i] = a.Input.Eval(row)
			} else {
				inputs[i] = relation.Null
			}
		}
		enc = group.AppendEncoded(enc[:0])
		sh := &s.shards[hashBytes(enc)&s.mask]
		sh.mu.Lock()
		sh.p.AccumulateEncoded(string(enc), inputs, count)
		sh.mu.Unlock()
	}
}

func (s *aggShards) flush() int64 {
	v := s.view
	v.mu.Lock()
	if v.pendingPartials == nil {
		v.pendingPartials = delta.NewGroupPartials(v.def.GroupSchema(), v.def.AggSpecs())
	}
	pp := v.pendingPartials
	v.mu.Unlock()
	before := pp.GroupCount()
	for i := range s.shards {
		pp.Merge(s.shards[i].p)
	}
	return int64(pp.GroupCount() - before)
}
