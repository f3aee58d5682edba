package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/maintain"
	"repro/internal/relation"
	"repro/internal/storage"
)

// CompReport summarizes one Compute call for work accounting.
type CompReport struct {
	View string
	Over []string
	// Terms is the number of maintenance terms evaluated (2^r − 1).
	Terms int
	// OperandTuples is the total number of tuples scanned across all term
	// operands — the quantity the linear work metric models as the work of
	// a compute expression. It is independent of the build cache: the
	// metric models every term's operand scan, whether or not the physical
	// build-side hash table was shared (see EngineCounters).
	OperandTuples int64
	// OutputTuples is the number of (signed) change rows produced.
	OutputTuples int64
	// Skipped reports that the whole expression was elided because every
	// delta operand was empty (only with Options.SkipEmptyDeltas).
	Skipped bool
	// EngineCounters is the machine's side of the Compute.
	EngineCounters
}

// EngineCounters is what the machine did for the work the metric charges: the
// build cache's and the resident indexes' side of one Comp (CompReport,
// exec.StepReport) or of a window's Comps (the facade's WindowCounters). The engine run fills it once; none of it ever changes
// OperandTuples, which is planned from cardinalities.
type EngineCounters struct {
	// CacheMisses counts the distinct (operand, key columns) build tables a
	// Compute asked the build cache for — one per pair, whoever built it —
	// and CacheHits every further term of the same Compute that probed one.
	// 0/0 for a Comp whose every join step a resident index serves.
	CacheHits, CacheMisses int
	// CacheTuplesSaved totals the operand tuples whose re-scan those hits
	// elided.
	CacheTuplesSaved int64
	// SharedHits, SharedMisses and SharedTuplesSaved are inert and always
	// 0 — no build outlives the Compute that made it since the window-wide
	// build cache is gone; they stay because the frozen benchmark
	// (bench/layers.go) reads them. ROADMAP item 1 deletes them.
	SharedHits, SharedMisses int
	SharedTuplesSaved        int64
	// SpillCount, SpilledBytes and SpillReReadBytes are inert and always 0 —
	// no build spills since the window memory budget is gone; they stay
	// because the frozen benchmark (bench/layers.go) reads them. ROADMAP
	// item 1 deletes them.
	SpillCount                     int
	SpilledBytes, SpillReReadBytes int64
	// IndexProbes counts the lookups made in resident join indexes
	// (storage.Index): one per partial row arriving at a join step whose
	// operand an index serves. IndexTuplesSaved totals the operand tuples
	// OperandTuples charges for those steps and no scan read: their
	// operands' cardinalities, less the rows scanned to build an index that
	// was not resident yet.
	IndexProbes, IndexTuplesSaved int64
}

// Add folds o into c.
func (c *EngineCounters) Add(o EngineCounters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheTuplesSaved += o.CacheTuplesSaved
	c.IndexProbes += o.IndexProbes
	c.IndexTuplesSaved += o.IndexTuplesSaved
}

// source abstracts the two operand kinds a term reads: a view's current
// state or a view's pending delta. Cardinality counts duplicates, as the
// work metric does; DistinctCount is how many rows a Scan yields.
type source interface {
	Cardinality() int64
	DistinctCount() int64
	Scan(func(relation.Tuple, int64) bool)
}

type deltaSource struct{ d *delta.Delta }

func (s deltaSource) Cardinality() int64   { return s.d.Size() }
func (s deltaSource) DistinctCount() int64 { return int64(s.d.Distinct()) }
func (s deltaSource) Scan(fn func(relation.Tuple, int64) bool) {
	s.d.Scan(fn)
}

// sinkFn consumes one joined-and-filtered row with its signed multiplicity.
// Implementations must not retain the tuple: hot paths reuse the backing
// array across calls.
type sinkFn = func(row relation.Tuple, count int64)

// Compute evaluates Comp(name, over): it propagates the pending deltas of
// the views in over into the pending delta of the named view, reading the
// current materialized states of all other referenced views. The result is
// accumulated (merged) into any previously computed pending changes of the
// view, matching the paper's model where the Comp expressions of a strategy
// gather changes in δV until Inst(V) installs them.
func (w *Warehouse) Compute(name string, over []string) (CompReport, error) {
	return w.ComputeCtx(nil, name, over)
}

// ComputeCtx is Compute with cooperative cancellation: a nil ctx never
// cancels; otherwise evaluation stops before the next term once ctx is
// done, returning an error that wraps ctx.Err().
func (w *Warehouse) ComputeCtx(ctx context.Context, name string, over []string) (CompReport, error) {
	rep := CompReport{View: name, Over: append([]string(nil), over...)}
	v := w.views[name]
	if v == nil {
		return rep, fmt.Errorf("core: unknown view %q", name)
	}
	if v.IsBase() {
		return rep, fmt.Errorf("core: Compute on base view %q", name)
	}
	if v.agg != nil && v.finalized != nil {
		return rep, fmt.Errorf("core: Compute(%s, …) after δ%s was already finalized — incorrect strategy order", name, name)
	}
	terms, err := maintain.Terms(v.def, over)
	if err != nil {
		return rep, err
	}
	// Resolve each over-view's delta once.
	deltas := make(map[string]*delta.Delta, len(over))
	for _, child := range over {
		d, derr := w.DeltaOf(child)
		if derr != nil {
			return rep, derr
		}
		deltas[child] = d
	}
	if w.opts.SkipEmptyDeltas {
		allEmpty := true
		for _, d := range deltas {
			if !d.IsEmpty() {
				allEmpty = false
				break
			}
		}
		if allEmpty {
			rep.Skipped = true
			return rep, nil
		}
	}
	v.mu.Lock()
	out := v.pendingLocked()
	v.mu.Unlock()
	env := &evalEnv{ctx: ctx}
	return rep, w.runTerms(env, v.def, terms, deltas, out, &rep)
}

// operand describes one term input during planning.
type operand struct {
	refIdx  int
	isDelta bool
	src     source
}

// evalEnv is one run of the term engine (runTerms): what its terms share —
// the build tables, the scan memo and the counters. A run belongs to one
// goroutine.
type evalEnv struct {
	cache buildCache
	scans scanCache
	ctx   context.Context

	ctr EngineCounters
}

// ctxErr reports the env's cancellation state; a nil ctx never cancels.
func (e *evalEnv) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	if err := e.ctx.Err(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// termPlan is one maintenance term's fully planned execution: the driver
// source, the probe pipeline, the deferred build-side requests, and the
// term's modeled scan work. Planning depends only on cardinalities and
// predicates — never on the data — so the modeled work (driver cardinality
// plus every build-side operand's cardinality) is fixed here, independent
// of what any cache later serves.
type termPlan struct {
	driverSrc source
	scanned   int64
	// indexed is the part of scanned charged for index-served steps.
	indexed int64
	pl      pipeline
	builds  []buildReq
}

// buildReq defers one build side: pl.steps[step] needs the hash table of src
// over the key columns cols.
type buildReq struct {
	step int
	src  source
	cols []int
}

// runTerm executes planned term ti: materialize the driver, resolve the
// build sides through the run's cache (which owns them), and run the
// pipeline into the sink. It returns the number of index probes; the term's
// linear-metric work was fixed at planning and counts every build-side
// operand even when the cache served the physical table. A panic in the
// term — an operand scan or an operator — comes back as its error.
func runTerm(ti int, plan *termPlan, sink *sink, env *evalEnv) (probes int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredErr(fmt.Sprintf("term %d", ti), r)
		}
	}()
	rows := env.scans.get(plan.driverSrc)
	for _, br := range plan.builds {
		plan.pl.steps[br.step].build = env.build(br)
	}
	return plan.pl.run(rows, sink.add), nil
}

// planTerm resolves a term's operands and plans its join pipeline:
// references listed in term.DeltaRefs read their view's pending delta, all
// others read current state.
//
// The plan is a hash-join pipeline: the smallest delta operand drives;
// remaining operands are joined one at a time, preferring operands connected
// to the bound prefix by equi-join predicates (composite keys supported),
// falling back to a cross product when the join graph is disconnected. Every
// operand is modeled as scanned exactly once per term to build its hash
// table, which is precisely the execution model behind the paper's linear
// work metric. That is also what runs, except where a delta-driven term
// joins a plain table's state on a key: that step probes the table's
// resident index (see indexStep) and scans nothing. The driver and every
// step copy only their operand's live columns (liveColumns).
func (w *Warehouse) planTerm(cq *algebra.CQ, term maintain.Term, deltas map[string]*delta.Delta) (*termPlan, error) {
	n := len(cq.Refs)
	ops := make([]operand, n)
	isDelta := make([]bool, n)
	for _, r := range term.DeltaRefs {
		isDelta[r] = true
	}
	for i, ref := range cq.Refs {
		child := w.views[ref.View]
		if child == nil {
			return nil, fmt.Errorf("core: unknown referenced view %q", ref.View)
		}
		var src source
		if isDelta[i] {
			d := deltas[ref.View]
			if d == nil {
				return nil, fmt.Errorf("core: no delta resolved for %q", ref.View)
			}
			src = deltaSource{d}
		} else {
			if child.agg != nil {
				src = child.agg
			} else {
				src = child.table
			}
		}
		ops[i] = operand{refIdx: i, isDelta: isDelta[i], src: src}
	}

	// Pick the driver: the smallest delta operand (deterministic tie-break
	// by ref index); if the term has no delta operands (full recompute),
	// the smallest operand drives.
	driver := -1
	for i, op := range ops {
		if len(term.DeltaRefs) > 0 && !op.isDelta {
			continue
		}
		if driver < 0 || op.src.Cardinality() < ops[driver].src.Cardinality() {
			driver = i
		}
	}

	plan := &termPlan{driverSrc: ops[driver].src}
	plan.scanned += ops[driver].src.Cardinality()

	bound := uint64(1) << uint(driver)
	applied := make([]bool, len(cq.Filters))
	read := cq.ReadColumns()
	plan.pl = pipeline{
		off:   cq.RefOffset(driver),
		live:  liveColumns(read, cq.RefOffset(driver), len(cq.Refs[driver].Schema)),
		width: len(cq.JoinedSchema()),
		// Filters local to the driver run before the first probe.
		driverPreds: pendingFilters(cq, bound, applied),
	}

	remaining := make([]int, 0, n-1)
	for i := range ops {
		if i != driver {
			remaining = append(remaining, i)
		}
	}
	// Deterministic initial order.
	sort.Ints(remaining)

	for len(remaining) > 0 {
		// Choose the next operand: connected (has an unapplied equi-join
		// predicate linking it to bound refs) and smallest; else smallest.
		next, nextPos := -1, -1
		nextConnected := false
		for pos, i := range remaining {
			conn := len(equiKeys(cq, bound, i, applied)) > 0
			better := false
			switch {
			case next < 0:
				better = true
			case conn != nextConnected:
				better = conn
			case ops[i].src.Cardinality() != ops[next].src.Cardinality():
				better = ops[i].src.Cardinality() < ops[next].src.Cardinality()
			}
			if better {
				next, nextPos, nextConnected = i, pos, conn
			}
		}
		i := next
		remaining = append(remaining[:nextPos], remaining[nextPos+1:]...)

		keys := equiKeys(cq, bound, i, applied)
		for _, k := range keys {
			applied[k.filterIdx] = true
		}
		// Canonical key order: both the build and probe sides project in
		// newCol order, so cached build tables are reusable across terms
		// that discover the same keys in a different sequence.
		sortKeysByNewCol(keys)
		roff := cq.RefOffset(i)
		bound |= 1 << uint(i)

		step := joinStep{
			keys:  keys,
			roff:  roff,
			live:  liveColumns(read, roff, len(cq.Refs[i].Schema)),
			preds: pendingFilters(cq, bound, applied),
		}
		card := ops[i].src.Cardinality()
		if tbl := indexedState(term, ops[i]); tbl != nil && len(keys) > 0 {
			step.idx = &indexStep{tbl: tbl}
			plan.indexed += card
		} else {
			// A build-side hash table over one operand scan, matching the
			// linear work metric's execution model. The build itself is
			// deferred to runTerm, through the build cache.
			cols := make([]int, len(keys))
			for ki, k := range keys {
				cols[ki] = k.newCol - roff
			}
			plan.builds = append(plan.builds, buildReq{step: len(plan.pl.steps), src: ops[i].src, cols: cols})
		}
		// The metric counts the scan per term however the step is served.
		plan.scanned += card
		plan.pl.steps = append(plan.pl.steps, step)
	}
	return plan, nil
}

// liveColumns returns the operand-local positions, ascending, of the n
// columns at joined offset off that read marks (CQ.ReadColumns): what the
// pipeline copies of one of that operand's rows into the scratch row. No
// step, sink or projector reads any other column.
func liveColumns(read []bool, off, n int) []int {
	var live []int
	for c := 0; c < n; c++ {
		if read[off+c] {
			live = append(live, c)
		}
	}
	return live
}

// joinStep is one planned hash-join step: probe the partial row against an
// operand via a build table or a resident index, then apply the filters
// that just became evaluable.
type joinStep struct {
	keys []equiKey
	roff int
	// live is the operand's columns that a match copies into the scratch
	// row (liveColumns).
	live  []int
	preds []algebra.Expr
	build *buildTable // transient build (nil when indexed)
	idx   *indexStep  // resident index
}

// indexStep is the operand side of a join step that reads a plain table's
// state through its resident join index. The index is resolved — and, if
// the table does not hold one yet, built — at the step's first probe, so a
// term whose delta is empty builds nothing and probes nothing.
type indexStep struct {
	tbl *storage.Table
	ix  *storage.Index // nil until the first probe
	// probe is the equi-keys whose operand columns the index covers, in its
	// column order: their bound sides make the probe key. resid is the
	// others — a second equality on a column already used, or the columns
	// beyond a narrow index on a subset (see Table.JoinIndex) — checked on
	// each row the index yields.
	probe, resid []equiKey
	// scanned is the number of rows read to build the index, 0 when the
	// table already held it.
	scanned int64
}

// resolve finds or builds the index for the step's keys (sorted by newCol),
// once.
func (s *indexStep) resolve(keys []equiKey, roff int) {
	if s.ix != nil {
		return
	}
	cols := make([]int, 0, len(keys))
	for _, k := range keys {
		if c := k.newCol - roff; len(cols) == 0 || cols[len(cols)-1] != c {
			cols = append(cols, c)
		}
	}
	ix, scanned := s.tbl.JoinIndex(cols)
	s.scanned = scanned
	covered := ix.Cols()
	for _, k := range keys {
		if n := len(s.probe); n < len(covered) && covered[n] == k.newCol-roff {
			s.probe = append(s.probe, k)
		} else {
			s.resid = append(s.resid, k)
		}
	}
	s.ix = ix
}

// indexedState returns the table whose resident index serves a join step on
// the operand: the term is driven by a delta, and the operand is the state
// of a view kept as a plain table. Recompute terms read every operand whole
// — there the linear model is exact and a flat build table the right
// algorithm — and deltas and aggregate stores carry no index.
func indexedState(term maintain.Term, op operand) *storage.Table {
	if len(term.DeltaRefs) == 0 || op.isDelta {
		return nil
	}
	tbl, _ := op.src.(*storage.Table)
	return tbl
}

// pipeline is one term's fully planned execution: the driver-local filters
// plus the ordered join steps. Probing is depth-first and tuple-at-a-time —
// a partial row is pushed through every remaining step before the next
// match of the current step is tried — so intermediate join results are
// never materialized. A run works in a single scratch row of the term's
// joined width: step i only overwrites its own operand's columns,
// and the predicates evaluated at depth i only read columns bound at depths
// ≤ i, so sibling matches can safely reuse the buffer. The scratch row holds
// only live columns — those a filter, key, select expression, group-by key
// or aggregate input reads (CQ.ReadColumns); the rest stay unset, and
// nothing reads them.
type pipeline struct {
	off         int   // driver's column offset in the joined row
	live        []int // the driver's columns copied into the scratch row
	width       int   // joined-row width
	driverPreds []algebra.Expr
	steps       []joinStep
}

// probeState is one run's scratch: the joined row under construction plus
// per-depth key-projection and key-encoding buffers, and the count of index
// probes made at each depth.
type probeState struct {
	scratch relation.Tuple
	keys    []relation.Tuple
	encs    [][]byte
	probes  []int64
	sink    sinkFn
}

// run pushes the driver rows through the whole pipeline into sink and
// returns the number of index probes it made — the machine's side of the
// index-served steps, whose scans the metric accounted at planning time like
// every other step's.
func (p *pipeline) run(rows []prow, sink sinkFn) int64 {
	st := &probeState{
		scratch: make(relation.Tuple, p.width),
		keys:    make([]relation.Tuple, len(p.steps)),
		encs:    make([][]byte, len(p.steps)),
		probes:  make([]int64, len(p.steps)),
		sink:    sink,
	}
	for i := range p.steps {
		st.keys[i] = make(relation.Tuple, len(p.steps[i].keys))
		st.encs[i] = make([]byte, 0, 64)
	}
	for ri := range rows {
		pr := &rows[ri]
		for _, c := range p.live {
			st.scratch[p.off+c] = pr.row[c]
		}
		ok := true
		for _, f := range p.driverPreds {
			if !algebra.EvalBool(f, st.scratch) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		p.probe(0, pr.count, st)
	}
	var probed int64
	for i, n := range st.probes {
		if n > 0 {
			p.steps[i].idx.ix.CountProbes(n)
			probed += n
		}
	}
	return probed
}

// probe advances one partial row past step depth. Rows that clear the last
// step stream into the sink; sinks must not retain the tuple (the scratch
// row is reused immediately).
func (p *pipeline) probe(depth int, count int64, st *probeState) {
	if depth == len(p.steps) {
		st.sink(st.scratch, count)
		return
	}
	s := &p.steps[depth]
	keys := s.keys
	if s.idx != nil {
		s.idx.resolve(s.keys, s.roff)
		keys = s.idx.probe
	}
	keyT := st.keys[depth][:len(keys)]
	for ki, k := range keys {
		keyT[ki] = st.scratch[k.boundCol]
	}
	enc := keyT.AppendEncoded(st.encs[depth][:0])
	st.encs[depth] = enc
	if s.idx != nil {
		// Resident index: one lookup per arriving partial row.
		st.probes[depth]++
		s.idx.ix.Probe(enc, func(t relation.Tuple, c int64) bool {
			p.emit(depth, t, count*c, st)
			return true
		})
		return
	}
	bt := s.build
	for i := bt.first(enc); i != 0; i = bt.entries[i-1].next {
		// Hash-then-verify: a chain may mix keys; confirm byte equality
		// before emitting.
		if !bytes.Equal(enc, bt.keyOf(i-1)) {
			continue
		}
		e := &bt.entries[i-1]
		p.emit(depth, e.tup, count*e.count, st)
	}
}

// emit joins one match into the scratch row — its live columns — applies
// the step's filters, and recurses into the next step.
func (p *pipeline) emit(depth int, t relation.Tuple, count int64, st *probeState) {
	s := &p.steps[depth]
	for _, c := range s.live {
		st.scratch[s.roff+c] = t[c]
	}
	if s.idx != nil {
		for _, k := range s.idx.resid {
			if !relation.Identical(st.scratch[k.boundCol], st.scratch[k.newCol]) {
				return
			}
		}
	}
	for _, pred := range s.preds {
		if !algebra.EvalBool(pred, st.scratch) {
			return
		}
	}
	p.probe(depth+1, count, st)
}

// sortKeysByNewCol orders equi-key pairs by their candidate-side column, the
// canonical order join indexes and the build cache use.
func sortKeysByNewCol(keys []equiKey) {
	sort.Slice(keys, func(a, b int) bool { return keys[a].newCol < keys[b].newCol })
}

// prow is a partially-joined row with its accumulated multiplicity.
type prow struct {
	row   relation.Tuple
	count int64
}

// pendingFilters collects — and marks applied — every not-yet-applied filter
// whose referenced refs are all bound.
func pendingFilters(cq *algebra.CQ, bound uint64, applied []bool) []algebra.Expr {
	var preds []algebra.Expr
	for fi, f := range cq.Filters {
		if applied[fi] {
			continue
		}
		if cq.FilterRefs(fi)&^bound == 0 {
			preds = append(preds, f)
			applied[fi] = true
		}
	}
	return preds
}

// equiKey describes one usable equi-join key pair for a candidate operand.
type equiKey struct {
	filterIdx int
	boundCol  int // column index (joined row) on the already-bound side
	newCol    int // column index (joined row) on the candidate side
}

// equiKeys finds unapplied equality filters of the form col=col with one
// side entirely in bound refs and the other on candidate ref i.
func equiKeys(cq *algebra.CQ, bound uint64, i int, applied []bool) []equiKey {
	var out []equiKey
	for fi, f := range cq.Filters {
		if applied[fi] {
			continue
		}
		b, ok := f.(*algebra.Binary)
		if !ok || b.Op != algebra.OpEq {
			continue
		}
		lc, lok := b.L.(*algebra.Col)
		rc, rok := b.R.(*algebra.Col)
		if !lok || !rok {
			continue
		}
		lRef, rRef := cq.RefOfColumn(lc.Index), cq.RefOfColumn(rc.Index)
		lBound := bound&(1<<uint(lRef)) != 0
		rBound := bound&(1<<uint(rRef)) != 0
		switch {
		case lBound && rRef == i:
			out = append(out, equiKey{filterIdx: fi, boundCol: lc.Index, newCol: rc.Index})
		case rBound && lRef == i:
			out = append(out, equiKey{filterIdx: fi, boundCol: rc.Index, newCol: lc.Index})
		}
	}
	return out
}
