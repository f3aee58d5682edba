package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/delta"
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
	// (bench/layers.go) reads them. ROADMAP item 25 deletes them.
	SharedHits, SharedMisses int
	SharedTuplesSaved        int64
	// SpillCount, SpilledBytes and SpillReReadBytes are inert and always 0 —
	// no build spills since the window memory budget is gone; they stay
	// because the frozen benchmark (bench/layers.go) reads them. ROADMAP
	// item 25 deletes them.
	SpillCount                     int
	SpilledBytes, SpillReReadBytes int64
	// IndexProbes counts the lookups made in resident join indexes
	// (storage.Index): one per partial row arriving at a join step whose
	// operand an index serves. IndexRows counts the rows those lookups
	// yielded, before residual keys and filters. IndexTuplesSaved totals the
	// operand tuples OperandTuples charges for those steps and no scan read:
	// their operands' cardinalities, less the rows scanned to build an index
	// that was not resident yet.
	IndexProbes, IndexRows, IndexTuplesSaved int64
}

// Add folds o into c.
func (c *EngineCounters) Add(o EngineCounters) {
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CacheTuplesSaved += o.CacheTuplesSaved
	c.IndexProbes += o.IndexProbes
	c.IndexRows += o.IndexRows
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
	terms, err := w.compiledComp(v, over)
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
	ops, err := w.bindStates(v.def)
	if err != nil {
		return rep, err
	}
	ops.delta = make([]source, len(v.def.Refs))
	for i, ref := range v.def.Refs {
		if d := deltas[ref.View]; d != nil {
			ops.delta[i] = deltaSource{d}
		}
	}
	v.mu.Lock()
	out := v.pendingLocked()
	v.mu.Unlock()
	env := &evalEnv{ctx: ctx}
	return rep, runTerms(env, v.def, terms, ops, out, &rep)
}

// operands binds one run's references to their sources: state[i] is
// reference i's current state, delta[i] its view's pending delta (nil in a
// run that binds no deltas). A term reads the delta of the references in
// its delta mask and the state of the others.
type operands struct {
	state, delta []source
}

// of returns reference ref's operand in a term whose delta mask is mask.
func (o operands) of(ref int, mask uint64) source {
	if mask&(1<<uint(ref)) != 0 {
		return o.delta[ref]
	}
	return o.state[ref]
}

// bindStates returns the operands of a definition over w's current states.
func (w *Warehouse) bindStates(cq *algebra.CQ) (operands, error) {
	ops := operands{state: make([]source, len(cq.Refs))}
	for i, ref := range cq.Refs {
		child := w.views[ref.View]
		if child == nil {
			return ops, fmt.Errorf("core: unknown referenced view %q", ref.View)
		}
		if child.agg != nil {
			ops.state[i] = child.agg
		} else {
			ops.state[i] = child.table
		}
	}
	return ops, nil
}

// evalEnv is one run of the term engine (runTerms): what its terms share —
// the build tables, the scan memo, the step sides and the counters. A run
// belongs to one goroutine.
type evalEnv struct {
	cache buildCache
	scans scanCache
	sides []stepSide
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

// stepSide is what one join step probes in one run: the build table of its
// operand, or the resident index of the plain table it reads.
type stepSide struct {
	build *buildTable
	idx   indexStep
}

// runTerm runs one term along pipeline pl over the operands its delta mask
// selects: materialize the driver, give each step its side — a build table
// through the run's cache (which owns them), or the plain table whose index
// serves it — and run the pipeline into the sink. It returns the term's
// linear-metric work: the driver's cardinality plus every step operand's,
// whether a scan, the cache or an index served the step. A panic in the
// term — an operand scan or an operator — comes back as its error.
func runTerm(ti int, pl *pipeline, ops operands, mask uint64, sink *sink, env *evalEnv) (scanned int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredErr(fmt.Sprintf("term %d", ti), r)
		}
	}()
	driver := ops.of(pl.driver, mask)
	rows := env.scans.get(driver)
	scanned = driver.Cardinality()
	sides := env.sides[:0]
	for i := range pl.steps {
		s := &pl.steps[i]
		src := ops.of(s.ref, mask)
		scanned += src.Cardinality()
		if s.indexed {
			sides = append(sides, stepSide{idx: indexStep{tbl: src.(*storage.Table)}})
			env.ctr.IndexTuplesSaved += src.Cardinality()
		} else {
			sides = append(sides, stepSide{build: env.build(src, s)})
		}
	}
	env.sides = sides
	probes, yielded := pl.run(rows, sides, sink.add)
	env.ctr.IndexProbes += probes
	env.ctr.IndexRows += yielded
	for i := range sides {
		env.ctr.IndexTuplesSaved -= sides[i].idx.scanned
	}
	return scanned, nil
}

// joinStep is one compiled hash-join step: probe the partial row against
// operand ref — through a build table, or through the resident index of a
// plain table's state — then apply the filters that just became evaluable.
type joinStep struct {
	ref  int // the operand's reference index
	keys []equiKey
	roff int
	// live is the operand's columns that a match copies into the scratch
	// row (liveColumns).
	live  []int
	preds []algebra.Expr
	// indexed marks a step that reads a plain table's state through its
	// resident index (delta-driven terms only); every other step probes a
	// build table.
	indexed bool
	// cols is the operand-local key columns in newCol order: one per key for
	// a build table, and colsKey their build-cache key; each column once for
	// an index.
	cols    []int
	colsKey string
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

// resolve finds or builds the index for the step's key columns, once.
func (s *indexStep) resolve(step *joinStep) {
	if s.ix != nil {
		return
	}
	ix, scanned := s.tbl.JoinIndex(step.cols)
	s.scanned = scanned
	covered := ix.Cols()
	if len(step.keys) == len(covered) && slices.Equal(covered, step.cols) {
		s.probe = step.keys // the compiled keys, shared read-only
	} else {
		for _, k := range step.keys {
			if n := len(s.probe); n < len(covered) && covered[n] == k.newCol-step.roff {
				s.probe = append(s.probe, k)
			} else {
				s.resid = append(s.resid, k)
			}
		}
	}
	s.ix = ix
}

// pipeline is one term's compiled execution for one driver: the
// driver-local filters plus the ordered join steps. Probing is depth-first
// and tuple-at-a-time — a partial row is pushed through every remaining step
// before the next match of the current step is tried — so intermediate join
// results are never materialized. A run works in a single scratch row of
// the term's joined width: step i only overwrites its own operand's columns,
// and the predicates evaluated at depth i only read columns bound at depths
// ≤ i, so sibling matches can safely reuse the buffer. The scratch row holds
// only live columns — those a filter, key, select expression, group-by key
// or aggregate input reads (CQ.ReadColumns); the rest stay unset, and
// nothing reads them. A pipeline is immutable once compiled; what a run
// probes comes in its sides.
type pipeline struct {
	driver      int   // the driver's reference index
	off         int   // driver's column offset in the joined row
	live        []int // the driver's columns copied into the scratch row
	width       int   // joined-row width
	driverPreds []algebra.Expr
	steps       []joinStep
}

// probeState is one run's scratch: the joined row under construction plus
// per-depth key-projection and key-encoding buffers, what each step probes,
// the count of index probes made at each depth and of the rows they
// yielded.
type probeState struct {
	scratch relation.Tuple
	keys    []relation.Tuple
	encs    [][]byte
	sides   []stepSide
	probes  []int64
	yielded int64
	sink    sinkFn
}

// run pushes the driver rows through the whole pipeline into sink, sides[i]
// being what step i probes, and returns the number of index probes it made
// and of the rows they yielded before residual keys and filters — the
// machine's side of the index-served steps, whose scans the metric
// accounted like every other step's.
func (p *pipeline) run(rows []prow, sides []stepSide, sink sinkFn) (probes, yielded int64) {
	st := &probeState{
		scratch: make(relation.Tuple, p.width),
		keys:    make([]relation.Tuple, len(p.steps)),
		encs:    make([][]byte, len(p.steps)),
		sides:   sides,
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
	for i, n := range st.probes {
		if n > 0 {
			sides[i].idx.ix.CountProbes(n)
			probes += n
		}
	}
	return probes, st.yielded
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
	side := &st.sides[depth]
	keys := s.keys
	if s.indexed {
		side.idx.resolve(s)
		keys = side.idx.probe
	}
	keyT := st.keys[depth][:len(keys)]
	for ki, k := range keys {
		keyT[ki] = st.scratch[k.boundCol]
	}
	enc := keyT.AppendEncoded(st.encs[depth][:0])
	st.encs[depth] = enc
	if s.indexed {
		// Resident index: one lookup per arriving partial row.
		st.probes[depth]++
		side.idx.ix.Probe(enc, func(t relation.Tuple, c int64) bool {
			st.yielded++
			p.emit(depth, t, count*c, st)
			return true
		})
		return
	}
	bt := side.build
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
	for _, k := range st.sides[depth].idx.resid {
		if !relation.Identical(st.scratch[k.boundCol], st.scratch[k.newCol]) {
			return
		}
	}
	for _, pred := range s.preds {
		if !algebra.EvalBool(pred, st.scratch) {
			return
		}
	}
	p.probe(depth+1, count, st)
}

// prow is a partially-joined row with its accumulated multiplicity.
type prow struct {
	row   relation.Tuple
	count int64
}
