package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/memory"
	"repro/internal/relation"
)

// This file is the window-wide shared-computation layer: a registry of
// transiently materialized build-side hash tables shared across the Comp
// expressions of one update window. The per-Compute buildCache shares builds across
// the 2^r − 1 terms of *one* Compute; the registry extends the same idea
// across *views* — sibling Comps that scan the same operand (the state or
// pending delta of one view, at one point of the strategy) hash it once and
// every later consumer probes the same physical table. Beyond operands, the
// registry also retains planner-elected *join intermediates*: the raw
// equi-join of two quiescent views, computed once and probed by every
// consuming Comp's composite join step (see pair.go and planTerm).
//
// Correctness rests on epoch versioning: an operand's content is stable
// between installs (conditions C5/C8 put every Comp of V before any reader
// of δV, and a view's state changes only at Inst(V)), so entries are keyed
// by (view, delta?, install-version) — intermediates by both views'
// versions — and the version counters bump on every Install. The
// scheduler's conflict ordering already serializes each Comp against the
// installs of the views it reads, in every execution mode, so a consumer
// always observes the version its planner-computed hints predicted.
//
// The work metric is untouched by construction: plans fix OperandTuples
// from cardinalities before any table is served (see termPlan), so shared
// results change what the machine does, never what the metric counts.
// SharedHits/SharedTuplesSaved report the physical scans elided.
//
// The share-vs-recompute gate is observation-tuned when a cost.ShareTuner
// is attached (SetShareTuner): the registry records, per entry, how many
// hinted consumers actually asked and how the built size compared to the
// planner's estimate, and feeds both back at detach. Repeated windows
// therefore converge on the right sharing set even when estimates are off.

// SharedOperand identifies one shareable operand: a view's pending delta or
// materialized state, at a specific install version (the number of
// Inst(View) expressions executed before the read).
type SharedOperand struct {
	View    string
	Delta   bool
	Version int
}

// InterSpec identifies one shareable join intermediate: an adjacent pair of
// quiescent views at their install versions, equi-joined on the canonical
// signature Sig (see pairSig). Field-compatible with planner.InterKey by
// construction.
type InterSpec struct {
	ViewA string
	VerA  int
	ViewB string
	VerB  int
	Sig   string
}

// SharingHints is the planner's sharing analysis in executor terms: how
// many Comp expressions of the window read each operand, and which operands
// each Comp (by canonical key) reads — the registry's refcount seed and
// release schedule. Hints may overcount (a Comp elided by SkipEmptyDeltas,
// or served by the indexed path, never asks); releases reconcile that.
// Jointly-optimized plans additionally hint elected join intermediates
// (Inter maps) and carry the planner's row estimates (Est maps) so the
// registry can report estimated-vs-observed drift to the share tuner.
type SharingHints struct {
	// Consumers maps each operand to the number of Comps that read it.
	Consumers map[SharedOperand]int
	// ByComp maps a Comp's canonical key (strategy.Expr.Key()) to the
	// operands its terms read.
	ByComp map[string][]SharedOperand
	// InterConsumers and InterByComp mirror Consumers/ByComp for elected
	// join intermediates (nil for operand-only hints).
	InterConsumers map[InterSpec]int
	InterByComp    map[string][]InterSpec
	// EstRows and InterEstRows carry the planner's row estimates (nil when
	// the plan was derived without statistics).
	EstRows      map[SharedOperand]int64
	InterEstRows map[InterSpec]int64
}

// CompKey renders the canonical key of Comp(view, over), byte-identical to
// strategy.Comp.Key() so planner hints and executor lookups agree.
func CompKey(view string, over []string) string {
	sorted := append([]string(nil), over...)
	sort.Strings(sorted)
	return "C:" + view + ":" + strings.Join(sorted, ",")
}

// DefaultSharedBudgetBytes bounds transient materialization when the caller
// does not configure Options.SharedBudgetBytes. Exported so the facade's
// sharing-aware planner prices candidates against the same budget the
// registry will enforce.
const DefaultSharedBudgetBytes = 64 << 20

// defaultSharedBudget is the internal alias the registry uses.
const defaultSharedBudget = DefaultSharedBudgetBytes

// sharedKey identifies one registry entry: the operand plus the canonical
// equi-key column list its hash table is built on.
type sharedKey struct {
	op   SharedOperand
	cols string
}

// sharedEntry is one transiently materialized build table: resident (bt,
// with a budget grant when a window memory budget is attached), spilled to
// disk (sp — the evict-to-spill fallback, probed partition-wise by every
// consumer), or failed (err — the evict-to-recompute fallback; consumers
// build locally). The fields are published through once; the bookkeeping
// fields (rows, bytes set inside once; charged under the registry mutex)
// feed budget accounting.
type sharedEntry struct {
	once    sync.Once
	bt      *buildTable
	sp      *spilledBuild
	err     error
	grant   *memory.Grant
	rows    int64
	bytes   int64
	charged bool
}

// interEntry is one transiently materialized join intermediate: the
// composite rows of ViewA ⋈ ViewB, retained between consumers when the
// gate and the budgets admit them. Unlike sharedEntry it stores rows, not a
// hash table — each Compute hashes them on its own probe columns through
// the per-Compute build cache — and it uses a mutex rather than sync.Once
// so a budget-refused build can serve its requester and drop (later
// consumers rebuild). It implements source so buildKey/buildCache identity
// and saved-tuple accounting work unchanged: Cardinality is the |A|+|B|
// operand scan a reuse elides.
type interEntry struct {
	spec      InterSpec
	srcTuples int64 // |A| + |B| at entry creation

	mu       sync.Mutex
	rows     []prow // non-nil only while retained
	rowCount int64
	bytes    int64
	charged  bool
	grant    *memory.Grant
}

func (e *interEntry) Cardinality() int64 { return e.srcTuples }

// Scan must never run: intermediates are materialized through the registry
// (resolveBuild's pair branch), never scanned as plain operands, and the
// term engine's scan pre-warm skips them.
func (e *interEntry) Scan(func(relation.Tuple, int64) bool) {
	panic("core: interEntry scanned as a plain operand")
}

// SharedEntryStats reports one registry entry's planned-vs-observed life
// for EXPLAIN SHARING.
type SharedEntryStats struct {
	// Name renders the entry: "δV v0", "V v1" or "A⋈B v0/v0" — matching
	// the planner's elected-share names so estimates and observations join.
	Name string
	// Kind is "operand" or "intermediate".
	Kind string
	// Consumers is the planner-hinted consumer count.
	Consumers int
	// Requests counts consumers that actually asked; Hits counts requests
	// served from a retained result.
	Requests, Hits int64
	// Rows and Bytes describe the built result (0 if never built).
	Rows, Bytes int64
	// EstRows is the planner's row estimate (0 without statistics).
	EstRows int64
	// Fate is the entry's final disposition: "retained", "evicted",
	// "spilled", "transient" (served but not kept), "superseded" or
	// "released".
	Fate string
}

// shareObs accumulates one entry's observations for the whole window,
// surviving entry eviction and recreation.
type shareObs struct {
	name      string
	kind      string
	hinted    int
	estRows   int64
	requests  int64
	hits      int64
	builtRows int64
	bytes     int64
	fate      string
}

func (o *shareObs) stats() SharedEntryStats {
	return SharedEntryStats{
		Name: o.name, Kind: o.kind, Consumers: o.hinted,
		Requests: o.requests, Hits: o.hits,
		Rows: o.builtRows, Bytes: o.bytes, EstRows: o.estRows, Fate: o.fate,
	}
}

// SharedRegistry is the window-wide shared-result store. One registry is
// attached to a warehouse for the duration of one update window (see
// AttachSharing) and detached — reporting its footprint — at the end.
// Entries hold refcounts seeded from the planner's hints and are dropped
// eagerly when their last hinted consumer releases, when their view's
// version advances, or when retention would exceed the byte budget.
type SharedRegistry struct {
	mu             sync.Mutex
	budget         int64
	tuner          *cost.ShareTuner
	hints          *SharingHints
	versions       map[string]int        // installs executed per view
	remaining      map[SharedOperand]int // hinted consumers not yet released
	interRemaining map[InterSpec]int
	entries        map[sharedKey]*sharedEntry
	inters         map[InterSpec]*interEntry
	opObs          map[SharedOperand]*shareObs
	interObs       map[InterSpec]*shareObs
	used           int64 // bytes of retained resident entries
	bytesPeak      int64
	created        int
	intersBuilt    int
	evicted        int
	evictedToSpill int
}

// SharedStats summarizes a detached registry for reporting.
type SharedStats struct {
	// BytesPeak is the high-water transient footprint, counting entries
	// that were built but not retained.
	BytesPeak int64
	// Entries is the number of shared operand tables materialized.
	Entries int
	// Inters is the number of shared join intermediates materialized.
	Inters int
	// Evicted counts tables dropped by the budget gate rather than by
	// normal end-of-life release — the evict-to-recompute fallback: every
	// later consumer rebuilds locally.
	Evicted int
	// EvictedToSpill counts over-budget tables that degraded to shared
	// spill files instead of being dropped (only with a window memory
	// budget attached). Spilling is tried before recompute: consumers
	// re-read partitions, which is cheaper than rebuilding per consumer.
	EvictedToSpill int
	// Detail lists every hinted entry's planned-vs-observed life, sorted
	// by name.
	Detail []SharedEntryStats
}

// SetShareTuner attaches (or clears) the observation-tuned share gate.
// Windows executed after attachment gate retention through the tuner and
// feed their observations back at detach. Clones share the pointer.
func (w *Warehouse) SetShareTuner(t *cost.ShareTuner) { w.tuner = t }

// ShareTuner returns the attached tuner (nil for the static gate).
func (w *Warehouse) ShareTuner() *cost.ShareTuner { return w.tuner }

// SetPlannedSharing records jointly-optimized sharing hints for the coming
// window; AttachSharing prefers them over caller-supplied analysis. Pass
// nil to clear. Clones inherit the pointer, so planning on the original and
// executing on a clone works.
func (w *Warehouse) SetPlannedSharing(h *SharingHints) { w.plannedSharing = h }

// PlannedSharing returns the recorded jointly-optimized hints, if any.
func (w *Warehouse) PlannedSharing() *SharingHints { return w.plannedSharing }

// AttachSharing installs a shared-computation registry on the warehouse for
// the coming window, seeded with the planner's hints. It reports false —
// and attaches nothing — when sharing is disabled by options, a registry is
// already attached, or there are no hints. Not safe to call while
// expressions execute; callers attach before the window's first step.
func (w *Warehouse) AttachSharing(h *SharingHints) bool {
	if !w.opts.ShareComputation || w.shared != nil || h == nil {
		return false
	}
	budget := w.opts.SharedBudgetBytes
	if budget <= 0 {
		budget = defaultSharedBudget
	}
	remaining := make(map[SharedOperand]int, len(h.Consumers))
	for op, n := range h.Consumers {
		remaining[op] = n
	}
	interRemaining := make(map[InterSpec]int, len(h.InterConsumers))
	for spec, n := range h.InterConsumers {
		interRemaining[spec] = n
	}
	w.shared = &SharedRegistry{
		budget:         budget,
		tuner:          w.tuner,
		hints:          h,
		versions:       make(map[string]int),
		remaining:      remaining,
		interRemaining: interRemaining,
		entries:        make(map[sharedKey]*sharedEntry),
		inters:         make(map[InterSpec]*interEntry),
		opObs:          make(map[SharedOperand]*shareObs),
		interObs:       make(map[InterSpec]*shareObs),
	}
	return true
}

// DetachSharing removes the registry (dropping every entry), feeds its
// observations to the attached share tuner, and returns its stats. Safe to
// call when nothing is attached.
func (w *Warehouse) DetachSharing() SharedStats {
	r := w.shared
	w.shared = nil
	if r == nil {
		return SharedStats{}
	}
	r.mu.Lock()
	for _, e := range r.entries {
		e.grant.Release()
	}
	inters := make([]*interEntry, 0, len(r.inters))
	for _, e := range r.inters {
		inters = append(inters, e)
	}
	st := SharedStats{
		BytesPeak: r.bytesPeak, Entries: r.created, Inters: r.intersBuilt,
		Evicted: r.evicted, EvictedToSpill: r.evictedToSpill,
	}
	obs := make([]*shareObs, 0, len(r.opObs)+len(r.interObs))
	for _, o := range r.opObs {
		obs = append(obs, o)
	}
	for _, o := range r.interObs {
		obs = append(obs, o)
	}
	r.mu.Unlock()
	for _, e := range inters {
		e.mu.Lock()
		e.grant.Release()
		e.grant, e.rows = nil, nil
		e.mu.Unlock()
	}
	for _, o := range obs {
		// Realized reuse is requests beyond the first — independent of
		// whether the budget retained the result, so a gate that refused a
		// genuinely reused entry can learn to flip back.
		reuse := o.requests - 1
		if reuse < 0 {
			reuse = 0
		}
		w.tuner.Observe(o.hinted, reuse, o.estRows, o.builtRows)
		st.Detail = append(st.Detail, o.stats())
	}
	sort.Slice(st.Detail, func(i, j int) bool { return st.Detail[i].Name < st.Detail[j].Name })
	return st
}

// sharedUse is one Compute's handle on the registry: the Comp's canonical
// key (for release) plus per-Compute hit/miss/saved counters feeding
// CompReport.
type sharedUse struct {
	reg    *SharedRegistry
	comp   string
	hits   atomic.Int64
	misses atomic.Int64
	saved  atomic.Int64
}

// fill copies the counters into a CompReport; a nil receiver (no registry
// attached) leaves the report untouched.
func (su *sharedUse) fill(rep *CompReport) {
	if su == nil {
		return
	}
	rep.SharedHits = int(su.hits.Load())
	rep.SharedMisses = int(su.misses.Load())
	rep.SharedTuplesSaved = su.saved.Load()
}

// shouldShare is the registry's retention gate: the attached tuner when one
// is calibrated, the static estimate gate otherwise (ShareTuner's nil and
// uncalibrated receivers defer to the static gate themselves).
func (r *SharedRegistry) shouldShare(consumers int, bytes, used int64) bool {
	return r.tuner.ShouldShare(consumers, bytes, r.budget, used)
}

// operandName renders an operand in the planner's elected-share notation.
func operandName(op SharedOperand) string {
	name := op.View
	if op.Delta {
		name = "δ" + name
	}
	return fmt.Sprintf("%s v%d", name, op.Version)
}

// interName renders an intermediate in the planner's notation.
func interName(spec InterSpec) string {
	return fmt.Sprintf("%s⋈%s v%d/v%d", spec.ViewA, spec.ViewB, spec.VerA, spec.VerB)
}

// opObsFor returns (creating if needed) the window-long observation record
// of one operand. Callers hold r.mu.
func (r *SharedRegistry) opObsFor(op SharedOperand, consumers int) *shareObs {
	o := r.opObs[op]
	if o == nil {
		o = &shareObs{name: operandName(op), kind: "operand", hinted: consumers, fate: "transient"}
		if r.hints != nil {
			o.estRows = r.hints.EstRows[op]
		}
		r.opObs[op] = o
	}
	return o
}

// interObsFor is opObsFor for intermediates. Callers hold r.mu.
func (r *SharedRegistry) interObsFor(spec InterSpec) *shareObs {
	o := r.interObs[spec]
	if o == nil {
		o = &shareObs{name: interName(spec), kind: "intermediate", fate: "transient"}
		if r.hints != nil {
			o.hinted = r.hints.InterConsumers[spec]
			o.estRows = r.hints.InterEstRows[spec]
		}
		r.interObs[spec] = o
	}
	return o
}

// acquire serves a build request from the registry. The bool reports
// whether the registry served it: false when the operand is not worth
// sharing (fewer than two outstanding consumers and no existing entry) or
// when the entry degraded to recompute — the caller then builds locally.
// The first requester builds (recording the miss); everyone else reuses
// (recording the hit and the operand scan saved).
//
// Admission is budget-aware when a window memory budget is attached
// (satellite of the -share-budget-mb cliff): an over-budget entry degrades
// per-entry — first to shared spill files every consumer probes
// partition-wise, and only if spilling itself fails to recompute — instead
// of being refused outright. Without a memory budget the legacy gate
// applies: the table is built resident and retention alone is gated.
func (r *SharedRegistry) acquire(env *evalEnv, su *sharedUse, br buildReq) (buildRes, bool, error) {
	r.mu.Lock()
	op := SharedOperand{View: br.view, Delta: br.isDelta, Version: r.versions[br.view]}
	consumers := r.remaining[op]
	key := sharedKey{op: op, cols: colsKey(br.cols)}
	e := r.entries[key]
	obs := r.opObsFor(op, consumers)
	obs.requests++
	if e == nil {
		if consumers < 2 {
			r.mu.Unlock()
			return buildRes{}, false, nil
		}
		e = &sharedEntry{}
		r.entries[key] = e
		r.created++
	}
	r.mu.Unlock()

	built := false
	e.once.Do(func() {
		built = true
		rows := env.buildRows(br.src)
		e.rows = br.src.Cardinality()
		width := 1
		if len(rows) > 0 {
			width = len(rows[0].row)
		}
		e.bytes = cost.EstimateMaterializedBytes(e.rows, width)
		mu := env.mem
		if mu == nil {
			e.bt = newBuildTable(rows, br.cols)
			return
		}
		// Unified-budget admission: resident only when both the share gate
		// and the window budget admit it; spill otherwise.
		if r.shouldShare(consumers, e.bytes, r.sharedUsed()) {
			if g, ok := mu.mm.budget.TryReserveUnder(e.bytes, mu.mm.resLimit); ok {
				e.bt = newBuildTable(rows, br.cols)
				e.grant = g
				return
			}
		}
		e.sp, e.err = mu.mm.spill(env.ctx, mu, rows, br.cols, e.bytes)
	})
	if built {
		su.misses.Add(1)
		r.settle(key, e, consumers)
	} else {
		su.hits.Add(1)
		su.saved.Add(e.rows)
		r.mu.Lock()
		obs.hits++
		r.mu.Unlock()
	}
	switch {
	case e.err != nil:
		return buildRes{}, false, nil // degraded to recompute: build locally
	case e.sp != nil:
		return buildRes{sp: e.sp}, true, nil
	default:
		return buildRes{bt: e.bt}, true, nil
	}
}

// sharedUsed returns the retained-entry footprint under the registry lock.
func (r *SharedRegistry) sharedUsed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// settle records a freshly built entry's fate. For legacy (no memory
// budget) entries it applies the reuse-vs-recompute retention gate; for
// budget-admitted entries it charges the share budget; for spilled or
// failed entries it counts the degradation, dropping failed ones so later
// consumers fall back to local builds.
func (r *SharedRegistry) settle(key sharedKey, e *sharedEntry, consumers int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	obs := r.opObsFor(key.op, consumers)
	obs.builtRows, obs.bytes = e.rows, e.bytes
	if r.entries[key] != e {
		// Released or superseded while building. The requester still uses
		// the result this term; the grant (if any) is returned now, the
		// brief accounting optimism ending with the term.
		e.grant.Release()
		return
	}
	switch {
	case e.err != nil:
		delete(r.entries, key)
		r.evicted++
		obs.fate = "evicted"
		return
	case e.sp != nil:
		r.evictedToSpill++
		obs.fate = "spilled"
		return
	}
	if peak := r.used + e.bytes; peak > r.bytesPeak {
		r.bytesPeak = peak
	}
	if e.grant == nil && !r.shouldShare(consumers, e.bytes, r.used) {
		delete(r.entries, key)
		r.evicted++
		obs.fate = "evicted"
		return
	}
	e.charged = true
	r.used += e.bytes
	obs.fate = "retained"
}

// interFor matches a runtime pair (views, signature, current versions)
// against the hinted intermediates of one Comp, returning the registry's
// entry — created on first ask — when the pair is elected. planTerm calls
// it while planning a composite join step; a false return means the pair is
// not elected (or its versions drifted under a fallback strategy) and the
// term joins the operands separately.
func (r *SharedRegistry) interFor(comp, viewA, viewB, sig string, srcA, srcB source) (*interEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hints == nil || len(r.hints.InterByComp) == 0 {
		return nil, false
	}
	for _, spec := range r.hints.InterByComp[comp] {
		if spec.ViewA != viewA || spec.ViewB != viewB || spec.Sig != sig {
			continue
		}
		if spec.VerA != r.versions[viewA] || spec.VerB != r.versions[viewB] {
			continue
		}
		e := r.inters[spec]
		if e == nil {
			if r.interRemaining[spec] < 2 {
				return nil, false
			}
			e = &interEntry{spec: spec, srcTuples: srcA.Cardinality() + srcB.Cardinality()}
			r.inters[spec] = e
		}
		return e, true
	}
	return nil, false
}

// acquireInter returns a hinted intermediate's composite rows, computing
// them on first ask. Retention is gated like operand entries — the tuned
// share gate against the shared byte budget, plus a window memory-budget
// reservation when one is attached; a refused build serves its requester
// and drops (rebuild per consumer), so correctness never depends on
// admission. Lock order is e.mu → r.mu, the opposite of the drop paths,
// which collect entries under r.mu and lock e.mu only after releasing it.
func (r *SharedRegistry) acquireInter(env *evalEnv, su *sharedUse, req *interReq) ([]prow, error) {
	e := req.entry
	e.mu.Lock()
	defer e.mu.Unlock()
	r.mu.Lock()
	obs := r.interObsFor(e.spec)
	obs.requests++
	consumers := r.interRemaining[e.spec]
	r.mu.Unlock()
	if e.rows != nil {
		su.hits.Add(1)
		su.saved.Add(e.srcTuples)
		r.mu.Lock()
		obs.hits++
		r.mu.Unlock()
		return e.rows, nil
	}
	rowsA := env.buildRows(req.srcA)
	rowsB := env.buildRows(req.srcB)
	rows := joinRows(rowsA, rowsB, req.colsA, req.colsB, req.widthA, req.widthB)
	su.misses.Add(1)
	e.rowCount = int64(len(rows))
	e.bytes = cost.EstimateMaterializedBytes(e.rowCount, req.widthA+req.widthB)

	retain := r.shouldShare(consumers, e.bytes, r.sharedUsed())
	var grant *memory.Grant
	if retain {
		if mu := env.mem; mu != nil {
			g, ok := mu.mm.budget.TryReserveUnder(e.bytes, mu.mm.resLimit)
			if !ok {
				retain = false
			} else {
				grant = g
			}
		}
	}
	r.mu.Lock()
	obs.builtRows, obs.bytes = e.rowCount, e.bytes
	r.intersBuilt++
	if peak := r.used + e.bytes; peak > r.bytesPeak {
		r.bytesPeak = peak
	}
	if retain && r.inters[e.spec] == e {
		e.rows = rows
		e.grant = grant
		e.charged = true
		r.used += e.bytes
		obs.fate = "retained"
	} else {
		// Serve-and-drop: the requester keeps these rows for its Compute,
		// the registry keeps nothing.
		grant.Release()
		r.evicted++
		obs.fate = "evicted"
		delete(r.inters, e.spec)
	}
	r.mu.Unlock()
	return rows, nil
}

// releaseComp retires one Comp's interest in its hinted operands and
// intermediates; entries whose last consumer releases drop immediately, so
// transient results live no longer than their final reader.
func (r *SharedRegistry) releaseComp(comp string) {
	r.mu.Lock()
	var drop []*interEntry
	for _, op := range r.hints.ByComp[comp] {
		n, ok := r.remaining[op]
		if !ok {
			continue
		}
		n--
		r.remaining[op] = n
		if n <= 0 {
			r.dropOp(op)
		}
	}
	if r.hints.InterByComp != nil {
		for _, spec := range r.hints.InterByComp[comp] {
			n, ok := r.interRemaining[spec]
			if !ok {
				continue
			}
			n--
			r.interRemaining[spec] = n
			if n <= 0 {
				if e := r.dropInter(spec, "released"); e != nil {
					drop = append(drop, e)
				}
			}
		}
	}
	r.mu.Unlock()
	for _, e := range drop {
		e.release()
	}
}

// bumpVersion advances a view's install version, invalidating (and
// dropping) every entry — operand or intermediate — built on the
// superseded delta or state.
func (r *SharedRegistry) bumpVersion(name string) {
	r.mu.Lock()
	r.versions[name]++
	nv := r.versions[name]
	for key, e := range r.entries {
		if key.op.View == name && key.op.Version < nv {
			if e.charged {
				r.used -= e.bytes
			}
			e.grant.Release()
			delete(r.entries, key)
			if o := r.opObs[key.op]; o != nil {
				o.fate = "superseded"
			}
		}
	}
	var drop []*interEntry
	for spec := range r.inters {
		if (spec.ViewA == name && spec.VerA < nv) || (spec.ViewB == name && spec.VerB < nv) {
			if e := r.dropInter(spec, "superseded"); e != nil {
				drop = append(drop, e)
			}
		}
	}
	r.mu.Unlock()
	for _, e := range drop {
		e.release()
	}
}

// dropOp removes every entry of one operand (any key-column list). Callers
// hold r.mu.
func (r *SharedRegistry) dropOp(op SharedOperand) {
	for key, e := range r.entries {
		if key.op == op {
			if e.charged {
				r.used -= e.bytes
			}
			e.grant.Release()
			delete(r.entries, key)
			if o := r.opObs[op]; o != nil && o.fate == "retained" {
				o.fate = "released"
			}
		}
	}
}

// dropInter uncharges and unmaps one intermediate, returning the entry
// whose rows/grant the caller must release *after* dropping r.mu (lock
// order: entry mutexes are taken only outside the registry lock). Callers
// hold r.mu.
func (r *SharedRegistry) dropInter(spec InterSpec, fate string) *interEntry {
	e := r.inters[spec]
	if e == nil {
		return nil
	}
	if e.charged {
		r.used -= e.bytes
	}
	delete(r.inters, spec)
	if o := r.interObs[spec]; o != nil && o.fate == "retained" {
		o.fate = fate
	}
	return e
}

// release frees a dropped intermediate's retained state. Must be called
// without holding the registry lock.
func (e *interEntry) release() {
	e.mu.Lock()
	e.grant.Release()
	e.grant, e.rows = nil, nil
	e.mu.Unlock()
}
