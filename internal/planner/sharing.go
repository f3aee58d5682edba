package planner

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/strategy"
)

// This file is the planner side of window-wide shared computation: a static
// walk of the strategy that identifies the operands (a view's pending delta
// or materialized state, at a specific point of the install sequence) that
// more than one Comp expression reads. The executor's shared-result
// registry (internal/core) is seeded with this analysis: operands with
// several consumers are materialized once and reused; operands with one
// consumer are never retained.
//
// The walk mirrors the linear work metric's operand model (cost.CompWork):
// for Comp(V, over) with r delta-bound references, a reference in over
// contributes its delta (in every term) and — when r > 1 — its pre-state
// (in the terms where another reference carries the delta); a reference
// outside over contributes only its state. Which *version* of an operand a
// Comp reads is determined by the installs preceding it: Inst(X) both
// consumes δX and changes X's state, so the walk advances X's version
// counter at each Inst(X). The scheduler's conflict ordering preserves
// exactly these read-after-install relations in every execution mode, so
// the hints remain valid under staged, DAG and term-parallel execution.
//
// Beyond PR 5's per-operand analysis, AnalyzeSharingOpts elects *join
// intermediates*: when several Comps join the same pair of quiescent views
// on the same keys, the pair's join is worth materializing once for the
// whole window. Election — for intermediates and operands alike — is a
// greedy savings-per-byte admission against the window's shared byte
// budget, optionally corrected by a cost.ShareTuner's observed hit-rate and
// size drift, so the reported savings are what the budget actually admits.

// OperandKey identifies one shareable operand in a strategy: a view's delta
// or state, at the given install version (installs of the view executed
// before the read).
type OperandKey struct {
	View    string
	Delta   bool
	Version int
}

// InterKey identifies one shareable join intermediate: the canonical
// (ViewA < ViewB, adjacent references) pair of quiescent views at their
// install versions, joined on the equi-key signature Sig. Field-compatible
// with core.InterSpec by construction.
type InterKey struct {
	ViewA string
	VerA  int
	ViewB string
	VerB  int
	Sig   string
}

// PairHint names one join-intermediate candidate of a derived view's
// definition: two distinct adjacent FROM-clause references joined by at
// least one equi-join predicate. exec adapts core.PairCandidates.
type PairHint struct {
	A, B string
	Sig  string
}

// ElectedShare is one sharing candidate the election considered, for
// inspection (EXPLAIN SHARING).
type ElectedShare struct {
	// Name renders the candidate: "δVIEW v0", "VIEW v1" or "A⋈B v0/v0".
	Name string
	// Kind is "operand" or "intermediate".
	Kind string
	// Consumers is the number of Comp expressions reading it.
	Consumers int
	// EstRows and EstBytes are the planning estimates of the materialized
	// result (bytes after any tuner size correction).
	EstRows  int64
	EstBytes int64
	// EstSavedTuples is the operand scans sharing it elides.
	EstSavedTuples int64
	// Admitted reports whether the byte budget (and the tuned gate)
	// admitted the candidate.
	Admitted bool
}

// SharingPlan is the result of AnalyzeSharing / AnalyzeSharingOpts.
type SharingPlan struct {
	// Consumers maps each operand to the number of Comp expressions
	// reading it. Operands read once are included (the executor's gate
	// needs the complete refcount schedule). Operand reads served by an
	// admitted join intermediate are excluded.
	Consumers map[OperandKey]int
	// ByComp maps each Comp's canonical key to the operands its
	// maintenance terms read, in reference order.
	ByComp map[string][]OperandKey
	// InterConsumers and InterByComp mirror Consumers/ByComp for the
	// admitted join intermediates (nil without pair hints).
	InterConsumers map[InterKey]int
	InterByComp    map[string][]InterKey
	// EstRows and InterEstRows carry the planning row estimates the
	// executor feeds back to the share tuner (nil without stats).
	EstRows      map[OperandKey]int64
	InterEstRows map[InterKey]int64
	// SharedOperands counts operands with at least two consumers.
	SharedOperands int
	// SharedIntermediates counts admitted join intermediates.
	SharedIntermediates int
	// EstimatedSavedTuples is the planning-statistics estimate of the
	// operand tuples sharing saves, clamped to what the byte budget
	// admits. Zero when no stats are supplied.
	EstimatedSavedTuples int64
	// Elected lists every candidate the election considered, admitted or
	// not, in admission-priority order (only with stats).
	Elected []ElectedShare
}

// SharingOptions parameterize AnalyzeSharingOpts.
type SharingOptions struct {
	// Stats sizes the savings estimates; without it the analysis returns
	// structure only (no election, no estimates).
	Stats cost.Stats
	// BudgetBytes is the window's shared byte budget the election clamps
	// against; 0 means unbounded (every multi-consumer candidate admits).
	BudgetBytes int64
	// Width returns a view's tuple width in columns (nil: a nominal 4),
	// used to price candidates in bytes.
	Width func(view string) int
	// Pairs returns a view definition's join-intermediate candidates
	// (nil: operand sharing only).
	Pairs func(view string) []PairHint
	// Tuner, when calibrated, gates election by observed hit-rate and
	// corrects byte estimates by observed size drift.
	Tuner *cost.ShareTuner
}

// AnalyzeSharing walks a strategy and returns its cross-view sharing
// structure. refs supplies each derived view's FROM-clause reference list
// (one entry per reference; repeat for self-joins) — exec.RefsOf adapts a
// warehouse. stats, when non-nil, sizes the estimated savings; planning
// proceeds without it. Estimates are unclamped (no byte budget) and no
// intermediates are elected; see AnalyzeSharingOpts.
func AnalyzeSharing(s strategy.Strategy, refs func(view string) []string, stats cost.Stats) SharingPlan {
	return AnalyzeSharingOpts(s, refs, SharingOptions{Stats: stats})
}

// nominalShareWidth is the per-view tuple width assumed when no Width
// function is supplied, matching the cost model's nominal build width.
const nominalShareWidth = 4

// AnalyzeSharingOpts is AnalyzeSharing with joint election: it additionally
// elects join intermediates from opts.Pairs, clamps the savings estimate to
// what opts.BudgetBytes admits (greedy by savings-per-byte), and applies the
// tuned share gate when opts.Tuner is calibrated. A Comp whose pair reads
// are served by an admitted intermediate no longer counts as a consumer of
// the pair's individual state operands.
func AnalyzeSharingOpts(s strategy.Strategy, refs func(view string) []string, opts SharingOptions) SharingPlan {
	sh := compileSharing(s, refs, opts)
	seq := make([]int32, len(s))
	for i := range seq {
		seq[i] = int32(i)
	}
	sh.analyze(seq)
	return sh.plan()
}

// sharer is the compiled sharing analysis of a fixed set of expressions: the
// one walk and election behind AnalyzeSharingOpts (a strategy, analyzed once)
// and PruneShared (the VDAG's expressions, every candidate sequence of them
// analyzed without allocating). Views are dense ids; an operand (view,
// version, delta) and an intermediate (pair, version of A, version of B) pack
// into integers that index flat tables.
type sharer struct {
	opts  SharingOptions
	exprs []strategy.Expr
	nodes []shareNode // parallel to exprs
	views []string
	pairs []sharePair
	nVer  int32 // versions a view is read at: the most installs of one view, plus 1

	op, inter []shareInfo // per operand id / intermediate id; only with statistics

	// One walk's reads.
	version   []int32 // per view: installs so far
	consumers []int32 // per operand id: Comps reading it
	interN    []int32 // per intermediate id: Comps nominating it
	noms      []nomination

	// One election's outcome.
	opCands, interCands []shareCand
	admittedOp          []int32 // per operand id: index+1 of its admitted candidate
	saved               int64
}

// shareNode is one expression as the walk sees it: an Inst bumps a version; a
// Comp reads its distinct operands (deltas first, each in reference order)
// and nominates join pairs of quiescent views.
type shareNode struct {
	inst  int32 // the view installed; −1 for a Comp
	reads []shareRead
	ops   []int32 // the latest walk's operand id per read, −1 once displaced
	pairs []pairRead
}

type shareRead struct {
	view  int32
	delta bool
}

// pairRead is a pair one Comp nominates; disp reports, per side, that
// admitting it displaces the Comp's read of that view's state (no other
// reference to the view is left reading it).
type pairRead struct {
	pair int32
	disp [2]bool
}

type sharePair struct {
	hint  PairHint
	views [2]int32
}

// shareInfo is the part of a candidate no walk changes.
type shareInfo struct {
	name  string   // as ElectedShare renders it; with sig, the election's tie-break
	sig   string   // an intermediate's join signature, which its name omits
	rows  int64    // materialized rows; noStats when statistics are missing
	gain  int64    // operand tuples one more consumer saves
	bytes int64    // materialized bytes, after any tuner size correction
	sides [2]int32 // an intermediate's two views' state operands
}

const noStats = -1 << 63

// nomination is one Comp's vote for an intermediate.
type nomination struct {
	inter, node int32
	disp        [2]bool
}

// shareCand is one election candidate.
type shareCand struct {
	id, n    int32 // operand or intermediate id; Comps reading it
	saved    int64
	perByte  float64 // saved per byte when the election began: the admission priority
	admitted bool
}

func (sh *sharer) opID(view, version int32, delta bool) int32 {
	id := (view*sh.nVer + version) * 2
	if delta {
		id++
	}
	return id
}

func (sh *sharer) opKey(id int32) OperandKey {
	return OperandKey{View: sh.views[id/2/sh.nVer], Delta: id%2 == 1, Version: int(id / 2 % sh.nVer)}
}

func (sh *sharer) interKey(id int32) InterKey {
	hint := sh.pairs[id/sh.nVer/sh.nVer].hint
	return InterKey{ViewA: hint.A, VerA: int(id / sh.nVer % sh.nVer), ViewB: hint.B, VerB: int(id % sh.nVer), Sig: hint.Sig}
}

// compileSharing interns the views, reads and pair nominations of exprs.
func compileSharing(exprs []strategy.Expr, refs func(view string) []string, opts SharingOptions) *sharer {
	sh := &sharer{opts: opts, exprs: exprs, nodes: make([]shareNode, len(exprs)), nVer: 1}
	ids := make(map[string]int32)
	intern := func(view string) int32 {
		id, ok := ids[view]
		if !ok {
			id = int32(len(sh.views))
			ids[view] = id
			sh.views = append(sh.views, view)
		}
		return id
	}
	pairIDs := make(map[PairHint]int32)
	installs := make(map[string]int32)
	for i, e := range exprs {
		n := &sh.nodes[i]
		n.inst = -1
		x, isComp := e.(strategy.Comp)
		if !isComp {
			view := e.(strategy.Inst).View
			n.inst = intern(view)
			installs[view]++
			sh.nVer = max(sh.nVer, installs[view]+1)
			continue
		}
		refList := refs(x.View)
		deltas, states := x.Reads(refList)
		n.reads = make([]shareRead, 0, len(deltas)+len(states))
		// Self-joins repeat an operand inside one Comp; consumers and
		// releases are per Comp (intra-Compute reuse is the build cache's
		// job), so a Comp reads each operand once.
		for j, v := range append(deltas, states...) {
			if r := (shareRead{intern(v), j < len(deltas)}); !slices.Contains(n.reads, r) {
				n.reads = append(n.reads, r)
			}
		}
		n.ops = make([]int32, len(n.reads))
		if opts.Pairs == nil {
			continue
		}
		once := func(view string) bool { // referenced exactly once
			i := slices.Index(refList, view)
			return i >= 0 && !slices.Contains(refList[i+1:], view)
		}
		var used []string
		for _, p := range opts.Pairs(x.View) {
			// Only pairs of quiescent (non-over) views are always state-bound
			// and therefore usable in every term. One composite per
			// reference: overlapping pairs (A⋈B and B⋈C) cannot both be
			// served in a term, so each Comp nominates a disjoint set (first
			// adjacency wins).
			if x.Uses(p.A) || x.Uses(p.B) || slices.Contains(used, p.A) || slices.Contains(used, p.B) {
				continue
			}
			used = append(used, p.A, p.B)
			id, ok := pairIDs[p]
			if !ok {
				id = int32(len(sh.pairs))
				pairIDs[p] = id
				sh.pairs = append(sh.pairs, sharePair{p, [2]int32{intern(p.A), intern(p.B)}})
			}
			n.pairs = append(n.pairs, pairRead{id, [2]bool{once(p.A), p.B != p.A && once(p.B)}})
		}
	}
	sh.version = make([]int32, len(sh.views))
	sh.consumers = make([]int32, len(sh.views)*int(sh.nVer)*2)
	sh.interN = make([]int32, len(sh.pairs)*int(sh.nVer*sh.nVer))
	if opts.Stats != nil {
		sh.compileEstimates()
	}
	return sh
}

// compileEstimates tabulates, per operand and intermediate id, the planning
// sizes, the bytes the election charges and the rendered name.
func (sh *sharer) compileEstimates() {
	width := sh.opts.Width
	if width == nil {
		width = func(string) int { return nominalShareWidth }
	}
	bytes := func(rows int64, width int) int64 {
		return sh.opts.Tuner.CorrectBytes(cost.EstimateMaterializedBytes(rows, width))
	}
	sh.op, sh.inter = make([]shareInfo, len(sh.consumers)), make([]shareInfo, len(sh.interN))
	for id := range sh.op {
		k, c := sh.opKey(int32(id)), &sh.op[id]
		c.name, c.rows = k.View+" v"+strconv.Itoa(k.Version), noStats
		if k.Delta {
			c.name = "δ" + c.name
		}
		if st, ok := sh.opts.Stats[k.View]; ok {
			switch {
			case k.Delta:
				c.rows = st.DeltaSize()
			case k.Version > 0:
				c.rows = st.SizeAfter()
			default:
				c.rows = st.Size
			}
			c.gain, c.bytes = c.rows, bytes(c.rows, width(k.View))
		}
	}
	for id := range sh.inter {
		k, c := sh.interKey(int32(id)), &sh.inter[id]
		views := sh.pairs[id/int(sh.nVer*sh.nVer)].views
		c.name, c.sig, c.rows = k.ViewA+"⋈"+k.ViewB+" v"+strconv.Itoa(k.VerA)+"/v"+strconv.Itoa(k.VerB), k.Sig, noStats
		c.sides = [2]int32{sh.opID(views[0], int32(k.VerA), false), sh.opID(views[1], int32(k.VerB), false)}
		if a, b := sh.op[c.sides[0]].rows, sh.op[c.sides[1]].rows; a != noStats && b != noStats {
			c.rows, c.gain = max(a, b), a+b
			c.bytes = bytes(c.rows, width(k.ViewA)+width(k.ViewB))
		}
	}
	sh.admittedOp = make([]int32, len(sh.op))
}

// analyze walks the expressions in the order seq lists them, recording which
// version of which operand each Comp reads — Inst(X) both consumes δX and
// changes X's state, so it advances X's version — and, with statistics,
// elects what to share. It returns the estimated operand tuples saved.
func (sh *sharer) analyze(seq []int32) int64 {
	clear(sh.version)
	clear(sh.consumers)
	clear(sh.interN)
	sh.noms = sh.noms[:0]
	for _, k := range seq {
		n := &sh.nodes[k]
		if n.inst >= 0 {
			sh.version[n.inst]++
			continue
		}
		for i, r := range n.reads {
			n.ops[i] = sh.opID(r.view, sh.version[r.view], r.delta)
			sh.consumers[n.ops[i]]++
		}
		for _, p := range n.pairs {
			views := sh.pairs[p.pair].views
			id := (p.pair*sh.nVer+sh.version[views[0]])*sh.nVer + sh.version[views[1]]
			sh.interN[id]++
			sh.noms = append(sh.noms, nomination{id, k, p.disp})
		}
	}
	sh.saved = 0
	if sh.opts.Stats != nil {
		sh.elect()
	}
	return sh.saved
}

// candidates lists, best first, the ids at least two Comps read (or nominate)
// whose statistics are known.
func candidates(cands []shareCand, counts []int32, infos []shareInfo) []shareCand {
	cands = cands[:0]
	for id, n := range counts {
		if c := &infos[id]; n >= 2 && c.rows != noStats {
			saved := int64(n-1) * c.gain
			// Bytes are ≥ 48, never zero, per EstimateMaterializedBytes's
			// width clamp — but guard anyway.
			perByte := float64(saved) / float64(max(c.bytes, 1))
			cands = append(cands, shareCand{id: int32(id), n: n, saved: saved, perByte: perByte})
		}
	}
	// By savings-per-byte (descending), ties by name for determinism.
	slices.SortFunc(cands, func(a, b shareCand) int {
		return cmp.Or(cmp.Compare(b.perByte, a.perByte),
			strings.Compare(infos[a.id].name, infos[b.id].name), strings.Compare(infos[a.id].sig, infos[b.id].sig))
	})
	return cands
}

// elect is the greedy savings-per-byte admission against the shared byte
// budget (and the tuner's observed hit rate, once calibrated), over the reads
// analyze recorded.
func (sh *sharer) elect() {
	var used int64
	fits := func(c *shareCand, bytes, used int64) bool {
		return sh.opts.Tuner.ShouldShare(int(c.n), bytes, sh.opts.BudgetBytes, used)
	}
	// Operand candidates first, at full (pre-displacement) consumer counts:
	// operand sharing is the baseline an intermediate must beat, because a
	// shared operand serves every consumer — across different join pairs —
	// while an intermediate fragments the reuse to its one pair.
	clear(sh.admittedOp)
	sh.opCands = candidates(sh.opCands, sh.consumers, sh.op)
	for i := range sh.opCands {
		if c := &sh.opCands[i]; c.saved > 0 && fits(c, sh.op[c.id].bytes, used) {
			used += sh.op[c.id].bytes
			c.admitted = true
			sh.saved += c.saved
			sh.admittedOp[c.id] = int32(i + 1)
		}
	}

	// Intermediates are credited their NET gain: the (n−1)·(|A|+|B|) scans
	// the shared pair elides, minus the operand-sharing savings the election
	// displaces (each displaced consumer of an admitted operand was a scan
	// that sharing already elided). An intermediate whose operands fully
	// share elsewhere is at best neutral and stays unelected; it wins when
	// the operands could not be admitted (byte budget) or could not be
	// shared (single consumers outside the pair).
	sh.interCands = candidates(sh.interCands, sh.interN, sh.inter)
	for i := range sh.interCands {
		c, info := &sh.interCands[i], &sh.inter[sh.interCands[i].id]
		// displaced, per side: the pair's consumers whose read of that view's
		// state admission would serve; settle applies or only counts them.
		settle := func(apply bool) (displaced [2]int32) {
			for _, nom := range sh.noms {
				for side, id := range info.sides {
					if nom.inter != c.id || !nom.disp[side] {
						continue
					}
					// Only a Comp that (still) reads the operand is displaced.
					ops := sh.nodes[nom.node].ops
					if slot := slices.Index(ops, id); slot >= 0 {
						displaced[side]++
						if apply {
							ops[slot] = -1
							sh.consumers[id]--
						}
					}
				}
			}
			return displaced
		}
		// Net gain against the admitted operand savings this election would
		// displace. An admitted operand's live contribution is kept in its
		// candidate's saved field; "after" is what remains once this pair's
		// consumers stop reading it. Operands whose sharing would vanish
		// entirely refund their bytes to the budget.
		displaced := settle(false)
		var loss, freed int64
		for side, id := range info.sides {
			if at := sh.admittedOp[id]; at > 0 && displaced[side] > 0 {
				left := sh.consumers[id] - displaced[side]
				loss += sh.opCands[at-1].saved - int64(max(left-1, 0))*sh.op[id].rows
				if left < 2 {
					freed += sh.op[id].bytes
				}
			}
		}
		net := c.saved - loss
		// The budget check applies the refund up front.
		if net < 0 || (net == 0 && freed < info.bytes) || !fits(c, info.bytes, used-freed) {
			c.saved = net
			continue
		}
		used += info.bytes - freed
		c.admitted = true
		sh.saved += net
		// Displace the served operand reads and settle the operand entries.
		settle(true)
		for side, id := range info.sides {
			if at := sh.admittedOp[id]; at > 0 && displaced[side] > 0 {
				oc := &sh.opCands[at-1]
				oc.saved = int64(max(sh.consumers[id]-1, 0)) * sh.op[id].rows
				if sh.consumers[id] < 2 {
					oc.admitted, oc.saved = false, 0
					sh.admittedOp[id] = 0
				}
			}
		}
	}
}

// plan renders the latest analyze as a SharingPlan.
func (sh *sharer) plan() SharingPlan {
	plan := SharingPlan{
		Consumers:            make(map[OperandKey]int),
		ByComp:               make(map[string][]OperandKey),
		EstimatedSavedTuples: sh.saved,
	}
	if sh.opts.Stats != nil {
		plan.EstRows = make(map[OperandKey]int64)
	}
	for id, n := range sh.consumers {
		if n == 0 {
			continue
		}
		key := sh.opKey(int32(id))
		plan.Consumers[key] = int(n)
		if n >= 2 {
			plan.SharedOperands++
		}
		if plan.EstRows != nil && sh.op[id].rows != noStats {
			plan.EstRows[key] = sh.op[id].rows
		}
	}
	keys := make([]string, len(sh.nodes)) // Comp.Key() of the Comps
	for i, n := range sh.nodes {
		if n.inst < 0 {
			keys[i] = sh.exprs[i].Key()
		}
		for _, id := range n.ops {
			if id >= 0 {
				plan.ByComp[keys[i]] = append(plan.ByComp[keys[i]], sh.opKey(id))
			}
		}
	}
	elected := func(c shareCand, kind string, info *shareInfo) {
		plan.Elected = append(plan.Elected, ElectedShare{
			Name: info.name, Kind: kind, Consumers: int(c.n),
			EstRows: info.rows, EstBytes: info.bytes, EstSavedTuples: c.saved,
			Admitted: c.admitted,
		})
	}
	for _, c := range sh.interCands {
		elected(c, "intermediate", &sh.inter[c.id])
		if !c.admitted {
			continue
		}
		if plan.InterConsumers == nil {
			plan.InterConsumers = make(map[InterKey]int)
			plan.InterByComp = make(map[string][]InterKey)
			plan.InterEstRows = make(map[InterKey]int64)
		}
		plan.SharedIntermediates++
		ik := sh.interKey(c.id)
		plan.InterConsumers[ik] = int(c.n)
		plan.InterEstRows[ik] = sh.inter[c.id].rows
		for _, nom := range sh.noms {
			if nom.inter == c.id {
				plan.InterByComp[keys[nom.node]] = append(plan.InterByComp[keys[nom.node]], ik)
			}
		}
	}
	for _, c := range sh.opCands {
		elected(c, "operand", &sh.op[c.id])
	}
	return plan
}
