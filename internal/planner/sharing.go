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
// more than one Comp expression reads — what a build cache kept for the
// window (internal/core) can serve to every consumer after the first. The
// executor takes no hints from it: the analysis is what PruneShared costs
// orderings with and what EXPLAIN SHARING prints.
//
// The walk mirrors the linear work metric's operand model (cost.CompWork):
// for Comp(V, over) with r delta-bound references, a reference in over
// contributes its delta (in every term) and — when r > 1 — its pre-state
// (in the terms where another reference carries the delta); a reference
// outside over contributes only its state. Which *version* of an operand a
// Comp reads is determined by the installs preceding it: Inst(X) both
// consumes δX and changes X's state, so the walk advances X's version
// counter at each Inst(X). The scheduler's conflict ordering preserves
// exactly these read-after-install relations in every execution mode.
//
// With statistics, the election counts every operand at least two Comps read
// as n − 1 saved scans: the window's cache keeps a build until its view
// installs, and the memory budget decides only whether it stays resident or
// spilled.

// OperandKey identifies one shareable operand in a strategy: a view's delta
// or state, at the given install version (installs of the view executed
// before the read).
type OperandKey struct {
	View    string
	Delta   bool
	Version int
}

// ElectedShare is one sharing candidate the election considered, for
// inspection (EXPLAIN SHARING).
type ElectedShare struct {
	// Name renders the candidate: "δVIEW v0" or "VIEW v1".
	Name string
	// Consumers is the number of Comp expressions reading it.
	Consumers int
	// EstRows and EstBytes are the planning estimates of the materialized
	// result.
	EstRows  int64
	EstBytes int64
	// EstSavedTuples is the operand scans sharing it elides.
	EstSavedTuples int64
}

// SharingPlan is the result of AnalyzeSharing.
type SharingPlan struct {
	// Consumers maps each operand to the number of Comp expressions
	// reading it, operands read once included.
	Consumers map[OperandKey]int
	// ByComp maps each Comp's canonical key to the operands its
	// maintenance terms read, in reference order.
	ByComp map[string][]OperandKey
	// SharedOperands counts operands with at least two consumers.
	SharedOperands int
	// EstimatedSavedTuples is the planning-statistics estimate of the
	// operand tuples sharing saves. Zero when no stats are supplied.
	EstimatedSavedTuples int64
	// Elected lists every candidate the election counted, most saved first
	// (only with stats).
	Elected []ElectedShare
}

// SharingOptions parameterize AnalyzeSharing.
type SharingOptions struct {
	// Stats sizes the savings estimates; without it the analysis returns
	// structure only (no election, no estimates).
	Stats cost.Stats
	// Width returns a view's tuple width in columns (nil: a nominal 4),
	// used to price candidates in bytes.
	Width func(view string) int
	// Pairs and Tuner are inert — join intermediates and the share tuner are
	// gone, and nothing reads them; they stay because the frozen benchmark
	// (bench/layers.go) sets them.
	Pairs any
	Tuner any
}

// nominalShareWidth is the per-view tuple width assumed when no Width
// function is supplied, matching the cost model's nominal build width.
const nominalShareWidth = 4

// AnalyzeSharing walks a strategy and returns its cross-view sharing
// structure. refs supplies each derived view's FROM-clause reference list
// (one entry per reference; repeat for self-joins) — exec.RefsOf adapts a
// warehouse. opts.Stats, when non-nil, sizes the estimated savings; planning
// proceeds without it.
func AnalyzeSharing(s strategy.Strategy, refs func(view string) []string, opts SharingOptions) SharingPlan {
	sh := compileSharing(s, refs, opts)
	seq := make([]int32, len(s))
	for i := range seq {
		seq[i] = int32(i)
	}
	sh.analyze(seq)
	return sh.plan()
}

// sharer is the compiled sharing analysis of a fixed set of expressions: the
// one walk and election behind AnalyzeSharing (a strategy, analyzed once)
// and PruneShared (the VDAG's expressions, every candidate sequence of them
// analyzed without allocating). Views are dense ids; an operand (view,
// version, delta) packs into an integer that indexes flat tables.
type sharer struct {
	opts  SharingOptions
	exprs []strategy.Expr
	nodes []shareNode // parallel to exprs
	views []string
	nVer  int32 // versions a view is read at: the most installs of one view, plus 1

	op []shareInfo // per operand id; only with statistics

	// One walk's reads.
	version   []int32 // per view: installs so far
	consumers []int32 // per operand id: Comps reading it
	saved     int64   // the election's estimate over them
}

// shareNode is one expression as the walk sees it: an Inst bumps a version; a
// Comp reads its distinct operands (deltas first, each in reference order).
type shareNode struct {
	inst  int32 // the view installed; −1 for a Comp
	reads []shareRead
	ops   []int32 // the latest walk's operand id per read
}

type shareRead struct {
	view  int32
	delta bool
}

// shareInfo is the part of a candidate no walk changes.
type shareInfo struct {
	name  string // as ElectedShare renders it; the tie-break of its order
	rows  int64  // materialized rows; noStats when statistics are missing
	bytes int64  // materialized bytes
}

const noStats = -1 << 63

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

// compileSharing interns the views and reads of exprs.
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
		deltas, states := x.Reads(refs(x.View))
		n.reads = make([]shareRead, 0, len(deltas)+len(states))
		// Self-joins repeat an operand inside one Comp; consumers are per
		// Comp (reuse across a Compute's own terms needs no window cache), so
		// a Comp reads each operand once.
		for j, v := range append(deltas, states...) {
			if r := (shareRead{intern(v), j < len(deltas)}); !slices.Contains(n.reads, r) {
				n.reads = append(n.reads, r)
			}
		}
		n.ops = make([]int32, len(n.reads))
	}
	sh.version = make([]int32, len(sh.views))
	sh.consumers = make([]int32, len(sh.views)*int(sh.nVer)*2)
	if opts.Stats != nil {
		sh.compileEstimates()
	}
	return sh
}

// compileEstimates tabulates, per operand id, the planning size, the bytes
// the election charges and the rendered name.
func (sh *sharer) compileEstimates() {
	width := sh.opts.Width
	if width == nil {
		width = func(string) int { return nominalShareWidth }
	}
	sh.op = make([]shareInfo, len(sh.consumers))
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
			c.bytes = cost.EstimateMaterializedBytes(c.rows, width(k.View))
		}
	}
}

// analyze walks the expressions in the order seq lists them, recording which
// version of which operand each Comp reads — Inst(X) both consumes δX and
// changes X's state, so it advances X's version — and, with statistics,
// elects what to share. It returns the estimated operand tuples saved.
func (sh *sharer) analyze(seq []int32) int64 {
	clear(sh.version)
	clear(sh.consumers)
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
	}
	sh.saved = 0
	if sh.opts.Stats != nil {
		sh.elect()
	}
	return sh.saved
}

// elect counts n − 1 saved scans of every operand n ≥ 2 Comps read, over
// the reads analyze recorded. An operand without statistics (noStats is
// negative) or without rows saves nothing.
func (sh *sharer) elect() {
	for id, n := range sh.consumers {
		if rows := sh.op[id].rows; n >= 2 && rows > 0 {
			sh.saved += int64(n-1) * rows
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
	for id, n := range sh.consumers {
		if n == 0 {
			continue
		}
		plan.Consumers[sh.opKey(int32(id))] = int(n)
		if n >= 2 {
			plan.SharedOperands++
		}
	}
	for i, n := range sh.nodes {
		if n.inst >= 0 {
			continue
		}
		key := sh.exprs[i].Key()
		for _, id := range n.ops {
			plan.ByComp[key] = append(plan.ByComp[key], sh.opKey(id))
		}
	}
	if sh.op == nil {
		return plan
	}
	for id, n := range sh.consumers {
		if info := &sh.op[id]; n >= 2 && info.rows != noStats {
			plan.Elected = append(plan.Elected, ElectedShare{
				Name: info.name, Consumers: int(n),
				EstRows: info.rows, EstBytes: info.bytes, EstSavedTuples: int64(n-1) * info.rows,
			})
		}
	}
	slices.SortFunc(plan.Elected, func(a, b ElectedShare) int {
		return cmp.Or(cmp.Compare(b.EstSavedTuples, a.EstSavedTuples), strings.Compare(a.Name, b.Name))
	})
	return plan
}
