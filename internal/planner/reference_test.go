package planner

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/strategy"
	"repro/internal/vdag"
)

// This file holds the reference implementations the compiled search is
// tested against: the pre-compilation sharing analysis, and the Prune /
// PruneShared loops written from the retained public pieces.

// refShareCand is one election candidate.
type refShareCand struct {
	op       OperandKey // operand candidate when inter == nil
	inter    InterKey
	isInter  bool
	comps    []string // comps consuming an intermediate
	n        int
	rows     int64
	bytes    int64
	saved    int64
	name     string
	admitted bool
}

// refAnalyzeSharingOpts is the string- and map-keyed sharing analysis as it
// stood before the compiled core replaced it, kept verbatim as the oracle the
// differential tests compare AnalyzeSharingOpts against.
func refAnalyzeSharingOpts(s strategy.Strategy, refs func(view string) []string, opts SharingOptions) SharingPlan {
	plan := SharingPlan{
		Consumers: make(map[OperandKey]int),
		ByComp:    make(map[string][]OperandKey),
	}
	stats := opts.Stats
	version := make(map[string]int)
	// interReads collects, per candidate intermediate, the comps reading it
	// and the per-comp state operands an admission would displace.
	type interRead struct {
		comp     string
		displace []OperandKey
	}
	interReads := make(map[InterKey][]interRead)

	for _, e := range s {
		switch x := e.(type) {
		case strategy.Comp:
			refList := refs(x.View)
			deltas, states := x.Reads(refList)
			var ops []OperandKey
			for _, v := range deltas {
				ops = append(ops, OperandKey{View: v, Delta: true, Version: version[v]})
			}
			for _, v := range states {
				ops = append(ops, OperandKey{View: v, Version: version[v]})
			}
			// Self-joins repeat an operand inside one Comp; consumers and
			// releases are per Comp (intra-Compute reuse is the build
			// cache's job), so deduplicate before counting.
			key := x.Key()
			seen := make(map[OperandKey]bool, len(ops))
			for _, op := range ops {
				if !seen[op] {
					seen[op] = true
					plan.Consumers[op]++
					plan.ByComp[key] = append(plan.ByComp[key], op)
				}
			}
			if opts.Pairs != nil {
				overSet := make(map[string]bool, len(x.Over))
				for _, o := range x.Over {
					overSet[o] = true
				}
				refCount := make(map[string]int, len(refList))
				for _, v := range refList {
					refCount[v]++
				}
				seenInter := make(map[InterKey]bool)
				pairUsed := make(map[string]bool)
				for _, p := range opts.Pairs(x.View) {
					// Only pairs of quiescent (non-over) views are always
					// state-bound and therefore usable in every term.
					if overSet[p.A] || overSet[p.B] {
						continue
					}
					// One composite per reference: overlapping pairs (A⋈B and
					// B⋈C) cannot both be served in a term, so each comp
					// nominates a disjoint set (first adjacency wins).
					if pairUsed[p.A] || pairUsed[p.B] {
						continue
					}
					pairUsed[p.A], pairUsed[p.B] = true, true
					ik := InterKey{ViewA: p.A, VerA: version[p.A], ViewB: p.B, VerB: version[p.B], Sig: p.Sig}
					if seenInter[ik] {
						continue
					}
					seenInter[ik] = true
					// Admission displaces this comp's reads of the pair's
					// state operands — unless another reference of the same
					// view still reads the state.
					var displace []OperandKey
					if refCount[p.A] == 1 {
						displace = append(displace, OperandKey{View: p.A, Version: version[p.A]})
					}
					if p.B != p.A && refCount[p.B] == 1 {
						displace = append(displace, OperandKey{View: p.B, Version: version[p.B]})
					}
					interReads[ik] = append(interReads[ik], interRead{comp: key, displace: displace})
				}
			}
		case strategy.Inst:
			version[x.View]++
		}
	}

	if stats == nil {
		for _, n := range plan.Consumers {
			if n >= 2 {
				plan.SharedOperands++
			}
		}
		return plan
	}

	width := opts.Width
	if width == nil {
		width = func(string) int { return nominalShareWidth }
	}
	sizeAt := func(view string, delta bool, ver int) (int64, bool) {
		st, ok := stats[view]
		if !ok {
			return 0, false
		}
		switch {
		case delta:
			return st.DeltaSize(), true
		case ver > 0:
			return st.SizeAfter(), true
		default:
			return st.Size, true
		}
	}
	correct := func(b int64) int64 { return opts.Tuner.CorrectBytes(b) }

	var used int64
	admit := func(c *refShareCand) bool {
		bytes := c.bytes
		if opts.Tuner.Calibrated() {
			if !opts.Tuner.ShouldShare(c.n, bytes, opts.BudgetBytes, used) {
				return false
			}
		} else if opts.BudgetBytes > 0 && used+bytes > opts.BudgetBytes {
			return false
		}
		used += bytes
		return true
	}

	// Operand candidates first, at full (pre-displacement) consumer counts:
	// operand sharing is the baseline an intermediate must beat, because a
	// shared operand serves every consumer — across different join pairs —
	// while an intermediate fragments the reuse to its one pair.
	var opCands []*refShareCand
	admittedOp := make(map[OperandKey]*refShareCand)
	for op, n := range plan.Consumers {
		if n < 2 {
			continue
		}
		size, ok := sizeAt(op.View, op.Delta, op.Version)
		if !ok {
			continue
		}
		name := op.View
		if op.Delta {
			name = "δ" + name
		}
		opCands = append(opCands, &refShareCand{
			op:    op,
			n:     n,
			rows:  size,
			bytes: correct(cost.EstimateMaterializedBytes(size, width(op.View))),
			saved: int64(n-1) * size,
			name:  fmt.Sprintf("%s v%d", name, op.Version),
		})
	}
	refSortCands(opCands)
	for _, c := range opCands {
		if c.saved <= 0 || !admit(c) {
			continue
		}
		c.admitted = true
		plan.EstimatedSavedTuples += c.saved
		admittedOp[c.op] = c
	}

	// Intermediates are credited their NET gain: the (n−1)·(|A|+|B|) scans
	// the shared pair elides, minus the operand-sharing savings the election
	// displaces (each displaced consumer of an admitted operand was a scan
	// that sharing already elided). An intermediate whose operands fully
	// share elsewhere is at best neutral and stays unelected; it wins when
	// the operands could not be admitted (byte budget) or could not be
	// shared (single consumers outside the pair).
	var inters []*refShareCand
	for ik, reads := range interReads {
		n := len(reads)
		if n < 2 {
			continue
		}
		sizeA, okA := sizeAt(ik.ViewA, false, ik.VerA)
		sizeB, okB := sizeAt(ik.ViewB, false, ik.VerB)
		if !okA || !okB {
			continue
		}
		rows := sizeA
		if sizeB > rows {
			rows = sizeB
		}
		comps := make([]string, 0, n)
		for _, r := range reads {
			comps = append(comps, r.comp)
		}
		inters = append(inters, &refShareCand{
			inter:   ik,
			isInter: true,
			comps:   comps,
			n:       n,
			rows:    rows,
			bytes:   correct(cost.EstimateMaterializedBytes(rows, width(ik.ViewA)+width(ik.ViewB))),
			saved:   int64(n-1) * (sizeA + sizeB),
			name:    fmt.Sprintf("%s⋈%s v%d/v%d", ik.ViewA, ik.ViewB, ik.VerA, ik.VerB),
		})
	}
	refSortCands(inters)

	for _, c := range inters {
		// Net gain against the admitted operand savings this election would
		// displace. An admitted operand's live contribution is kept in its
		// candidate's saved field; "after" is what remains once this pair's
		// consumers stop reading it. Operands whose sharing would vanish
		// entirely refund their bytes to the budget.
		gross := c.saved
		loss, freed := int64(0), int64(0)
		displaced := make(map[OperandKey]int)
		for _, r := range interReads[c.inter] {
			for _, op := range r.displace {
				if refContainsOp(plan.ByComp[r.comp], op) {
					displaced[op]++
				}
			}
		}
		for op, d := range displaced {
			oc, ok := admittedOp[op]
			if !ok {
				continue
			}
			n := int64(plan.Consumers[op]-d) - 1
			if n < 0 {
				n = 0
			}
			after := n * oc.rows
			loss += oc.saved - after
			if plan.Consumers[op]-d < 2 {
				freed += oc.bytes
			}
		}
		net := gross - loss
		if net < 0 || (net == 0 && freed < c.bytes) {
			c.saved = net
			continue
		}
		// Budget check with the refund applied up front.
		tentative := used - freed
		if opts.Tuner.Calibrated() {
			if !opts.Tuner.ShouldShare(c.n, c.bytes, opts.BudgetBytes, tentative) {
				c.saved = net
				continue
			}
		} else if opts.BudgetBytes > 0 && tentative+c.bytes > opts.BudgetBytes {
			c.saved = net
			continue
		}
		used = tentative + c.bytes
		c.admitted = true
		plan.SharedIntermediates++
		plan.EstimatedSavedTuples += gross - loss
		if plan.InterConsumers == nil {
			plan.InterConsumers = make(map[InterKey]int)
			plan.InterByComp = make(map[string][]InterKey)
			plan.InterEstRows = make(map[InterKey]int64)
		}
		plan.InterConsumers[c.inter] = c.n
		plan.InterEstRows[c.inter] = c.rows
		for _, comp := range c.comps {
			plan.InterByComp[comp] = append(plan.InterByComp[comp], c.inter)
		}
		// Displace the served operand reads and settle the operand entries.
		for _, r := range interReads[c.inter] {
			for _, op := range r.displace {
				if !refContainsOp(plan.ByComp[r.comp], op) {
					continue
				}
				plan.ByComp[r.comp] = refRemoveOp(plan.ByComp[r.comp], op)
				if plan.Consumers[op]--; plan.Consumers[op] <= 0 {
					delete(plan.Consumers, op)
				}
			}
		}
		for op := range displaced {
			oc, ok := admittedOp[op]
			if !ok {
				continue
			}
			n := int64(plan.Consumers[op]) - 1
			if n < 0 {
				n = 0
			}
			oc.saved = n * oc.rows
			if plan.Consumers[op] < 2 {
				oc.admitted = false
				oc.saved = 0
				delete(admittedOp, op)
			}
		}
	}
	for _, n := range plan.Consumers {
		if n >= 2 {
			plan.SharedOperands++
		}
	}

	plan.EstRows = make(map[OperandKey]int64)
	for op := range plan.Consumers {
		if size, ok := sizeAt(op.View, op.Delta, op.Version); ok {
			plan.EstRows[op] = size
		}
	}
	for _, c := range append(inters, opCands...) {
		kind := "operand"
		if c.isInter {
			kind = "intermediate"
		}
		plan.Elected = append(plan.Elected, ElectedShare{
			Name: c.name, Kind: kind, Consumers: c.n,
			EstRows: c.rows, EstBytes: c.bytes, EstSavedTuples: c.saved,
			Admitted: c.admitted,
		})
	}
	return plan
}

// sortCands orders election candidates by savings-per-byte (descending),
// breaking ties by name for determinism.
func refSortCands(cands []*refShareCand) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		// saved/bytes comparison without division: a.saved*b.bytes vs
		// b.saved*a.bytes (bytes are ≥ 48, never zero, per
		// EstimateMaterializedBytes's width clamp — but guard anyway).
		ab, bb := a.bytes, b.bytes
		if ab <= 0 {
			ab = 1
		}
		if bb <= 0 {
			bb = 1
		}
		da, db := float64(a.saved)/float64(ab), float64(b.saved)/float64(bb)
		if da != db {
			return da > db
		}
		return a.name < b.name
	})
}

func refContainsOp(ops []OperandKey, op OperandKey) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

func refRemoveOp(ops []OperandKey, op OperandKey) []OperandKey {
	out := ops[:0]
	for _, o := range ops {
		if o != op {
			out = append(out, o)
		}
	}
	return out
}

// refPrune is Prune as a loop over the retained public pieces: a strong
// expression graph built, sorted and costed from scratch per ordering.
func refPrune(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts) (PruneResult, error) {
	res := PruneResult{Work: -1}
	for _, ord := range strategy.Permutations(g.ViewsWithParents()) {
		res.Examined++
		s, err := ConstructSEG(g, ord).TopoSort()
		if err != nil {
			continue
		}
		res.Feasible++
		w, err := cost.Work(model, stats, refs, s)
		if err != nil {
			return res, err
		}
		if res.Work < 0 || w < res.Work {
			res.Work, res.Strategy, res.Ordering = w, s, ord
		}
	}
	return res, nil
}

// refPruneShared is PruneShared likewise, with the per-strategy sharing
// analysis a parameter.
func refPruneShared(g *vdag.Graph, model cost.Model, stats cost.Stats, refs cost.RefCounts, opts SharedSearchOptions,
	analyze func(strategy.Strategy, func(string) []string, SharingOptions) SharingPlan) (SharedResult, error) {
	res := SharedResult{Work: -1, AdjustedWork: -1}
	refsFn := opts.Refs
	if refsFn == nil {
		refsFn = refsFromCounts(refs)
	}
	shOpts := opts.Sharing
	shOpts.Stats = stats
	consider := func(s strategy.Strategy, ord []string) error {
		w, err := cost.Work(model, stats, refs, s)
		if err != nil {
			return err
		}
		plan := analyze(s, refsFn, shOpts)
		if adj := w - model.CompCoeff*float64(plan.EstimatedSavedTuples); res.AdjustedWork < 0 || adj < res.AdjustedWork {
			res.Work, res.AdjustedWork, res.Strategy, res.Plan = w, adj, s, plan
			res.Ordering, res.DualStage = ord, ord == nil
		}
		return nil
	}
	for _, ord := range strategy.Permutations(g.ViewsWithParents()) {
		res.Examined++
		s, err := ConstructSEG(g, ord).TopoSort()
		if err != nil {
			continue
		}
		res.Feasible++
		if err := consider(s, ord); err != nil {
			return res, err
		}
	}
	return res, consider(strategy.DualStageVDAG(g), nil)
}
