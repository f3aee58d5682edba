// Package cost implements the paper's linear work metric (Definition 3.5)
// and a database-state cost simulator for update strategies.
//
// The estimate for an Inst expression is proportional to |δV|. The estimate
// for a Comp expression is the sum over its maintenance terms of the sizes
// of the term's operands. Because installs change view extensions, the cost
// of a Comp depends on which installs precede it — the simulator walks the
// strategy tracking |V| vs |V′| for every view, exactly the model under
// which MinWorkSingle and MinWork are proved optimal.
package cost

import (
	"fmt"

	"repro/internal/strategy"
)

// ViewStat holds the per-view quantities the metric needs: the pre-update
// size |V| and the composition of the pending delta (so both |δV| and the
// net growth |V′|−|V| are available).
type ViewStat struct {
	Size       int64 // |V| before the update window
	DeltaPlus  int64 // inserted tuples in δV
	DeltaMinus int64 // deleted tuples in δV
}

// DeltaSize returns |δV|.
func (s ViewStat) DeltaSize() int64 { return s.DeltaPlus + s.DeltaMinus }

// NetGrowth returns |V′| − |V|.
func (s ViewStat) NetGrowth() int64 { return s.DeltaPlus - s.DeltaMinus }

// SizeAfter returns |V′|.
func (s ViewStat) SizeAfter() int64 { return s.Size + s.NetGrowth() }

// Stats maps view names to their statistics.
type Stats map[string]ViewStat

// Model carries the proportionality constants of the metric. The paper's
// conclusions depend only on ratios; the defaults weight compute-scanned
// tuples and installed tuples equally.
type Model struct {
	// CompCoeff is the per-operand-tuple constant c of compute terms.
	CompCoeff float64
	// InstCoeff is the per-tuple constant i of installs.
	InstCoeff float64
	// SpillCoeff is the per-tuple constant of spill I/O: what writing one
	// build-side tuple to disk and reading it back costs relative to
	// scanning it. Charged only when MemoryBudgetBytes forces a build to
	// spill; 0 means DefaultSpillCoeff.
	SpillCoeff float64
	// MemoryBudgetBytes is the window memory budget the estimates assume
	// (see the engine's Options.MemoryBudgetBytes). When positive, a Comp
	// whose build-side operand would not fit is charged the spill penalty,
	// so Prune and EstimateWork prefer strategies that keep builds small
	// under pressure. 0 assumes unbounded memory: no penalty. MinWork is
	// statistics-only and ignores the model either way.
	MemoryBudgetBytes int64
}

// DefaultModel weights compute and install tuples equally.
var DefaultModel = Model{CompCoeff: 1, InstCoeff: 1}

// DefaultSpillCoeff is the per-tuple spill I/O constant assumed when the
// model does not set one: writing a tuple out plus re-reading it is taken to
// cost as much as scanning it once.
const DefaultSpillCoeff = 1

// SpillPenalty estimates the extra work a bounded window pays to hash-build
// an operand of the given size (tuples): zero when no budget is configured
// or the estimated footprint fits, otherwise SpillCoeff times the tuples
// written out and re-read (one pass each way). Footprint uses a nominal
// tuple width — planning statistics carry cardinalities, not schemas — and
// only needs to rank strategies consistently, not predict bytes exactly.
func (m Model) SpillPenalty(size int64) float64 {
	if m.MemoryBudgetBytes <= 0 || size <= 0 {
		return 0
	}
	if EstimateMaterializedBytes(size, nominalBuildWidth) <= m.MemoryBudgetBytes {
		return 0
	}
	coeff := m.SpillCoeff
	if coeff == 0 {
		coeff = DefaultSpillCoeff
	}
	return coeff * float64(2*size)
}

// nominalBuildWidth is the tuple width SpillPenalty assumes when estimating
// a build's footprint from a cardinality alone.
const nominalBuildWidth = 4

// RefCounts describes, for each derived view, how many FROM-clause
// references its definition has of each child view (almost always 1; >1 for
// self-joins). The simulator needs reference counts because a term's
// operand list has one entry per reference.
type RefCounts map[string]map[string]int

// UniformRefs builds RefCounts with one reference per (parent, child) edge,
// the common case, from an adjacency function.
func UniformRefs(views []string, children func(string) []string) RefCounts {
	rc := make(RefCounts, len(views))
	for _, v := range views {
		cs := children(v)
		if len(cs) == 0 {
			continue
		}
		m := make(map[string]int, len(cs))
		for _, c := range cs {
			m[c] = 1
		}
		rc[v] = m
	}
	return rc
}

// Simulator evaluates the linear work metric over a strategy, mutating its
// view of the database state as Inst expressions execute.
type Simulator struct {
	model     Model
	stats     Stats
	refs      RefCounts
	installed map[string]bool
}

// NewSimulator creates a simulator from the pre-update statistics.
func NewSimulator(model Model, stats Stats, refs RefCounts) *Simulator {
	return &Simulator{model: model, stats: stats, refs: refs, installed: make(map[string]bool)}
}

// currentSize returns the size of a view at the current simulated state.
func (s *Simulator) currentSize(view string) (int64, error) {
	st, ok := s.stats[view]
	if !ok {
		return 0, fmt.Errorf("cost: no statistics for view %q", view)
	}
	if s.installed[view] {
		return st.SizeAfter(), nil
	}
	return st.Size, nil
}

// CompWork returns the work of Comp(view, over) at the current state.
//
// With r references bound to deltas in total, the expression has 2^r − 1
// terms. Each delta-bound reference appears as a delta operand in 2^(r−1)
// terms and as a state operand in 2^(r−1) − 1 terms; every reference to a
// view outside over appears as a state operand in all 2^r − 1 terms.
func (s *Simulator) CompWork(comp strategy.Comp) (float64, error) {
	refs := s.refs[comp.View]
	if refs == nil {
		return 0, fmt.Errorf("cost: no reference counts for derived view %q", comp.View)
	}
	r := 0
	overSet := make(map[string]bool, len(comp.Over))
	for _, o := range comp.Over {
		if overSet[o] {
			return 0, fmt.Errorf("cost: duplicate view %q in Comp set", o)
		}
		overSet[o] = true
		n, ok := refs[o]
		if !ok {
			return 0, fmt.Errorf("cost: %q is not referenced by %q", o, comp.View)
		}
		r += n
	}
	if r == 0 {
		return 0, fmt.Errorf("cost: empty Comp set")
	}
	if r > 62 {
		return 0, fmt.Errorf("cost: too many delta references (%d)", r)
	}
	var work, spill float64
	for child, n := range refs {
		size, err := s.currentSize(child)
		if err != nil {
			return 0, err
		}
		w, sp := s.model.RefWork(n, r, overSet[child], size, s.stats[child].DeltaSize())
		work += w
		spill += sp
	}
	return s.model.CompCoeff*work + spill, nil
}

// RefWork returns what a Comp's n references to one child contribute to it:
// the operand tuples its terms scan (scaled by CompCoeff in the Comp's work)
// and the spill penalty. r is the Comp's number of delta-bound references
// (1..62), over reports that this child is among them, size is the child's
// current size and delta its |δ|. CompWork sums it over the children; the
// planner's compiled search tabulates it per child and install state.
func (m Model) RefWork(n, r int, over bool, size, delta int64) (scan, spill float64) {
	terms := float64(int64(1)<<uint(r)) - 1
	deltaTerms := float64(int64(1) << uint(r-1))
	stateTerms := deltaTerms - 1
	if over {
		scan = float64(n) * (deltaTerms*float64(delta) + stateTerms*float64(size))
	} else {
		scan = float64(n) * terms * float64(size)
	}
	// Bounded-memory penalty: a state operand too large for the window
	// budget is built as a spilled hash table — written out once and
	// re-read during partition-wise probing. Builds are cached across a
	// Comp's terms, so the penalty is charged once per reference.
	return scan, float64(n) * m.SpillPenalty(size)
}

// InstWork returns the work of Inst(view): i·|δV|.
func (s *Simulator) InstWork(inst strategy.Inst) (float64, error) {
	st, ok := s.stats[inst.View]
	if !ok {
		return 0, fmt.Errorf("cost: no statistics for view %q", inst.View)
	}
	return s.model.InstCoeff * float64(st.DeltaSize()), nil
}

// Step executes one expression: returns its work and updates the state.
func (s *Simulator) Step(e strategy.Expr) (float64, error) {
	switch x := e.(type) {
	case strategy.Comp:
		return s.CompWork(x)
	case strategy.Inst:
		w, err := s.InstWork(x)
		if err != nil {
			return 0, err
		}
		if s.installed[x.View] {
			return 0, fmt.Errorf("cost: %s installed twice", x)
		}
		s.installed[x.View] = true
		return w, nil
	default:
		return 0, fmt.Errorf("cost: unknown expression type %T", e)
	}
}

// Breakdown itemizes the simulated work of a strategy.
type Breakdown struct {
	Total    float64
	Comp     float64
	Inst     float64
	PerExpr  []float64
	Strategy strategy.Strategy
}

// Simulate returns the total linear-metric work of executing the strategy
// from the pre-update state described by stats.
func Simulate(model Model, stats Stats, refs RefCounts, s strategy.Strategy) (Breakdown, error) {
	sim := NewSimulator(model, stats, refs)
	b := Breakdown{Strategy: s, PerExpr: make([]float64, len(s))}
	for i, e := range s {
		w, err := sim.Step(e)
		if err != nil {
			return b, fmt.Errorf("cost: at expression %d (%s): %w", i, e, err)
		}
		b.PerExpr[i] = w
		b.Total += w
		if _, ok := e.(strategy.Comp); ok {
			b.Comp += w
		} else {
			b.Inst += w
		}
	}
	return b, nil
}

// Work is Simulate returning only the total.
func Work(model Model, stats Stats, refs RefCounts, s strategy.Strategy) (float64, error) {
	b, err := Simulate(model, stats, refs, s)
	return b.Total, err
}

// VariantCompWork computes the Comp estimate under the *variant* metric the
// paper's Discussion section considers and rejects: summing each operand's
// size once, ignoring how many maintenance terms read it. Under this
// variant, Comp(V,{V2,V3}) costs c·(|δV2|+|V2|+|δV3|+|V3|), so dual-stage
// strategies look best — contrary to the measured Experiment 4 results.
// The simulator state handling (installed views read |V′|) is shared with
// the real metric.
func (s *Simulator) VariantCompWork(comp strategy.Comp) (float64, error) {
	refs := s.refs[comp.View]
	if refs == nil {
		return 0, fmt.Errorf("cost: no reference counts for derived view %q", comp.View)
	}
	overSet := make(map[string]bool, len(comp.Over))
	for _, o := range comp.Over {
		overSet[o] = true
	}
	var work float64
	for child, n := range refs {
		size, err := s.currentSize(child)
		if err != nil {
			return 0, err
		}
		work += float64(n) * float64(size)
		if overSet[child] {
			work += float64(n) * float64(s.stats[child].DeltaSize())
		}
	}
	return s.model.CompCoeff * work, nil
}

// VariantWork evaluates a whole strategy under the variant metric.
func VariantWork(model Model, stats Stats, refs RefCounts, strat strategy.Strategy) (float64, error) {
	sim := NewSimulator(model, stats, refs)
	var total float64
	for i, e := range strat {
		var w float64
		var err error
		switch x := e.(type) {
		case strategy.Comp:
			w, err = sim.VariantCompWork(x)
		case strategy.Inst:
			w, err = sim.Step(x)
		default:
			err = fmt.Errorf("cost: unknown expression type %T", e)
		}
		if err != nil {
			return 0, fmt.Errorf("cost: at expression %d (%s): %w", i, e, err)
		}
		total += w
	}
	return total, nil
}
