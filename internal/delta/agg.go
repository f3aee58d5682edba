package delta

import (
	"fmt"

	"repro/internal/cowmap"
	"repro/internal/relation"
)

// AggKind enumerates the aggregate functions the engine maintains
// incrementally.
type AggKind uint8

const (
	// AggCount is COUNT(*): the number of contributing rows.
	AggCount AggKind = iota
	// AggSum is SUM(expr).
	AggSum
	// AggAvg is AVG(expr), maintained as SUM(expr)/COUNT(*).
	AggAvg
	// AggMin is MIN(expr), maintained with a per-group value multiset so
	// deletions remain computable.
	AggMin
	// AggMax is MAX(expr), maintained like AggMin.
	AggMax
)

// String returns the SQL name of the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggKind(%d)", uint8(k))
	}
}

// AggSpec describes one aggregate output of a summary view.
type AggSpec struct {
	Kind AggKind
	// ValueKind is the type of the aggregate input expression (KindInt or
	// KindFloat for SUM; any comparable kind for MIN/MAX). It determines the
	// accumulator representation and the output type of SUM.
	ValueKind relation.Kind
}

// OutputKind returns the type of the aggregate's output column.
func (s AggSpec) OutputKind() relation.Kind {
	switch s.Kind {
	case AggCount:
		return relation.KindInt
	case AggAvg:
		return relation.KindFloat
	case AggSum:
		if s.ValueKind == relation.KindInt {
			return relation.KindInt
		}
		return relation.KindFloat
	default: // MIN/MAX preserve the input kind
		return s.ValueKind
	}
}

// Accum is the incremental accumulator for one aggregate of one group. It
// supports signed accumulation (counts may be negative while representing a
// pending change) and folding, so the same type backs both the materialized
// group state and in-flight partial deltas.
type Accum struct {
	spec AggSpec
	sumI int64
	sumF float64
	mm   *minMax // MIN/MAX only
}

// minMax is the state of a MIN or MAX accumulator: the bag of input values
// (deletions must stay computable) and the current extreme among the values
// with a positive count. The extreme is kept as values come and go, so that
// reading it costs nothing; only deleting its last copy loses it (known
// goes false), and the next Fold or Clone finds it again by one scan of the
// bag. Add alone never scans: a partial under accumulation may see its
// extreme come and go many times before anyone asks for it.
type minMax struct {
	vals  cowmap.Map[int64] // encoded value -> signed count
	best  relation.Value    // Null when no value has a positive count
	known bool
}

// NewAccum creates an empty accumulator for the spec.
func NewAccum(spec AggSpec) *Accum {
	a := &Accum{spec: spec}
	if spec.Kind == AggMin || spec.Kind == AggMax {
		a.mm = &minMax{known: true}
	}
	return a
}

// Spec returns the accumulator's aggregate spec.
func (a *Accum) Spec() AggSpec { return a.spec }

// Add accumulates count signed copies of input value v. NULL inputs are
// ignored (SQL aggregate semantics); COUNT(*) ignores v entirely and is
// driven by the group's support count instead.
func (a *Accum) Add(v relation.Value, count int64) {
	if a.spec.Kind == AggCount {
		return // COUNT(*) is derived from support
	}
	if v.IsNull() {
		return
	}
	switch a.spec.Kind {
	case AggSum, AggAvg:
		if a.spec.ValueKind == relation.KindInt {
			a.sumI += v.Int() * count
		} else {
			a.sumF += v.Float() * float64(count)
		}
	case AggMin, AggMax:
		var buf [32]byte
		key := v.AppendEncoded(buf[:0])
		a.note(v, a.mm.addBytes(cowmap.HashBytes(key), key, count))
	}
}

// add changes the count of one encoded value and returns the new count.
func (m *minMax) add(hash uint64, key string, count int64) int64 {
	n, _ := m.vals.Ref(hash, key)
	*n += count
	nw := *n
	if nw == 0 {
		m.vals.Delete(hash, key)
	}
	return nw
}

// addBytes is add for a value encoded into a scratch buffer: the key string
// is made only when the value is new to the bag.
func (m *minMax) addBytes(hash uint64, key []byte, count int64) int64 {
	n, _ := m.vals.RefBytes(hash, key)
	*n += count
	nw := *n
	if nw == 0 {
		m.vals.DeleteBytes(hash, key)
	}
	return nw
}

// note keeps the extreme current after v's count became nw.
func (a *Accum) note(v relation.Value, nw int64) {
	m := a.mm
	switch {
	case !m.known:
	case nw > 0:
		if m.best.IsNull() || a.better(v, m.best) {
			m.best = v
		}
	case !m.best.IsNull() && relation.Equal(v, m.best):
		m.known = false
	}
}

// better reports whether v beats w as the aggregate's extreme.
func (a *Accum) better(v, w relation.Value) bool {
	c := relation.Compare(v, w)
	return (a.spec.Kind == AggMin && c < 0) || (a.spec.Kind == AggMax && c > 0)
}

// settle finds the extreme again, by a scan of the bag, if a deletion lost it.
func (a *Accum) settle() {
	m := a.mm
	if m == nil || m.known {
		return
	}
	m.best = relation.Null
	m.vals.Scan(func(_ uint64, key string, cnt int64) bool {
		if cnt > 0 {
			if v := decodeValue(key); m.best.IsNull() || a.better(v, m.best) {
				m.best = v
			}
		}
		return true
	})
	m.known = true
}

// decodeValue decodes a bag key, allocating nothing.
func decodeValue(key string) relation.Value {
	v, err := relation.DecodeValue(key)
	if err != nil {
		panic(fmt.Sprintf("delta: corrupt min/max value %q: %v", key, err))
	}
	return v
}

// Fold merges other into a and reports whether every MIN/MAX value count it
// touched is still non-negative — whether a, if it was a legal materialized
// state before, still is one. Specs must match. A MIN/MAX fold is one scan of
// other's bag, which keeps the extreme as it goes; only when it deletes the
// last copy of the extreme does a scan of a's bag find the next one.
func (a *Accum) Fold(other *Accum) bool {
	if a.spec != other.spec {
		panic("delta: folding accumulators with different specs")
	}
	a.sumI += other.sumI
	a.sumF += other.sumF
	if a.mm == nil {
		return true
	}
	valid := true
	other.mm.vals.Scan(func(hash uint64, key string, cnt int64) bool {
		nw := a.mm.add(hash, key, cnt)
		if nw < 0 {
			valid = false
		}
		if a.mm.known {
			a.note(decodeValue(key), nw)
		}
		return true
	})
	a.settle()
	return valid
}

// CanFold reports what a.Fold(other) would, without folding: whether every
// MIN/MAX value count stays non-negative. Only other's deletions are looked
// up — an arrival cannot take a count below zero.
func (a *Accum) CanFold(other *Accum) bool {
	if a.spec != other.spec {
		panic("delta: folding accumulators with different specs")
	}
	valid := true
	if a.mm != nil {
		other.mm.vals.Scan(func(hash uint64, key string, cnt int64) bool {
			if cnt < 0 {
				have, _ := a.mm.vals.Get(hash, key)
				valid = have+cnt >= 0
			}
			return valid
		})
	}
	return valid
}

// Clone returns an independent copy in O(1): the value bag of a MIN/MAX
// accumulator is shared copy-on-write. The copy is a value, so that a group
// keeps its accumulators in one array of its own.
func (a *Accum) Clone() Accum {
	out := Accum{spec: a.spec, sumI: a.sumI, sumF: a.sumF}
	if a.mm != nil {
		out.mm = &minMax{vals: a.mm.vals.Clone(), best: a.mm.best, known: a.mm.known}
		out.settle()
	}
	return out
}

// Valid reports whether the accumulator is a legal materialized state: all
// MIN/MAX value counts must be positive.
func (a *Accum) Valid() bool {
	valid := true
	if a.mm != nil {
		a.mm.vals.Scan(func(_ uint64, _ string, cnt int64) bool {
			valid = cnt >= 0
			return valid
		})
	}
	return valid
}

// Output computes the aggregate's output value for a group with the given
// support (number of contributing rows).
func (a *Accum) Output(support int64) relation.Value {
	switch a.spec.Kind {
	case AggCount:
		return relation.NewInt(support)
	case AggSum:
		if a.spec.ValueKind == relation.KindInt {
			return relation.NewInt(a.sumI)
		}
		return relation.NewFloat(a.sumF)
	case AggAvg:
		if support == 0 {
			return relation.Null
		}
		var sum float64
		if a.spec.ValueKind == relation.KindInt {
			sum = float64(a.sumI)
		} else {
			sum = a.sumF
		}
		return relation.NewFloat(sum / float64(support))
	case AggMin, AggMax:
		if !a.mm.known {
			// Only a partial that Add alone built gets here; a shared
			// accumulator is always settled, so this never races a reader.
			a.settle()
		}
		return a.mm.best
	default:
		panic(fmt.Sprintf("delta: unknown aggregate %v", a.spec.Kind))
	}
}

// GroupPartials accumulates per-group partial aggregate changes produced by
// the Comp expressions of an aggregate view. Partials from successive Comp
// expressions of the same strategy are merged, then folded into the view's
// groups by its install (storage.Table.Apply).
type GroupPartials struct {
	groupSchema relation.Schema
	specs       []AggSpec
	groups      map[string]*GroupPartial
}

// GroupPartial is the pending change of a single group.
type GroupPartial struct {
	Support int64 // signed change to the group's contributing-row count
	Accums  []*Accum
}

// NewGroupPartials creates an empty partial-change set.
func NewGroupPartials(groupSchema relation.Schema, specs []AggSpec) *GroupPartials {
	return &GroupPartials{
		groupSchema: groupSchema.Clone(),
		specs:       append([]AggSpec(nil), specs...),
		groups:      make(map[string]*GroupPartial),
	}
}

// GroupSchema returns the schema of the grouping columns.
func (p *GroupPartials) GroupSchema() relation.Schema { return p.groupSchema }

// Specs returns the aggregate specs.
func (p *GroupPartials) Specs() []AggSpec { return p.specs }

// Accumulate records count signed copies of a contributing row: its group
// key and the aggregate input values (one per spec; the value for COUNT(*)
// is ignored).
func (p *GroupPartials) Accumulate(group relation.Tuple, inputs []relation.Value, count int64) {
	p.AccumulateEncoded(group.AppendEncoded(nil), inputs, count)
}

// AccumulateEncoded is Accumulate for callers that already hold the group
// tuple's Encode bytes, sparing a second encoding on the sink path. The
// group is found by those bytes, and the key string is made only for a new
// group, so a row of a group already present allocates nothing. Neither key
// nor inputs is retained; callers may reuse them across rows.
func (p *GroupPartials) AccumulateEncoded(key []byte, inputs []relation.Value, count int64) {
	if len(inputs) != len(p.specs) {
		panic(fmt.Sprintf("delta: %d aggregate inputs for %d specs", len(inputs), len(p.specs)))
	}
	gp := p.groups[string(key)]
	if gp == nil {
		gp = &GroupPartial{Accums: make([]*Accum, len(p.specs))}
		for i, s := range p.specs {
			gp.Accums[i] = NewAccum(s)
		}
		p.groups[string(key)] = gp
	}
	gp.Support += count
	for i, v := range inputs {
		gp.Accums[i].Add(v, count)
	}
}

// Merge folds other into p.
func (p *GroupPartials) Merge(other *GroupPartials) {
	if !p.groupSchema.Equal(other.groupSchema) || len(p.specs) != len(other.specs) {
		panic("delta: merging incompatible group partials")
	}
	for key, ogp := range other.groups {
		gp := p.groups[key]
		if gp == nil {
			cl := &GroupPartial{Support: ogp.Support, Accums: make([]*Accum, len(ogp.Accums))}
			for i, a := range ogp.Accums {
				c := a.Clone()
				cl.Accums[i] = &c
			}
			p.groups[key] = cl
			continue
		}
		gp.Support += ogp.Support
		for i, a := range ogp.Accums {
			gp.Accums[i].Fold(a)
		}
	}
}

// Scan calls fn for each affected group key (encoded) and its partial.
func (p *GroupPartials) Scan(fn func(groupKey string, gp *GroupPartial) bool) {
	for key, gp := range p.groups {
		if !fn(key, gp) {
			return
		}
	}
}

// GroupCount returns the number of affected groups.
func (p *GroupPartials) GroupCount() int { return len(p.groups) }

// IsEmpty reports whether no group is affected.
func (p *GroupPartials) IsEmpty() bool { return len(p.groups) == 0 }
