package cost

import (
	"fmt"
	"math"
)

// ViewInfo describes one derived view for delta estimation.
type ViewInfo struct {
	Name string
	// Children lists the referenced views, one entry per FROM-clause
	// reference (repeat for self-joins).
	Children []string
	// IsAggregate marks summary views, whose deltas are group-level.
	IsAggregate bool
}

// bytesPerColumn is the rough in-memory footprint of one column value in a
// materialized hash table: a boxed value plus slice/map overhead amortized
// per cell. The constant only needs to be consistent between the budget and
// the estimates it gates.
const bytesPerColumn = 48

// EstimateMaterializedBytes estimates the transient memory footprint of
// materializing rows tuples of the given width (columns) into a hash table.
// The build cache charges its builds, and the planner's sharing election its
// candidates, in these bytes.
func EstimateMaterializedBytes(rows int64, width int) int64 {
	if rows <= 0 {
		return 0
	}
	if width < 1 {
		width = 1
	}
	return rows * int64(width) * bytesPerColumn
}

// EstimateDeltas fills the DeltaPlus/DeltaMinus statistics of derived views
// bottom-up from the (exact) base-view deltas, using standard independence
// assumptions (Section 5.5 of the paper defers to "standard query result
// size estimation methods" [Ull89]; this is the usual multiplicative
// model):
//
//   - A joined row survives iff every contributing child row survives, so
//     the deleted fraction of an SPJ view is 1 − Π(1 − f_c), with f_c the
//     deleted fraction of child c (per reference).
//   - Join cardinality scales multiplicatively with input sizes, so
//     |V′| = |V| · Π(|c′|/|c|), and the inserted count follows from
//     |V′| − |V| plus the deletions.
//   - An aggregate view's delta has one minus and one plus row per affected
//     group; the affected fraction of groups is estimated like the deleted
//     fraction above but using the changed fraction of each child.
//
// infos must be in topological order (children estimated before parents);
// every view's Size must already be present in stats, and base views must
// carry their exact delta counts.
func EstimateDeltas(infos []ViewInfo, stats Stats) error {
	for _, info := range infos {
		if len(info.Children) == 0 {
			return fmt.Errorf("cost: view %q has no children; only derived views are estimated", info.Name)
		}
		self, ok := stats[info.Name]
		if !ok {
			return fmt.Errorf("cost: no size recorded for view %q", info.Name)
		}
		survive := 1.0 // Π(1 − deleted fraction)
		ratio := 1.0   // Π(|c′| / |c|)
		unchanged := 1.0
		for _, c := range info.Children {
			cs, ok := stats[c]
			if !ok {
				return fmt.Errorf("cost: view %q child %q has no statistics", info.Name, c)
			}
			if cs.Size <= 0 {
				// An empty child keeps the parent empty; nothing changes.
				survive, ratio, unchanged = 0, 0, 1
				continue
			}
			size := float64(cs.Size)
			survive *= math.Max(0, 1-float64(cs.DeltaMinus)/size)
			ratio *= math.Max(0, float64(cs.SizeAfter())/size)
			unchanged *= math.Max(0, 1-float64(cs.DeltaSize())/size)
		}
		size := float64(self.Size)
		if info.IsAggregate {
			affected := int64(math.Round(size * (1 - unchanged)))
			if affected > self.Size {
				affected = self.Size
			}
			self.DeltaMinus = affected
			self.DeltaPlus = affected
		} else {
			minus := int64(math.Round(size * (1 - survive)))
			if minus > self.Size {
				minus = self.Size
			}
			after := int64(math.Round(size * ratio))
			plus := after - self.Size + minus
			if plus < 0 {
				plus = 0
			}
			self.DeltaMinus = minus
			self.DeltaPlus = plus
		}
		stats[info.Name] = self
	}
	return nil
}
