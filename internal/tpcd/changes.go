package tpcd

import (
	"fmt"
	"math/rand"

	"repro/internal/delta"
)

// ChangeSpec describes the change batch to stage on the base views, as
// fractions of each view's current size or as row counts.
type ChangeSpec struct {
	// DeleteFrac[view] is the fraction of existing rows to delete.
	DeleteFrac map[string]float64
	// InsertFrac[view] is the fraction (of current size) of fresh rows to
	// insert.
	InsertFrac map[string]float64
	// DeleteRows[view] and InsertRows[view] are the absolute form: the
	// number of existing rows to delete and of fresh rows to insert,
	// whatever the view's size, so that a batch is the same at every scale
	// factor. A view's deletions, and its insertions, take a fraction or a
	// count, not both.
	DeleteRows, InsertRows map[string]int64
	// Seed drives row selection; change batches are deterministic.
	Seed int64
}

// UniformDecrease returns the paper's default workload: CUSTOMER, ORDER,
// LINEITEM, SUPPLIER and NATION each decreased in size by fraction p;
// REGION (the smallest view) left unchanged.
func UniformDecrease(p float64) ChangeSpec {
	return ChangeSpec{
		DeleteFrac: map[string]float64{
			Customer: p, Order: p, LineItem: p, Supplier: p, Nation: p,
		},
		Seed: 1,
	}
}

// COLDecrease returns Experiment 3's workload: only CUSTOMER, ORDER and
// LINEITEM decreased by fraction p.
func COLDecrease(p float64) ChangeSpec {
	return ChangeSpec{
		DeleteFrac: map[string]float64{Customer: p, Order: p, LineItem: p},
		Seed:       1,
	}
}

// Mixed returns a workload with both deletions and insertions on the fact
// and dimension tables.
func Mixed(deleteP, insertP float64) ChangeSpec {
	return ChangeSpec{
		DeleteFrac: map[string]float64{Customer: deleteP, Order: deleteP, LineItem: deleteP, Supplier: deleteP},
		InsertFrac: map[string]float64{Customer: insertP, Order: insertP, LineItem: insertP, Supplier: insertP},
		Seed:       1,
	}
}

// MixedRows returns a workload of the same size at every scale factor:
// rows[view] existing rows deleted from the view and as many fresh rows
// inserted.
func MixedRows(rows map[string]int64) ChangeSpec {
	return ChangeSpec{DeleteRows: rows, InsertRows: rows, Seed: 1}
}

// StageChanges generates and stages a change batch per spec. It returns the
// per-view staged delta sizes. The warehouse state itself is not modified
// (changes are only staged; an update strategy must propagate and install
// them).
func (t *Warehouse) StageChanges(spec ChangeSpec) (map[string]int64, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	sizes := make(map[string]int64)
	for _, view := range BaseViews {
		v := t.W.MustView(view)
		del, delGiven, err := spec.count(view, spec.DeleteFrac, spec.DeleteRows, v.Cardinality())
		if err != nil {
			return nil, err
		}
		ins, insGiven, err := spec.count(view, spec.InsertFrac, spec.InsertRows, v.Cardinality())
		if err != nil {
			return nil, err
		}
		if !delGiven && !insGiven {
			continue
		}
		if del > v.Cardinality() {
			return nil, fmt.Errorf("tpcd: cannot delete %d rows of %s, which holds %d", del, view, v.Cardinality())
		}
		d := delta.New(v.Schema())
		if delGiven {
			// Delete a deterministic sample of distinct existing rows.
			rows := v.SortedRows()
			perm := rng.Perm(len(rows))
			var deleted int64
			for _, idx := range perm {
				if deleted >= del {
					break
				}
				d.Add(rows[idx].Tuple, -rows[idx].Count)
				deleted += rows[idx].Count
			}
		}
		for i := int64(0); i < ins; i++ {
			d.Add(t.gen.freshRow(view), 1)
		}
		if err := t.W.StageDelta(view, d); err != nil {
			return nil, err
		}
		sizes[view] = d.Size()
	}
	return sizes, nil
}

// count returns how many rows of view, which holds card, the spec deletes
// (or inserts) — a fraction of card or a count — and whether it names the
// view at all: a fraction that rounds to no rows still draws the sample it
// would have taken, so that the batches after it do not change.
func (spec ChangeSpec) count(view string, frac map[string]float64, rows map[string]int64, card int64) (n int64, given bool, err error) {
	f, c := frac[view], rows[view]
	switch {
	case f < 0 || c < 0:
		return 0, false, fmt.Errorf("tpcd: bad change size for %s: fraction %v, rows %d", view, f, c)
	case f > 0 && c > 0:
		return 0, false, fmt.Errorf("tpcd: %s takes a fraction (%v) and a row count (%d)", view, f, c)
	case c > 0:
		return c, true, nil
	}
	return int64(float64(card) * f), f > 0, nil
}
