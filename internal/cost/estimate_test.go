package cost

import "testing"

// TestEstimateDeltasSPJ checks the multiplicative model on a join view:
// deleted fraction 1 − Π(1 − f_c), size ratio Π(|c′|/|c|).
func TestEstimateDeltasSPJ(t *testing.T) {
	stats := Stats{
		"A": {Size: 100, DeltaMinus: 10}, // 10% deleted
		"B": {Size: 200, DeltaMinus: 40}, // 20% deleted
		"V": {Size: 1000},                // derived
	}
	infos := []ViewInfo{{Name: "V", Children: []string{"A", "B"}}}
	if err := EstimateDeltas(infos, stats); err != nil {
		t.Fatal(err)
	}
	v := stats["V"]
	// survive = 0.9 * 0.8 = 0.72 → minus = 1000 * 0.28 = 280.
	if v.DeltaMinus != 280 {
		t.Errorf("DeltaMinus = %d, want 280", v.DeltaMinus)
	}
	// ratio = (90/100)*(160/200) = 0.72 → after = 720, plus = 720-1000+280 = 0.
	if v.DeltaPlus != 0 {
		t.Errorf("DeltaPlus = %d, want 0", v.DeltaPlus)
	}
}

// TestEstimateDeltasInserts checks that net growth shows up as DeltaPlus.
func TestEstimateDeltasInserts(t *testing.T) {
	stats := Stats{
		"A": {Size: 100, DeltaPlus: 100}, // doubles
		"V": {Size: 50},
	}
	infos := []ViewInfo{{Name: "V", Children: []string{"A"}}}
	if err := EstimateDeltas(infos, stats); err != nil {
		t.Fatal(err)
	}
	v := stats["V"]
	if v.DeltaMinus != 0 {
		t.Errorf("DeltaMinus = %d, want 0", v.DeltaMinus)
	}
	// ratio = 200/100 = 2 → after = 100, plus = 100-50 = 50.
	if v.DeltaPlus != 50 {
		t.Errorf("DeltaPlus = %d, want 50", v.DeltaPlus)
	}
}

// TestEstimateDeltasAggregate checks the group-level model: one minus and
// one plus row per affected group.
func TestEstimateDeltasAggregate(t *testing.T) {
	stats := Stats{
		"A": {Size: 100, DeltaMinus: 25, DeltaPlus: 25}, // changed fraction 50%
		"G": {Size: 10},
	}
	infos := []ViewInfo{{Name: "G", Children: []string{"A"}, IsAggregate: true}}
	if err := EstimateDeltas(infos, stats); err != nil {
		t.Fatal(err)
	}
	g := stats["G"]
	if g.DeltaMinus != 5 || g.DeltaPlus != 5 {
		t.Errorf("aggregate delta = (−%d, +%d), want (−5, +5)", g.DeltaMinus, g.DeltaPlus)
	}
}

// TestEstimateDeltasEmptyChildJoin: an empty child of a join keeps the
// parent unchanged even when its sibling shrinks.
func TestEstimateDeltasEmptyChildJoin(t *testing.T) {
	stats := Stats{
		"A": {Size: 0},
		"B": {Size: 100, DeltaMinus: 50},
		"V": {Size: 0},
	}
	infos := []ViewInfo{{Name: "V", Children: []string{"A", "B"}}}
	if err := EstimateDeltas(infos, stats); err != nil {
		t.Fatal(err)
	}
	v := stats["V"]
	if v.DeltaMinus != 0 || v.DeltaPlus != 0 {
		t.Errorf("delta = (−%d, +%d), want (0, 0)", v.DeltaMinus, v.DeltaPlus)
	}
}

// TestEstimateDeltasTopoOrder: derived children must be estimated before
// their parents (the documented contract), and estimates chain through.
func TestEstimateDeltasTopoOrder(t *testing.T) {
	stats := Stats{
		"A": {Size: 100, DeltaMinus: 10},
		"M": {Size: 100}, // over A
		"T": {Size: 100}, // over M
	}
	infos := []ViewInfo{
		{Name: "M", Children: []string{"A"}},
		{Name: "T", Children: []string{"M"}},
	}
	if err := EstimateDeltas(infos, stats); err != nil {
		t.Fatal(err)
	}
	if stats["M"].DeltaMinus != 10 {
		t.Errorf("M DeltaMinus = %d, want 10", stats["M"].DeltaMinus)
	}
	if stats["T"].DeltaMinus != 10 {
		t.Errorf("T DeltaMinus = %d, want 10", stats["T"].DeltaMinus)
	}
}

func TestEstimateMaterializedBytes(t *testing.T) {
	if got := EstimateMaterializedBytes(0, 4); got != 0 {
		t.Errorf("0 rows → %d bytes, want 0", got)
	}
	if got := EstimateMaterializedBytes(-5, 4); got != 0 {
		t.Errorf("negative rows → %d bytes, want 0", got)
	}
	if got := EstimateMaterializedBytes(10, 0); got != EstimateMaterializedBytes(10, 1) {
		t.Errorf("width 0 should clamp to 1: %d", got)
	}
	// Monotone in both rows and width.
	if EstimateMaterializedBytes(10, 4) >= EstimateMaterializedBytes(20, 4) {
		t.Error("not monotone in rows")
	}
	if EstimateMaterializedBytes(10, 2) >= EstimateMaterializedBytes(10, 4) {
		t.Error("not monotone in width")
	}
}
