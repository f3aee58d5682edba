package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/tpcd"
)

// TestQ5LiveColumns: of Q5's 26 joined columns a probe copies the 16 that its
// join keys, filters, group-by key and aggregate input read — CUSTOMER's key
// and nation, LINEITEM's order and supplier keys, price and discount, and
// none of the names, balances, line numbers, flags or dates nobody reads.
func TestQ5LiveColumns(t *testing.T) {
	want := map[string][]int{
		tpcd.Customer: {0, 2},
		tpcd.Order:    {0, 1, 2},
		tpcd.LineItem: {0, 2, 3, 4},
		tpcd.Supplier: {0, 2},
		tpcd.Nation:   {0, 1, 2},
		tpcd.Region:   {0, 1},
	}
	q5 := tpcd.Q5Def()
	live := core.LiveColumns(q5)
	n := 0
	for i, ref := range q5.Refs {
		if !slices.Equal(live[i], want[ref.View]) {
			t.Errorf("%s: live columns %v, want %v", ref.View, live[i], want[ref.View])
		}
		n += len(live[i])
	}
	if n != 16 || len(q5.JoinedSchema()) != 26 {
		t.Errorf("%d of %d joined columns live, want 16 of 26", n, len(q5.JoinedSchema()))
	}
}
