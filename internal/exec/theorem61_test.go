package exec

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/strategy"
)

// TestTheorem61Measured executes, on identical warehouse states, every
// enumerated 1-way VDAG strategy, grouped by the view ordering each is
// strongly consistent with (its install order restricted to views that
// other views read). Theorem 6.1 says all members of a group incur the same
// work — and because this engine's execution model *is* the linear metric,
// the theorem must hold for measured work exactly, not just for simulated
// estimates.
func TestTheorem61Measured(t *testing.T) {
	base := newWarehouse(t, rand.New(rand.NewSource(61)))
	stageRandomChanges(t, base, rand.New(rand.NewSource(62)))
	g := base.Graph()
	withParents := make(map[string]bool)
	for _, v := range g.ViewsWithParents() {
		withParents[v] = true
	}
	groups := make(map[string][]int64) // ordering key -> measured comp work
	count := 0
	for _, s := range strategy.EnumerateVDAGStrategies(g) {
		if !s.IsOneWay() {
			continue
		}
		var ord []string
		for _, v := range s.InstOrder() {
			if withParents[v] {
				ord = append(ord, v)
			}
		}
		key := strings.Join(ord, ",")
		run := base.Clone()
		rep, err := Execute(run, s, Options{Validate: true})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := run.VerifyAll(); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		groups[key] = append(groups[key], rep.CompWork)
		count++
	}
	if count < 4 || len(groups) < 2 {
		t.Fatalf("enumeration too small: %d strategies in %d groups", count, len(groups))
	}
	for key, works := range groups {
		for _, w := range works[1:] {
			if w != works[0] {
				t.Errorf("ordering %s: measured comp work differs within the partition: %v", key, works)
				break
			}
		}
	}
	t.Logf("executed %d 1-way strategies across %d strong-consistency partitions", count, len(groups))
}
