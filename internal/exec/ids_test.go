package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/planner"
	"repro/internal/strategy"
	"repro/internal/tpcd"
	"repro/internal/vdag"
)

// TestDAGMatchesNameConflicts holds the precedence DAG, built over view ids,
// to a brute-force DAG over the by-name conflict relation it replaced: the
// same predecessors and levels for every strategy MinWork and Prune emit on
// the differential harness's Random catalogs and on TPC-D flat and deep, and
// for DualStageVDAG on each.
func TestDAGMatchesNameConflicts(t *testing.T) {
	var graphs []*vdag.Graph
	for seed := int64(0); seed < 30; seed++ {
		graphs = append(graphs, check.Build(t, seed).Internal().Graph())
	}
	for _, deep := range []bool{false, true} {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.0005, Seed: 1, DeepVDAG: deep})
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, tw.W.Graph())
	}
	rng := rand.New(rand.NewSource(52))
	for gi, g := range graphs {
		for trial := 0; trial < 4; trial++ {
			for _, s := range emitted(t, g, rng) {
				name := fmt.Sprintf("graph %d (%v), %s", gi, g, s)
				d := exec.BuildDAG(s, g)
				level := make([]int, len(s))
				for i := range s {
					var want []int32
					for j := 0; j < i; j++ {
						if exec.Conflicts(s[j], s[i], g.Children) {
							want = append(want, int32(j))
							level[i] = max(level[i], level[j]+1)
						}
					}
					if got := d.Preds(i); !slices.Equal(got, want) {
						t.Fatalf("%s: node %d waits for %v, by name %v", name, i, got, want)
					}
					if d.Level(i) != level[i] {
						t.Fatalf("%s: node %d at level %d, by name %d", name, i, d.Level(i), level[i])
					}
				}
			}
		}
	}
}

// emitted returns the strategies the planners emit for g on drawn
// statistics, and g's dual-stage strategy.
func emitted(t *testing.T, g *vdag.Graph, rng *rand.Rand) []strategy.Strategy {
	t.Helper()
	stats := make(cost.Stats)
	for _, v := range g.Views() {
		size := 50 + rng.Int63n(500)
		stats[v] = cost.ViewStat{Size: size, DeltaPlus: rng.Int63n(size), DeltaMinus: rng.Int63n(size)}
	}
	refs := cost.UniformRefs(g.Views(), g.Children)
	mw, err := planner.MinWork(g, stats)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := planner.Prune(g, cost.DefaultModel, stats, refs)
	if err != nil {
		t.Fatal(err)
	}
	return []strategy.Strategy{mw.Strategy, pr.Strategy, strategy.DualStageVDAG(g)}
}
