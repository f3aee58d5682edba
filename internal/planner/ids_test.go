package planner_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/cost"
	"repro/internal/planner"
	"repro/internal/tpcd"
	"repro/internal/vdag"
)

// equivalenceGraphs are the VDAGs the id forms are held to the string-keyed
// reference on: the differential harness's Random catalogs, and TPC-D flat
// and with its second-level summaries (DeepVDAG).
func equivalenceGraphs(t *testing.T) map[string]*vdag.Graph {
	t.Helper()
	graphs := make(map[string]*vdag.Graph)
	for seed := int64(0); seed < 40; seed++ {
		graphs[fmt.Sprintf("random/%d", seed)] = check.Build(t, seed).Internal().Graph()
	}
	for _, deep := range []bool{false, true} {
		tw, err := tpcd.NewWarehouse(tpcd.Config{SF: 0.0005, Seed: 1, DeepVDAG: deep})
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("tpcd/deep=%v", deep)] = tw.W.Graph()
	}
	return graphs
}

// TestMinWorkMatchesReference holds MinWork over view ids to the
// string-keyed construction it replaced, on drawn statistics: the same
// orderings, the same strategy, and the same fall-back to ModifyOrdering
// where the desired ordering's expression graph is cyclic — which the draws
// must reach.
func TestMinWorkMatchesReference(t *testing.T) {
	modified := 0
	for name, g := range equivalenceGraphs(t) {
		rng := rand.New(rand.NewSource(int64(len(name))))
		for trial := 0; trial < 25; trial++ {
			stats := make(cost.Stats)
			for _, v := range g.Views() {
				size := 50 + rng.Int63n(500)
				stats[v] = cost.ViewStat{Size: size, DeltaPlus: rng.Int63n(size), DeltaMinus: rng.Int63n(size)}
			}
			got, err := planner.MinWork(g, stats)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			want, err := planner.RefMinWork(g, stats)
			if err != nil {
				t.Fatalf("%s trial %d: reference: %v", name, trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: MinWork = %+v\nreference %+v", name, trial, got, want)
			}
			if got.Modified {
				modified++
			}
		}
	}
	if modified == 0 {
		t.Errorf("no draw made the desired ordering cyclic: ModifyOrdering went untested")
	}
	t.Logf("%d draws fell back to ModifyOrdering", modified)
}
