package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/vdag"
)

// syntheticUniform builds a uniform VDAG with nBase base views and nDerived
// summaries, each over a random subset of the bases.
func syntheticUniform(rng *rand.Rand, nBase, nDerived int) *vdag.Graph {
	b := vdag.NewBuilder()
	var bases []string
	for i := 0; i < nBase; i++ {
		n := fmt.Sprintf("B%02d", i)
		if err := b.Add(n, nil); err != nil {
			panic(err)
		}
		bases = append(bases, n)
	}
	for i := 0; i < nDerived; i++ {
		var over []string
		for _, c := range bases {
			if rng.Intn(2) == 0 {
				over = append(over, c)
			}
		}
		if len(over) == 0 {
			over = bases[:1]
		}
		if err := b.Add(fmt.Sprintf("D%02d", i), over); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// BenchmarkMinWorkScaling measures MinWork's planning cost (EG construction
// dominates, O(n³)) as the VDAG grows.
func BenchmarkMinWorkScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []struct{ base, derived int }{
		{6, 3}, {12, 8}, {24, 16}, {48, 32},
	} {
		g := syntheticUniform(rng, size.base, size.derived)
		stats := randStats(g, rng)
		b.Run(fmt.Sprintf("views=%d", size.base+size.derived), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MinWork(g, stats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPruneScaling measures Prune's growth with the number of views that
// have parents — the 2^m·m table of costs-to-go, then the prefixes the bound
// leaves to price — where a sweep of the m! orderings stopped at m = 8.
func BenchmarkPruneScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []int{3, 4, 5, 6, 7, 8, 9, 10, 12, 16} {
		// m base views all referenced by two summaries → m views with parents.
		builder := vdag.NewBuilder()
		var bases []string
		for i := 0; i < m; i++ {
			n := fmt.Sprintf("B%d", i)
			if err := builder.Add(n, nil); err != nil {
				b.Fatal(err)
			}
			bases = append(bases, n)
		}
		for _, d := range []string{"D0", "D1"} {
			if err := builder.Add(d, bases); err != nil {
				b.Fatal(err)
			}
		}
		g := builder.Build()
		stats := randStats(g, rng)
		refs := uniformRefs(g)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var res PruneResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = Prune(g, cost.DefaultModel, stats, refs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Examined), "prefixes/op")
		})
	}
}

// BenchmarkPruneShared measures the sharing-aware search on the TPC-D VDAGs
// of the benchmark's plan-space sweep.
func BenchmarkPruneShared(b *testing.B) {
	for _, m := range []int{6, 7, 8, 10} {
		g := tpcdSearchGraph(m)
		stats, opts := tpcdSearchInputs(g)
		refs := uniformRefs(g)
		b.Run(fmt.Sprintf("tpcd/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var res SharedResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = PruneShared(g, cost.DefaultModel, stats, refs, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Examined), "prefixes/op")
		})
	}
}

// BenchmarkConstructEG isolates expression-graph construction and sorting.
func BenchmarkConstructEG(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := syntheticUniform(rng, 24, 16)
	stats := randStats(g, rng)
	ordering, err := DesiredOrdering(g.ViewsWithParents(), stats)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("construct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConstructEG(g, ordering)
		}
	})
	eg := ConstructEG(g, ordering)
	b.Run("toposort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eg.TopoSort(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
