// Benchmarks of design choices and primitives that nothing else in the
// repo measures: the ablations EXPERIMENTS.md cites (one-sided migration,
// sampling capacity, Ja-Be-Ja) and two primitives outside the benchmark
// ledger's ladder (the DES kernel's event rate, SelectCandidates' scaling in
// vertices per server). The paper's figures are printed by `actop-bench
// <figure>` and asserted by the tests in internal/experiments; the live
// runtime's layers are measured by `go run ./benchmark --trace 1`.
package actop_test

import (
	"fmt"
	"testing"
	"time"

	"actop/internal/des"
	"actop/internal/graph"
	"actop/internal/partition"
)

// --- ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationOneSided contrasts the rejected uncoordinated-migration
// design (§4.1) against pairwise exchange on the same graph.
func BenchmarkAblationOneSided(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.NoisyCliques(10, 8, 5, 0.3, 120, 7)
		servers := []graph.ServerID{0, 1, 2, 3}
		opts := partition.DefaultOptions()
		opts.ImbalanceTolerance = 8

		a1 := graph.HashAssignment(g, servers)
		for r := 0; r < 20; r++ {
			partition.OneSidedRound(opts, g, a1)
		}
		a2 := graph.HashAssignment(g, servers)
		e := partition.NewEngine(opts, g, a2, 3)
		e.RunToConvergence(40)

		b.ReportMetric(float64(a1.Imbalance()), "onesided_imbalance")
		b.ReportMetric(float64(a2.Imbalance()), "pairwise_imbalance")
		b.ReportMetric(graph.CutCost(g, a1), "onesided_cut")
		b.ReportMetric(graph.CutCost(g, a2), "pairwise_cut")
	}
}

// BenchmarkAblationSamplingCapacity sweeps the Space-Saving capacity (§4.3
// edge sampling): quality holds far below the true edge count.
func BenchmarkAblationSamplingCapacity(b *testing.B) {
	for _, capacity := range []int{32, 128, 1024} {
		b.Run(fmt.Sprintf("k=%d", capacity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graph.NoisyCliques(8, 8, 10, 0.2, 150, 11)
				a := graph.HashAssignment(g, []graph.ServerID{0, 1, 2, 3})
				opts := partition.DefaultOptions()
				opts.ImbalanceTolerance = 8
				e := partition.NewEngine(opts, g, a, 5)
				e.EnableMonitors(capacity)
				now := time.Duration(0)
				for r := 0; r < 30; r++ {
					e.FeedMonitors(10)
					now += e.RejectWindow + time.Second
					e.Round(now)
				}
				b.ReportMetric(100*graph.RemoteFraction(g, a), "remote_%")
			}
		})
	}
}

// BenchmarkAblationJaBeJa contrasts the Ja-Be-Ja-style per-vertex baseline
// (§7): balance preserved exactly, but far more migrations per unit of cut
// reduction.
func BenchmarkAblationJaBeJa(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.NoisyCliques(10, 8, 5, 0.3, 120, 13)
		servers := []graph.ServerID{0, 1, 2, 3}
		a1 := graph.HashAssignment(g, servers)
		j := partition.NewJaBeJa(g, a1, 17)
		j.Run(2000, 40)
		a2 := graph.HashAssignment(g, servers)
		opts := partition.DefaultOptions()
		opts.ImbalanceTolerance = 8
		e := partition.NewEngine(opts, g, a2, 19)
		e.RunToConvergence(40)
		b.ReportMetric(float64(2*j.Swaps), "jabeja_moves")
		b.ReportMetric(float64(e.Moves), "pairwise_moves")
		b.ReportMetric(graph.CutCost(g, a1), "jabeja_cut")
		b.ReportMetric(graph.CutCost(g, a2), "pairwise_cut")
	}
}

// --- micro-benchmarks of primitives outside the ladder ---

func BenchmarkDESEventThroughput(b *testing.B) {
	var k des.Kernel
	n := 0
	var next func()
	next = func() {
		n++
		if n < b.N {
			k.After(time.Microsecond, next)
		}
	}
	b.ResetTimer()
	k.After(0, next)
	k.Run()
}

// BenchmarkSelectCandidatesScaling checks the §4.2 complexity claim: the
// per-round cost is practically linear in the vertices per server.
func BenchmarkSelectCandidatesScaling(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("V=%d", n), func(b *testing.B) {
			cliques := n / 8
			g := graph.Cliques(cliques, 8, 1)
			a := graph.HashAssignment(g, []graph.ServerID{0, 1, 2, 3})
			opts := partition.DefaultOptions()
			view := partition.GraphView{G: g}
			local := a.VerticesOn(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				partition.SelectCandidates(opts, view, a, 0, local, len(local))
			}
		})
	}
}
