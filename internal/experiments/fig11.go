package experiments

import (
	"fmt"
	"strings"

	"actop/internal/metrics"
	"actop/internal/sim"
)

// Fig11aResult is the thread-allocation-only evaluation across loads.
type Fig11aResult struct {
	Rows []struct {
		Load            float64
		Baseline, Tuned SingleHopResult
	}
}

// RunFig11a regenerates Fig. 11(a): heartbeat latency improvement from the
// optimized thread allocation at increasing loads (paper: 10K/12.5K/15K
// req/s; −58% median and −68% p99 at the top load). The heartbeat service is
// the single-hop workload with 8 threads per *active* stage (receiver,
// worker, client sender) — the server-sender stage is idle when no request
// leaves its first actor — run with and without the §5 thread controller.
func RunFig11a(base SingleHopOpts, loads []float64) Fig11aResult {
	var res Fig11aResult
	for _, load := range loads {
		o := base
		o.Rate = load
		o.Threads = [sim.NumStages]int{8, 8, 1, 8}
		o.ThreadTuning = false
		tuned := o
		tuned.ThreadTuning = true
		res.Rows = append(res.Rows, struct {
			Load            float64
			Baseline, Tuned SingleHopResult
		}{load, RunSingleHop(o), RunSingleHop(tuned)})
	}
	return res
}

// Render prints improvement percentages and chosen allocations per load.
func (r Fig11aResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 11(a) — thread-allocation-only improvement (heartbeat, 1 server)\n")
	b.WriteString("paper: −58% median / −68% p99 at 15K req/s; workers 3→4 as load grows, 2 client senders\n")
	b.WriteString("   load   median%   p95%   p99%   allocation(recv,worker,ssend,csend)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%7.0f %8.0f %7.0f %6.0f   %v\n", row.Load,
			metrics.Improvement(row.Baseline.Latency.Median, row.Tuned.Latency.Median),
			metrics.Improvement(row.Baseline.Latency.P95, row.Tuned.Latency.P95),
			metrics.Improvement(row.Baseline.Latency.P99, row.Tuned.Latency.P99),
			row.Tuned.Threads)
	}
	return b.String()
}

// Fig11bResult compares partitioning alone against both optimizations.
type Fig11bResult struct {
	Baseline  HaloResult // no optimization
	Partition HaloResult // partitioning only
	Combined  HaloResult // partitioning + thread allocation
}

// RunFig11b regenerates Fig. 11(b): on Halo Presence at top load, the
// combined system beats partitioning alone (paper: −55% median / −75% p99
// total; thread allocation adds −21% median / −9% p99 on top).
func RunFig11b(base HaloOpts) Fig11bResult {
	b := base
	b.Partitioning, b.ThreadTuning = false, false
	p := base
	p.Partitioning, p.ThreadTuning = true, false
	c := base
	c.Partitioning, c.ThreadTuning = true, true
	return Fig11bResult{Baseline: RunHalo(b), Partition: RunHalo(p), Combined: RunHalo(c)}
}

// Render prints the three configurations and the improvement deltas.
func (r Fig11bResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 11(b) — combining both optimizations (Halo at top load)\n")
	b.WriteString("paper: total −55% median / −75% p99; thread allocation adds −21% median / −9% p99 over partitioning\n")
	fmt.Fprintf(&b, "baseline            : %s  cpu %.0f%%\n", r.Baseline.Latency, 100*r.Baseline.CPUUtilization)
	fmt.Fprintf(&b, "partitioning        : %s  cpu %.0f%%\n", r.Partition.Latency, 100*r.Partition.CPUUtilization)
	fmt.Fprintf(&b, "partitioning+threads: %s  cpu %.0f%%\n", r.Combined.Latency, 100*r.Combined.CPUUtilization)
	fmt.Fprintf(&b, "partitioning vs baseline : median %.0f%%, p95 %.0f%%, p99 %.0f%%\n",
		metrics.Improvement(r.Baseline.Latency.Median, r.Partition.Latency.Median),
		metrics.Improvement(r.Baseline.Latency.P95, r.Partition.Latency.P95),
		metrics.Improvement(r.Baseline.Latency.P99, r.Partition.Latency.P99))
	fmt.Fprintf(&b, "combined vs baseline     : median %.0f%%, p95 %.0f%%, p99 %.0f%%\n",
		metrics.Improvement(r.Baseline.Latency.Median, r.Combined.Latency.Median),
		metrics.Improvement(r.Baseline.Latency.P95, r.Combined.Latency.P95),
		metrics.Improvement(r.Baseline.Latency.P99, r.Combined.Latency.P99))
	fmt.Fprintf(&b, "combined vs partitioning : median %.0f%%, p95 %.0f%%, p99 %.0f%%\n",
		metrics.Improvement(r.Partition.Latency.Median, r.Combined.Latency.Median),
		metrics.Improvement(r.Partition.Latency.P95, r.Combined.Latency.P95),
		metrics.Improvement(r.Partition.Latency.P99, r.Combined.Latency.P99))
	if len(r.Combined.ThreadAllocations) > 0 {
		fmt.Fprintf(&b, "combined allocation (server 0): %v (paper: 6 workers, 1 server sender, 1 client sender)\n",
			r.Combined.ThreadAllocations[0])
	}
	return b.String()
}
