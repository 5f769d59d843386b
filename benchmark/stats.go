package main

import (
	"math"
	"sort"
)

// windows is how many equal windows the measured phase is cut into, and
// spanWindows how many consecutive windows make a span. Everything timed is
// taken over the run's quiet span: the span in which the most ops completed.
//
// The host is shared. Other tenants take the cores away in 4 ms slices the
// guest is never told about (no steal time is reported), for seconds or
// minutes at a stretch, and a mean or a median over the phase then reads
// 10–50 % low on some runs and not on others. That noise is one-sided — a
// neighbour only ever slows the run — so, as with the minimum of repeated
// timings, the least disturbed stretch is the steadiest estimate of what
// the program does. A span is a sixth of the phase (3.7 s at the driver's
// 22 s): longer than a collection cycle of every workload, so that it
// cannot sit between two collections, and short enough that a disturbed
// run still holds a quiet one (README, "Windows and the quiet span").
const (
	windows     = 96
	spanWindows = 16
)

// percentile returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the samples
// at or below it. Exact — no buckets between a sample and its report.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle of vals (mean of the two middles when even),
// or 0 for none. vals is sorted in place.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// latencyWindows is one op kind's latency samples (ns), cut by window:
// window w holds samples[bounds[w]:bounds[w+1]].
type latencyWindows struct {
	samples []int64
	bounds  [windows + 1]int
}

// count is how many samples window w holds.
func (lw *latencyWindows) count(w int) int { return lw.bounds[w+1] - lw.bounds[w] }

// spanPercentiles returns the exact qs-quantiles (ns) of the samples in the
// spanWindows windows from first on, and how many samples those are.
func (lw *latencyWindows) spanPercentiles(first int, qs ...float64) ([]float64, int) {
	span := append([]int64(nil), lw.samples[lw.bounds[first]:lw.bounds[first+spanWindows]]...)
	sort.Slice(span, func(i, j int) bool { return span[i] < span[j] })
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = float64(percentile(span, q))
	}
	return out, len(span)
}

// quietSpan returns the first window of the spanWindows consecutive windows
// in which the most ops completed (the earliest such span on a tie).
func quietSpan(ops *[windows]int) int {
	sum := 0
	for _, n := range ops[:spanWindows] {
		sum += n
	}
	best, first := sum, 0
	for w := 1; w+spanWindows <= windows; w++ {
		sum += ops[w+spanWindows-1] - ops[w-1]
		if sum > best {
			best, first = sum, w
		}
	}
	return first
}

// mergeWindows gathers the clients' samples of one op kind window by
// window, so that a window's percentile is taken over every client.
func mergeWindows(parts []*latencyWindows) *latencyWindows {
	total := 0
	for _, p := range parts {
		total += len(p.samples)
	}
	out := &latencyWindows{samples: make([]int64, 0, total)}
	for w := 0; w < windows; w++ {
		out.bounds[w] = len(out.samples)
		for _, p := range parts {
			out.samples = append(out.samples, p.samples[p.bounds[w]:p.bounds[w+1]]...)
		}
	}
	out.bounds[windows] = len(out.samples)
	return out
}

// reading is the process-wide state at one window boundary.
type reading struct {
	atNs    int64   // ns since the phase began
	ops     uint64  // ops completed by all clients
	cpuUs   float64 // process user+system CPU so far
	mallocs uint64  // runtime.MemStats.Mallocs; read at the phase's two ends only
	live    uint64  // heap marked live by the latest collection
}

// phaseRates turns the boundary readings into CPU per op (us) over the span
// that starts at window first, allocations per op over the whole phase — a
// count, which a neighbour does not move, so every op is worth having — and
// the peak live heap (bytes) of the boundaries after the first: the heap a
// deployment has to provision for, and like the quiet span the reading a
// slowed stretch (fewer ops in flight, fewer pending timers) does not lower.
// Readings cut short by a stall give zeros where the span is missing.
func phaseRates(rs []reading, first int) (cpuUsPerOp, allocsPerOp, peakLive float64) {
	if last := first + spanWindows; last < len(rs) {
		if dops := float64(rs[last].ops - rs[first].ops); dops > 0 {
			cpuUsPerOp = (rs[last].cpuUs - rs[first].cpuUs) / dops
		}
	}
	if len(rs) > 1 {
		a, b := rs[0], rs[len(rs)-1]
		if dops := float64(b.ops - a.ops); dops > 0 && b.mallocs > a.mallocs { // a stalled phase has no closing count
			allocsPerOp = float64(b.mallocs-a.mallocs) / dops
		}
		for _, r := range rs[1:] {
			peakLive = max(peakLive, float64(r.live))
		}
	}
	return cpuUsPerOp, allocsPerOp, peakLive
}

// quartileSpread is the contract's steadiness measure: the distance
// between the first and third quartile of vals as a share of their median,
// with the quartiles of Python's statistics.quantiles(vals, n=4) (the
// exclusive method). It needs at least two values.
func quartileSpread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	quart := func(i int) float64 { // statistics.quantiles, method="exclusive"
		const n = 4
		m := len(s)
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}
