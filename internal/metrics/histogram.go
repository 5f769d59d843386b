// Package metrics provides the measurement primitives used throughout the
// ActOp runtime and its experiment harness: streaming log-bucketed latency
// histograms, time series, latency-breakdown accounting, and a concurrent
// registry with Prometheus-text exposition.
//
// Goroutine safety, by type:
//
//   - Safe for concurrent use: FailureCounters, ConcurrentHistogram,
//     Registry and its families (SummaryFamily, GaugeFamily, CounterFamily).
//   - Single-goroutine only: Histogram, TimeSeries, Breakdown. Concurrent
//     recorders must wrap Histogram in a ConcurrentHistogram (or take
//     their own lock, as internal/seda does); snapshots of these types
//     taken under traffic must be produced by the owning goroutine or
//     under that same lock.
package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// histogram bucketing: we cover 1ns .. ~4.6h with buckets spaced at a fixed
// ratio per decade. subBuckets buckets per power of two keeps relative
// quantile error under ~1/subBuckets.
const (
	histMinValue   = 1 // nanoseconds
	histSubBuckets = 32
	histMaxPow     = 44 // 2^44 ns ≈ 4.9 hours
	histBucketN    = histMaxPow * histSubBuckets
)

// Histogram is a streaming log-bucketed histogram of durations. It records in
// O(1), answers quantiles with bounded relative error (~3%), and merges with
// other histograms. The zero value is ready to use.
type Histogram struct {
	counts   [histBucketN + 1]uint64 // +1 overflow bucket
	total    uint64
	sum      float64 // nanoseconds
	min, max int64   // nanoseconds; valid when total > 0
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns < histMinValue {
		ns = histMinValue
	}
	// position = floor(log2(ns)*subBuckets), computed without math.Log2 for speed.
	pow := 63 - bits.LeadingZeros64(uint64(ns))
	// fraction within the power-of-two interval, linearised.
	base := int64(1) << uint(pow)
	frac := int((ns - base) * histSubBuckets / base)
	idx := pow*histSubBuckets + frac
	if idx >= histBucketN {
		return histBucketN // overflow bucket
	}
	return idx
}

// bucketLow returns the lower bound (ns) of bucket idx.
func bucketLow(idx int) int64 {
	pow := idx / histSubBuckets
	frac := idx % histSubBuckets
	base := int64(1) << uint(pow)
	return base + base*int64(frac)/histSubBuckets
}

// Record adds one duration observation.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)]++
	if h.total == 0 || ns < h.min {
		h.min = ns
	}
	if h.total == 0 || ns > h.max {
		h.max = ns
	}
	h.total++
	h.sum += float64(ns)
}

// RecordN adds n identical observations.
func (h *Histogram) RecordN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)] += n
	if h.total == 0 || ns < h.min {
		h.min = ns
	}
	if h.total == 0 || ns > h.max {
		h.max = ns
	}
	h.total += n
	h.sum += float64(ns) * float64(n)
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean reports the mean of recorded observations, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.total))
}

// Min reports the smallest recorded observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max reports the largest recorded observation, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) of recorded observations.
// Results clamp to [Min, Max] so small histograms stay sensible.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i := 0; i <= histBucketN; i++ {
		cum += h.counts[i]
		if cum > rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max)
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.total == 0 || other.max > h.max {
		h.max = other.max
	}
	h.total += other.total
	h.sum += other.sum
}

// Reset clears all recorded data.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// CDFPoint is a single point of a cumulative distribution.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns up to n evenly spaced (by probability) points of the cumulative
// distribution, suitable for plotting Fig. 10(b)/(c)-style curves.
func (h *Histogram) CDF(n int) []CDFPoint {
	if h.total == 0 || n <= 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		q := float64(i) / float64(n)
		pts = append(pts, CDFPoint{Latency: h.Quantile(q), Fraction: q})
	}
	return pts
}

// Summary is a compact set of the statistics the paper reports.
type Summary struct {
	Count  uint64
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Median: h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
		Max:    h.Max(),
	}
}

// String renders the summary in a single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, s.Mean.Round(time.Microsecond), s.Median.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// Improvement reports the paper's latency-improvement measure
// 100% × (1 − optimized/baseline) for one quantile pair.
func Improvement(baseline, optimized time.Duration) float64 {
	if baseline <= 0 {
		return 0
	}
	return 100 * (1 - float64(optimized)/float64(baseline))
}
