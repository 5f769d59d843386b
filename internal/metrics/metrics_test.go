package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram should report zeros: %+v", h.Summarize())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(42 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got != 42*time.Millisecond {
			t.Errorf("Quantile(%v) = %v, want 42ms", q, got)
		}
	}
	if h.Mean() != 42*time.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		relErr := math.Abs(float64(got)-float64(c.want)) / float64(c.want)
		if relErr > 0.05 {
			t.Errorf("Quantile(%v) = %v, want ~%v (rel err %.3f)", c.q, got, c.want, relErr)
		}
	}
}

func TestHistogramMonotoneQuantiles(t *testing.T) {
	f := func(vals []uint32) bool {
		var h Histogram
		for _, v := range vals {
			h.Record(time.Duration(v) * time.Microsecond)
		}
		prev := time.Duration(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBoundsProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
		for _, v := range vals {
			d := time.Duration(v) * time.Microsecond
			h.Record(d)
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		for q := 0.0; q <= 1.0; q += 0.1 {
			got := h.Quantile(q)
			if got < lo || got > hi {
				return false
			}
		}
		return h.Min() == lo && h.Max() == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for i := 0; i < 500; i++ {
		d := time.Duration(i) * time.Millisecond
		a.Record(d)
		whole.Record(d)
	}
	for i := 500; i < 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		b.Record(d)
		whole.Record(d)
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", a.Count(), whole.Count())
	}
	if a.Quantile(0.5) != whole.Quantile(0.5) {
		t.Errorf("merged median %v, want %v", a.Quantile(0.5), whole.Quantile(0.5))
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestHistogramMergeIntoEmpty(t *testing.T) {
	var a, b Histogram
	b.Record(5 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 1 || a.Min() != 5*time.Millisecond || a.Max() != 5*time.Millisecond {
		t.Fatalf("merge into empty failed: %+v", a.Summarize())
	}
}

func TestHistogramRecordN(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 7; i++ {
		a.Record(time.Millisecond)
	}
	b.RecordN(time.Millisecond, 7)
	if a.Count() != b.Count() || a.Mean() != b.Mean() {
		t.Fatalf("RecordN mismatch: %v vs %v", a.Summarize(), b.Summarize())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Millisecond)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatalf("negative durations should clamp to 0, got min=%v", h.Min())
	}
}

func TestHistogramCDF(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	pts := h.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF returned %d points, want 10", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Latency < pts[i-1].Latency || pts[i].Fraction <= pts[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d: %+v", i, pts)
		}
	}
	if pts[len(pts)-1].Fraction != 1 {
		t.Errorf("last fraction = %v, want 1", pts[len(pts)-1].Fraction)
	}
	if h.CDF(0) != nil {
		t.Error("CDF(0) should be nil")
	}
}

func TestBucketIndexLowInverse(t *testing.T) {
	// bucketLow(bucketIndex(v)) must be ≤ v and within one bucket ratio.
	for _, ns := range []int64{1, 2, 3, 17, 1000, 999_999, 1_000_000, 123_456_789, 5_000_000_000} {
		idx := bucketIndex(ns)
		low := bucketLow(idx)
		if low > ns {
			t.Errorf("bucketLow(%d)=%d > value %d", idx, low, ns)
		}
		if float64(ns-low) > float64(low)*2/histSubBuckets+1 {
			t.Errorf("value %d too far above bucket low %d", ns, low)
		}
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100*time.Millisecond, 25*time.Millisecond); math.Abs(got-75) > 1e-9 {
		t.Errorf("Improvement = %v, want 75", got)
	}
	if got := Improvement(0, time.Millisecond); got != 0 {
		t.Errorf("Improvement with zero baseline = %v, want 0", got)
	}
	if got := Improvement(50*time.Millisecond, 100*time.Millisecond); got >= 0 {
		t.Errorf("regression should be negative, got %v", got)
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Name = "remote fraction"
	if ts.Last() != 0 {
		t.Error("empty Last should be 0")
	}
	ts.Add(0, 0.9)
	ts.Add(time.Minute, 0.5)
	ts.Add(2*time.Minute, 0.12)
	ts.Add(3*time.Minute, 0.12)
	if ts.Last() != 0.12 {
		t.Errorf("Last = %v", ts.Last())
	}
	if got := ts.MeanAfter(2 * time.Minute); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("MeanAfter = %v", got)
	}
	if got := ts.MeanAfter(10 * time.Minute); got != 0 {
		t.Errorf("MeanAfter beyond range = %v, want 0", got)
	}
	if out := ts.Render(); len(out) == 0 {
		t.Error("Render empty")
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown("recv queue", "worker queue", "network")
	b.Add("recv queue", 30*time.Millisecond)
	b.Add("worker queue", 60*time.Millisecond)
	b.Add("network", 10*time.Millisecond)
	if got := b.Percent("worker queue"); math.Abs(got-60) > 1e-9 {
		t.Errorf("worker queue percent = %v, want 60", got)
	}
	if b.Total() != 100*time.Millisecond {
		t.Errorf("total = %v", b.Total())
	}
	// Adding an unknown component appends it.
	b.Add("other", 0)
	comps := b.Components()
	if comps[len(comps)-1] != "other" {
		t.Errorf("components = %v", comps)
	}
	if out := b.Render(); len(out) == 0 {
		t.Error("Render empty")
	}
}

func TestBreakdownPercentsSumTo100(t *testing.T) {
	f := func(a, b, c uint16) bool {
		if a == 0 && b == 0 && c == 0 {
			return true
		}
		bd := NewBreakdown("a", "b", "c")
		bd.Add("a", time.Duration(a))
		bd.Add("b", time.Duration(b))
		bd.Add("c", time.Duration(c))
		sum := bd.Percent("a") + bd.Percent("b") + bd.Percent("c")
		return math.Abs(sum-100) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Record(10 * time.Millisecond)
	s := h.Summarize()
	if s.Count != 1 || len(s.String()) == 0 {
		t.Fatalf("summary = %q", s.String())
	}
}
