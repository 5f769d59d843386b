package main

import (
	"math"
	"sort"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 100}, {0.9, 90}, {0.91, 100}, {0.1, 10}, {0.01, 10}, {1, 100}} {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// 200 samples 1..200: p99 is the 198th, leaving two beyond it.
	many := make([]int64, 200)
	for i := range many {
		many[i] = int64(i + 1)
	}
	if got := percentile(many, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %d, want 198", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// TestQuietSpan: the span is the spanWindows consecutive windows with the
// most ops, the earliest on a tie, and may end on the phase's last window.
func TestQuietSpan(t *testing.T) {
	var ops [windows]int
	for w := range ops {
		ops[w] = 100
	}
	if got := quietSpan(&ops); got != 0 {
		t.Errorf("flat run: span starts at window %d, want 0", got)
	}
	// A disturbed run: slow everywhere but for spanWindows+2 windows, whose
	// middle is the fastest.
	for w := range ops {
		ops[w] = 60
	}
	for w := 40; w < 40+spanWindows+2; w++ {
		ops[w] = 100
	}
	ops[41+spanWindows/2] = 110
	if got := quietSpan(&ops); got != 40 {
		t.Errorf("disturbed run: span starts at window %d, want 40", got)
	}
	ops[windows-1] = 1000
	if got := quietSpan(&ops); got != windows-spanWindows {
		t.Errorf("fast last window: span starts at window %d, want %d", got, windows-spanWindows)
	}
}

// TestSpanPercentiles checks the statistic every latency metric is: the
// exact percentile over every client's samples in the span's windows, and
// nothing from outside them.
func TestSpanPercentiles(t *testing.T) {
	// Two clients. Window w of client 0 holds {w+1, w+1}; client 1 holds
	// {w+1}, but for one outlier inside the span and one outside it.
	var a, b latencyWindows
	for w := 0; w < windows; w++ {
		a.bounds[w], b.bounds[w] = len(a.samples), len(b.samples)
		a.samples = append(a.samples, int64(w+1), int64(w+1))
		if w == 3 || w == 13 {
			b.samples = append(b.samples, 1000000)
		} else {
			b.samples = append(b.samples, int64(w+1))
		}
	}
	a.bounds[windows], b.bounds[windows] = len(a.samples), len(b.samples)
	merged := mergeWindows([]*latencyWindows{&a, &b})
	if len(merged.samples) != 3*windows {
		t.Fatalf("merged %d samples, want %d", len(merged.samples), 3*windows)
	}
	for w := 0; w < windows; w++ {
		if n := merged.count(w); n != 3 {
			t.Fatalf("window %d holds %d samples, want 3", w, n)
		}
	}
	// The span from window 10 holds the values 11 to 10+spanWindows three
	// times over, one 14 replaced by the outlier, and nothing of window 3.
	var want []int64
	for w := 10; w < 10+spanWindows; w++ {
		want = append(want, int64(w+1), int64(w+1), int64(w+1))
	}
	want[3*3] = 1000000
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	ps, n := merged.spanPercentiles(10, 0.5, 0.95, 1)
	if n != len(want) || ps[0] != float64(percentile(want, 0.5)) || ps[1] != float64(percentile(want, 0.95)) || ps[2] != 1000000 {
		t.Errorf("span percentiles = %v over %d samples, want [%d %d 1e+06] over %d",
			ps, n, percentile(want, 0.5), percentile(want, 0.95), len(want))
	}
	// The samples stay in window order: a second span reads the same data.
	if again, _ := merged.spanPercentiles(10, 0.5); again[0] != ps[0] {
		t.Errorf("second read of the span: p50 = %v, want %v", again[0], ps[0])
	}
	// A span without samples reads zero, not a panic.
	var none latencyWindows
	if ps, n := none.spanPercentiles(0, 0.5); n != 0 || ps[0] != 0 {
		t.Errorf("empty span: %v over %d samples, want [0] over 0", ps, n)
	}
}

func TestPhaseRates(t *testing.T) {
	// One reading per boundary: 100 ops, 1000 us CPU and a live heap of 10+w
	// per window, but from window 20 on for spanWindows windows twice the
	// ops for the same CPU. Mallocs are read at the two ends only.
	rs := make([]reading, windows+1)
	for w := 1; w <= windows; w++ {
		ops := uint64(100)
		if w > 20 && w <= 20+spanWindows {
			ops = 200
		}
		rs[w] = reading{atNs: int64(w) * 1e9, ops: rs[w-1].ops + ops, cpuUs: rs[w-1].cpuUs + 1000, live: uint64(10 + w)}
	}
	rs[0].live = 999 // the reading at the phase's start is not a window's
	rs[0].mallocs, rs[windows].mallocs = 500, 500+50*rs[windows].ops
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	cpu, allocs, peak := phaseRates(rs, 20)
	near("cpu us/op in the span", cpu, 5)
	near("allocs/op over the phase", allocs, 50)
	near("peak live", peak, 10+windows)
	cpu, _, _ = phaseRates(rs, 0)
	near("cpu us/op outside the span", cpu, 10)
	// A stall cuts the readings short: no span, no CPU figure, no panic.
	cpu, allocs, peak = phaseRates(rs[:5], 20)
	near("cpu us/op of a cut phase", cpu, 0)
	near("allocs/op of a cut phase", allocs, 0) // its last reading carries no malloc count
	near("peak live of a cut phase", peak, 14)
	if cpu, allocs, peak = phaseRates(nil, 0); cpu != 0 || allocs != 0 || peak != 0 {
		t.Errorf("no readings: %v %v %v, want zeros", cpu, allocs, peak)
	}
}

// TestQuartileSpread pins the steadiness measure to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; spread = 5.5/5.5 = 1.
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// quantiles([100, 101, 103, 104, 110], n=4) = [100.5, 103, 107];
	// spread = 6.5/103.
	five := []float64{100, 101, 103, 104, 110}
	if got, want := quartileSpread(five), 6.5/103; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Two values extrapolate: quantiles([1, 2], n=4) = [0.75, 1.5, 2.25].
	if got, want := quartileSpread([]float64{1, 2}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
}

// TestSpanSelfTime checks the span arithmetic on a hand-built status-like
// tree: root → call → turn(console, node 0) → call → turn(game, node 1).
func TestSpanSelfTime(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{ID: 1, Parent: 0, Start: us(0), End: us(100), Kind: spanRoot, Label: labelStatus, Node: 0},
		{ID: 2, Parent: 1, Start: us(2), End: us(98), Kind: spanCall, Label: labelStatus, Node: 0},
		{ID: 3, Parent: 2, Start: us(10), End: us(90), Kind: spanTurn, Label: labelConsoleStatus, Node: 0},
		{ID: 4, Parent: 3, Start: us(12), End: us(82), Kind: spanCall, Label: labelGameRoster, Node: 0},
		{ID: 5, Parent: 4, Start: us(40), End: us(50), Kind: spanTurn, Label: labelGameRoster, Node: 1},
		// A beat op on its own: root → call → turn, all on node 2.
		{ID: 6, Parent: 0, Start: us(0), End: us(20), Kind: spanRoot, Label: labelBeatOp, Node: 2},
		{ID: 7, Parent: 6, Start: us(1), End: us(19), Kind: spanCall, Label: labelBeatOp, Node: 2},
		{ID: 8, Parent: 7, Start: us(8), End: us(10), Kind: spanTurn, Label: labelBeat, Node: 2},
		// A turn whose call span was dropped: it counts for turn self time
		// and for nothing that needs the parent.
		{ID: 9, Parent: 99, Start: us(0), End: us(4), Kind: spanTurn, Label: labelBeat, Node: 1},
	}
	st := analyzeSpans(spans)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Turn self: console 80−70 = 10, game 10, beat 2, orphan 4 → mean 6.5.
	near("TurnSelfUs", st.TurnSelfUs, 6.5)
	// Local overheads: driver→console 96−80 = 16, beat 18−2 = 16.
	near("LocalCallOverheadUs", st.LocalCallOverheadUs, 16)
	if st.LocalCalls != 2 || st.RemoteCalls != 1 {
		t.Errorf("calls: %d local, %d remote; want 2, 1", st.LocalCalls, st.RemoteCalls)
	}
	// Remote: console→game 70−10 = 60 over a 70 µs call.
	near("RemoteCallOverheadUs", st.RemoteCallOverheadUs, 60)
	near("RemoteCallUs", st.RemoteCallUs, 70)
	// Driver self: 100−96 = 4 and 20−18 = 2 → mean 3.
	near("DriverSelfUs", st.DriverSelfUs, 3)
	// The status op splits exactly: 4 + 20 + 16 + 60 = 100.
	s := st.Status
	if s.Ops != 1 {
		t.Fatalf("status ops = %d, want 1", s.Ops)
	}
	near("Status.TotalUs", s.TotalUs, 100)
	near("Status.DriverSelfUs", s.DriverSelfUs, 4)
	near("Status.TurnSelfUs", s.TurnSelfUs, 20)
	near("Status.LocalOvhUs", s.LocalOvhUs, 16)
	near("Status.RemoteOvhUs", s.RemoteOvhUs, 60)
	near("status parts", s.DriverSelfUs+s.TurnSelfUs+s.LocalOvhUs+s.RemoteOvhUs, s.TotalUs)
	if st.All.Ops != 2 {
		t.Errorf("all ops = %d, want 2", st.All.Ops)
	}
	near("All.TotalUs", st.All.TotalUs, 60)

	// The runtime explains 45 of the remote call's 60 µs of overhead: a
	// quarter of it, 15 µs of the status's 100, stays unattributed.
	rt := runtimeTrace{sumUs: 50, share: map[string]float64{"exec": 0.1}}
	near("unattributedPct", unattributedPct(st, rt), 15)
}
