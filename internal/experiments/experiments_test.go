package experiments

import (
	"testing"
	"time"
)

// quickOpts is the minimal Halo scale that still exhibits the paper's
// shapes: 2K players on 2 servers at the calibrated per-server load.
func quickOpts() HaloOpts {
	return HaloOpts{
		Players:     2000,
		Servers:     2,
		Load:        1200,
		Warmup:      2 * time.Minute,
		Measure:     90 * time.Second,
		FastControl: true,
		Seed:        1,
	}
}

func TestSection3OracleWins(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	r := RunSection3(quickOpts())
	if r.Oracle.Latency.Median >= r.Baseline.Latency.Median {
		t.Errorf("oracle median %v not below baseline %v",
			r.Oracle.Latency.Median, r.Baseline.Latency.Median)
	}
	if r.Oracle.Latency.P99 >= r.Baseline.Latency.P99 {
		t.Errorf("oracle p99 %v not below baseline %v",
			r.Oracle.Latency.P99, r.Baseline.Latency.P99)
	}
	// Random placement on 2 servers → ≈50% remote; oracle ≈0%.
	if r.Baseline.RemoteFraction < 0.35 {
		t.Errorf("baseline remote fraction %v too low", r.Baseline.RemoteFraction)
	}
	if r.Oracle.RemoteFraction > 0.1 {
		t.Errorf("oracle remote fraction %v too high", r.Oracle.RemoteFraction)
	}
	if r.Oracle.CPUUtilization >= r.Baseline.CPUUtilization {
		t.Error("co-location should reduce CPU (less serialization)")
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig4QueuesDominate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultSingleHopOpts()
	o.Measure = 30 * time.Second
	r := RunFig4(o)
	bd := r.Run.Breakdown
	queues := bd.Percent("Recv. queue") + bd.Percent("Worker queue") + bd.Percent("Sender queue")
	proc := bd.Percent("Recv. processing") + bd.Percent("Worker processing") + bd.Percent("Sender processing")
	if queues < 50 {
		t.Errorf("queue share %.1f%% should dominate under the default allocation", queues)
	}
	if proc >= queues {
		t.Errorf("processing share %.1f%% should be far below queuing %.1f%%", proc, queues)
	}
	if bd.Percent("Network") > 15 {
		t.Errorf("network share %.1f%% too high", bd.Percent("Network"))
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig5ShapeAndController(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultSingleHopOpts()
	o.Measure = 30 * time.Second
	// Coarse grid keeps the test quick; the harness runs the full 2..8 grid.
	r := RunFig5(o, []int{2, 4, 8}, []int{3, 6, 8})
	best, _, _ := r.Best()
	worst, ww, ws := r.Worst()
	if worst < time.Duration(float64(best)*1.15) {
		t.Errorf("heat map too flat: best %v worst %v", best, worst)
	}
	// The default-style corner (8 workers, 8 senders) must not be the best.
	def := r.Median[len(r.Median)-1][len(r.Median[0])-1]
	if def <= best {
		t.Errorf("default corner %v should not win (best %v)", def, best)
	}
	_ = ww
	_ = ws
	// The controller's pick lands near the sweep's best.
	if r.Tuned.Latency.Median > time.Duration(float64(best)*1.4) {
		t.Errorf("controller pick %v too far above sweep best %v", r.Tuned.Latency.Median, best)
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig7QueueControllerUnstable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultFig7Opts()
	r := RunFig7(o)
	if r.QueueFlips <= r.ModelFlips {
		t.Errorf("queue controller flips (%d) should exceed model controller flips (%d)",
			r.QueueFlips, r.ModelFlips)
	}
	if r.QueueFlips < 6 {
		t.Errorf("queue controller flips = %d; expected sustained oscillation", r.QueueFlips)
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig10aConverges(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	o := quickOpts()
	o.Warmup = 3 * time.Minute
	o.Measure = time.Minute
	r := RunFig10a(o)
	pts := r.Partitioned.RemoteSeries.Points
	if len(pts) < 4 {
		t.Fatalf("series too short: %d points", len(pts))
	}
	early := pts[0].Value
	late := pts[len(pts)-1].Value
	if late >= early*0.7 {
		t.Errorf("remote fraction did not converge: %.3f → %.3f", early, late)
	}
	if r.Partitioned.Moves == 0 {
		t.Error("no migrations recorded")
	}
	// Baseline stays high throughout.
	basePts := r.Baseline.RemoteSeries.Points
	if basePts[len(basePts)-1].Value < 0.35 {
		t.Errorf("baseline remote fraction drifted: %v", basePts[len(basePts)-1].Value)
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig10bcPartitioningWins(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	r := RunFig10bc(quickOpts())
	if r.Partitioned.Latency.Median >= r.Baseline.Latency.Median {
		t.Errorf("partitioned median %v not below baseline %v",
			r.Partitioned.Latency.Median, r.Baseline.Latency.Median)
	}
	if r.Partitioned.ActorCall.P99 >= r.Baseline.ActorCall.P99 {
		t.Errorf("partitioned actor-call p99 %v not below baseline %v",
			r.Partitioned.ActorCall.P99, r.Baseline.ActorCall.P99)
	}
	if len(r.Partitioned.LatencyCDF) == 0 || len(r.Partitioned.ActorCallCDF) == 0 {
		t.Error("missing CDFs")
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig10deImprovementAndCPU(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	o := quickOpts()
	o.Measure = time.Minute
	r := RunFig10de(o, []float64{400, 1200})
	for _, row := range r.Rows {
		if row.Partitioned.Latency.Median >= row.Baseline.Latency.Median {
			t.Errorf("load %v: no median improvement", row.Load)
		}
		if row.Partitioned.CPUUtilization >= row.Baseline.CPUUtilization {
			t.Errorf("load %v: no CPU reduction", row.Load)
		}
	}
	// Paper: gains grow with load (allow slack for small-scale noise).
	lo := r.Rows[0]
	hi := r.Rows[len(r.Rows)-1]
	impLo := 1 - float64(lo.Partitioned.Latency.P99)/float64(lo.Baseline.Latency.P99)
	impHi := 1 - float64(hi.Partitioned.Latency.P99)/float64(hi.Baseline.Latency.P99)
	if impHi < impLo-0.15 {
		t.Errorf("p99 improvement shrank with load: %.2f → %.2f", impLo, impHi)
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig11aTuningWinsUnderLoad(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultSingleHopOpts()
	o.Measure = 45 * time.Second
	r := RunFig11a(o, []float64{10000, 15000})
	top := r.Rows[len(r.Rows)-1]
	if top.Tuned.Latency.Median >= top.Baseline.Latency.Median {
		t.Errorf("tuned median %v not below baseline %v at top load",
			top.Tuned.Latency.Median, top.Baseline.Latency.Median)
	}
	if top.Tuned.Latency.P99 >= top.Baseline.Latency.P99 {
		t.Errorf("tuned p99 %v not below baseline %v", top.Tuned.Latency.P99, top.Baseline.Latency.P99)
	}
	// The tuned allocation is lean: fewer total threads than 4×8.
	total := 0
	for _, n := range top.Tuned.Threads {
		total += n
	}
	if total >= 32 {
		t.Errorf("tuned allocation %v not leaner than default", top.Tuned.Threads)
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestFig11bCombinedBest(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	r := RunFig11b(quickOpts())
	if r.Partition.Latency.Median >= r.Baseline.Latency.Median {
		t.Error("partitioning did not beat baseline")
	}
	if r.Combined.Latency.Median >= r.Baseline.Latency.Median {
		t.Error("combined did not beat baseline")
	}
	if r.Combined.Latency.Median > r.Partition.Latency.Median {
		t.Error("combined should not be worse than partitioning alone")
	}
	if r.Combined.CPUUtilization >= r.Baseline.CPUUtilization {
		t.Error("combined should reduce CPU")
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}

func TestThroughputDoubles(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("short mode")
	}
	o := quickOpts()
	o.Warmup = 2 * time.Minute
	o.Measure = time.Minute
	// Sweep loads well past baseline saturation (calibrated peak/server ≈
	// 650 req/s baseline).
	r := RunThroughput(o, []float64{1200, 1800, 2400, 3000})
	basePeak, actopPeak := r.Peaks()
	if actopPeak <= basePeak {
		t.Errorf("actop peak %v not above baseline %v", actopPeak, basePeak)
	}
	if len(r.Render()) == 0 {
		t.Error("empty render")
	}
}
