package experiments

import (
	"fmt"
	"strings"
	"time"

	"actop/internal/des"
	"actop/internal/metrics"
	"actop/internal/sim"
)

// SingleHopOpts configures the single-server, single-hop workload that the
// counter micro-benchmark (§3: Fig. 4 latency breakdown, Fig. 5
// thread-allocation heat map) and the heartbeat service (§6.2, Fig. 11(a))
// share: Actors actors on one 8-core server, Poisson client requests over
// random actors, each request one actor hop that bumps a counter and
// replies.
type SingleHopOpts struct {
	Actors  int
	Rate    float64
	Threads [sim.NumStages]int // per-stage allocation (receiver, worker, server sender, client sender)

	ThreadTuning bool // let the §5 controller pick the allocation instead

	Warmup  time.Duration
	Measure time.Duration
	Seed    int64
}

// DefaultSingleHopOpts is the paper's Fig. 4 operating point (8K actors,
// 15K req/s) with the stock Orleans default allocation (8 threads per stage
// per core — including the idle server-sender stage, whose threads still
// cost context switches). Under this allocation the simulated server sits
// just past its stability edge at 15K req/s, so stage queues dominate the
// end-to-end latency completely — the paper's Fig. 4 observation, with the
// absolute latency overshooting the paper's (their testbed sat just *inside*
// the edge).
func DefaultSingleHopOpts() SingleHopOpts {
	return SingleHopOpts{
		Actors:  8000,
		Rate:    15000,
		Threads: [sim.NumStages]int{8, 8, 8, 8},
		Warmup:  30 * time.Second,
		Measure: time.Minute,
		Seed:    3,
	}
}

// singleHopConfig returns the simulator configuration calibrated for the
// single-hop workload: requests are tiny (a counter bump), so per-event
// demands are leaner than the Halo messages, chosen so the default
// allocation runs near saturation at 15K req/s (as Fig. 4 shows).
func singleHopConfig(o SingleHopOpts) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Servers = 1
	cfg.Seed = o.Seed
	cfg.DeserializeTime = 130 * time.Microsecond
	cfg.SerializeTime = 130 * time.Microsecond
	cfg.WorkerTime = 88 * time.Microsecond
	cfg.ClientRequestExtra = 0
	cfg.InitialThreads = o.Threads
	cfg.ThreadTuning = o.ThreadTuning
	cfg.ThreadPeriod = 5 * time.Second
	return cfg
}

// hopCounter is one single-hop actor's state: the requests it served.
type hopCounter struct{ n uint64 }

func hopHandler(ctx *sim.Ctx, msg *sim.Message) {
	if st, ok := ctx.State().(*hopCounter); ok {
		st.n++
	}
	ctx.ReplyToClient(msg.Req)
}

// startSingleHop creates n single-hop actors on server 0 (the paper runs
// both workloads on a single server) and starts Poisson client arrivals at
// rate over random ones; it returns the actors' ids.
func startSingleHop(c *sim.Cluster, n int, rate float64, seed int64) []sim.ActorID {
	actors := make([]sim.ActorID, n)
	for i := range actors {
		actors[i] = c.CreateActorOn(0, hopHandler, &hopCounter{})
	}
	if rate <= 0 || n == 0 {
		return actors
	}
	rng := des.NewRand(seed)
	mean := time.Duration(float64(time.Second) / rate)
	var fire func()
	fire = func() {
		c.SubmitRequest(actors[rng.Intn(n)], "inc", nil)
		c.K.After(rng.Exp(mean), fire)
	}
	c.K.After(rng.Exp(mean), fire)
	return actors
}

// SingleHopResult is one single-hop run's outcome.
type SingleHopResult struct {
	Opts      SingleHopOpts
	Latency   metrics.Summary
	Breakdown *metrics.Breakdown
	CPU       float64
	Threads   [sim.NumStages]int // final allocation (interesting when tuned)
}

// RunSingleHop executes one single-hop run.
func RunSingleHop(o SingleHopOpts) SingleHopResult {
	c := sim.New(singleHopConfig(o))
	startSingleHop(c, o.Actors, o.Rate, o.Seed+7)
	c.Run(o.Warmup)
	warmEnd := c.Now()
	c.ResetMetrics()
	c.Run(o.Measure)
	return SingleHopResult{
		Opts:      o,
		Latency:   c.Latency.Summarize(),
		Breakdown: c.Breakdown,
		CPU:       c.CPUSeries.MeanAfter(warmEnd),
		Threads:   c.ThreadAllocation(0),
	}
}

// Fig4Result is the Fig. 4 latency breakdown.
type Fig4Result struct {
	Run SingleHopResult
}

// RunFig4 regenerates Fig. 4: the average per-request latency breakdown
// across SEDA queues, stage processing, network and OS/ready time, for the
// counter app at 15K req/s with the default thread allocation.
func RunFig4(o SingleHopOpts) Fig4Result {
	return Fig4Result{Run: RunSingleHop(o)}
}

// Render prints the Fig. 4 rows (percent of end-to-end latency).
func (r Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — latency breakdown (counter app, %d actors, %.0f req/s, threads %v)\n",
		r.Run.Opts.Actors, r.Run.Opts.Rate, r.Run.Opts.Threads)
	fmt.Fprintf(&b, "paper: recv q 32.9%% / recv proc 0.2%% / worker q 24.2%% / worker proc 0.3%% / sender q 31.3%% / sender proc 0.2%% / network 0.9%% / other 10.1%%\n")
	b.WriteString(r.Run.Breakdown.Render())
	fmt.Fprintf(&b, "end-to-end: %s  cpu: %.1f%%\n", r.Run.Latency, 100*r.Run.CPU)
	return b.String()
}

// Fig5Result is the Fig. 5 heat map: median latency per (worker, sender)
// thread allocation.
type Fig5Result struct {
	Workers, Senders []int
	Median           [][]time.Duration // [workerIdx][senderIdx]
	Tuned            SingleHopResult   // what the §5 controller picks
}

// RunFig5 regenerates Fig. 5: the server latency heat map over worker ×
// client-sender thread allocations (receiver fixed at 8, as the default),
// plus the allocation ActOp's controller converges to.
func RunFig5(o SingleHopOpts, workers, senders []int) Fig5Result {
	res := Fig5Result{Workers: workers, Senders: senders}
	for _, w := range workers {
		row := make([]time.Duration, 0, len(senders))
		for _, s := range senders {
			ro := o
			ro.Threads = [sim.NumStages]int{8, w, 1, s}
			row = append(row, RunSingleHop(ro).Latency.Median)
		}
		res.Median = append(res.Median, row)
	}
	to := o
	to.ThreadTuning = true
	res.Tuned = RunSingleHop(to)
	return res
}

// Render prints the heat map with workers as rows and senders as columns.
func (r Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5 — median latency (ms) per thread allocation (rows: workers, cols: senders)\n")
	b.WriteString("paper: best 2w/3s ≈ 9.9ms, worst 8w/6s ≈ 38.2ms, default among the worst\n")
	fmt.Fprintf(&b, "%8s", "")
	for _, s := range r.Senders {
		fmt.Fprintf(&b, "%9d", s)
	}
	b.WriteByte('\n')
	for i, w := range r.Workers {
		fmt.Fprintf(&b, "%8d", w)
		for j := range r.Senders {
			fmt.Fprintf(&b, "%9.2f", float64(r.Median[i][j])/float64(time.Millisecond))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "ActOp controller picks %v → median %.2fms\n",
		r.Tuned.Threads, float64(r.Tuned.Latency.Median)/float64(time.Millisecond))
	return b.String()
}

// Best returns the minimum median and its allocation.
func (r Fig5Result) Best() (time.Duration, int, int) {
	best := time.Duration(1<<62 - 1)
	bw, bs := 0, 0
	for i := range r.Median {
		for j := range r.Median[i] {
			if r.Median[i][j] < best {
				best, bw, bs = r.Median[i][j], r.Workers[i], r.Senders[j]
			}
		}
	}
	return best, bw, bs
}

// Worst returns the maximum median and its allocation.
func (r Fig5Result) Worst() (time.Duration, int, int) {
	worst := time.Duration(0)
	ww, ws := 0, 0
	for i := range r.Median {
		for j := range r.Median[i] {
			if r.Median[i][j] > worst {
				worst, ww, ws = r.Median[i][j], r.Workers[i], r.Senders[j]
			}
		}
	}
	return worst, ww, ws
}
