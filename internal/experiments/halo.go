// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §6) on the cluster simulator. Each experiment is a pure
// function from options to a printable result, shared by cmd/actop-bench
// and the repository's testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"actop/internal/metrics"
	"actop/internal/sim"
)

// HaloOpts configures one Halo Presence run.
type HaloOpts struct {
	Players int     // concurrent players (paper: 100K)
	Servers int     // cluster size (paper: 10)
	Load    float64 // client requests/sec (paper: 2K/4K/6K)

	Warmup  time.Duration // excluded from measurement
	Measure time.Duration // measurement window

	Partitioning bool // ActOp distributed repartitioning
	ThreadTuning bool // ActOp model-driven thread allocation
	Oracle       bool // §3 co-located upper bound (placement oracle)

	Seed int64

	// FastControl shortens the controller periods (exchange every 5s,
	// reject window 20s, retune every 5s, decay every 30s) so quick runs
	// converge in simulated minutes instead of the paper's ten.
	FastControl bool
}

// DefaultHaloOpts is the quick-run scale: same per-server operating point
// as the paper (load/server and util match 6K req/s on 10 servers), smaller
// population, shorter run. Paper scale: {Players: 100000, Servers: 10,
// Load: 6000, Warmup: 10m, Measure: 50m}.
func DefaultHaloOpts() HaloOpts {
	return HaloOpts{
		Players: 6000,
		Servers: 3,
		Load:    1800,
		Warmup:  3 * time.Minute,
		Measure: 3 * time.Minute,
		Seed:    1,
	}
}

// HaloResult captures everything the §6.1 figures report.
type HaloResult struct {
	Opts HaloOpts

	Latency      metrics.Summary // end-to-end client latency
	ActorCall    metrics.Summary // server-to-server (actor→actor) latency
	LatencyCDF   []metrics.CDFPoint
	ActorCallCDF []metrics.CDFPoint

	RemoteFraction float64 // steady-state remote-message fraction
	CPUUtilization float64 // mean across servers
	MovesPerMinute float64 // steady-state migration rate
	Moves          int

	Completed, Rejected uint64
	ThroughputPerSec    float64

	RemoteSeries, MoveSeries, CPUSeries metrics.TimeSeries

	ThreadAllocations [][sim.NumStages]int
}

// RunHalo executes one Halo Presence experiment.
func RunHalo(o HaloOpts) HaloResult {
	cfg := sim.DefaultConfig()
	cfg.Servers = o.Servers
	cfg.Seed = o.Seed
	cfg.Partitioning = o.Partitioning
	cfg.ThreadTuning = o.ThreadTuning
	// The Space-Saving summary must cover the hot edges, whose count grows
	// with the per-server actor population (§4.3 sizes it "constant"
	// relative to the deployment; scale it the same way here).
	if perServer := 3 * o.Players / o.Servers; perServer > cfg.MonitorCapacity {
		cfg.MonitorCapacity = perServer
	}
	if o.FastControl {
		cfg.PartitionPeriod = 5 * time.Second
		cfg.RejectWindow = 20 * time.Second
		cfg.ThreadPeriod = 5 * time.Second
		cfg.MonitorDecayPeriod = 30 * time.Second
		cfg.StatsWindow = 15 * time.Second
	}

	c := sim.New(cfg)

	NewHalo(c, HaloConfig{
		TargetPlayers:   o.Players,
		IdlePoolTarget:  max(o.Players/100, 8),
		RequestRate:     o.Load,
		OraclePlacement: o.Oracle,
		Seed:            o.Seed + 100,
	}).Start()

	c.Run(o.Warmup)
	warmEnd := c.Now()
	c.ResetMetrics()
	c.Run(o.Measure)

	res := HaloResult{
		Opts:           o,
		Latency:        c.Latency.Summarize(),
		ActorCall:      c.ActorCall.Summarize(),
		LatencyCDF:     c.Latency.CDF(100),
		ActorCallCDF:   c.ActorCall.CDF(100),
		RemoteFraction: c.RemoteSeries.MeanAfter(warmEnd),
		CPUUtilization: c.CPUSeries.MeanAfter(warmEnd),
		MovesPerMinute: c.MoveSeries.MeanAfter(warmEnd),
		Moves:          c.Moves,
		Completed:      c.Completed,
		Rejected:       c.Rejected,
		RemoteSeries:   c.RemoteSeries,
		MoveSeries:     c.MoveSeries,
		CPUSeries:      c.CPUSeries,
	}
	if o.Measure > 0 {
		res.ThroughputPerSec = float64(c.Completed) / o.Measure.Seconds()
	}
	for s := 0; s < o.Servers; s++ {
		res.ThreadAllocations = append(res.ThreadAllocations, c.ThreadAllocation(sim.ServerID(s)))
	}
	return res
}

// Render prints the headline statistics of one run.
func (r HaloResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "players=%d servers=%d load=%.0f req/s partition=%v threads=%v oracle=%v\n",
		r.Opts.Players, r.Opts.Servers, r.Opts.Load, r.Opts.Partitioning, r.Opts.ThreadTuning, r.Opts.Oracle)
	fmt.Fprintf(&b, "  end-to-end : %s\n", r.Latency)
	fmt.Fprintf(&b, "  actor-call : %s\n", r.ActorCall)
	fmt.Fprintf(&b, "  remote-msgs: %.1f%%   cpu: %.1f%%   moves/min: %.0f   completed: %d   rejected: %d\n",
		100*r.RemoteFraction, 100*r.CPUUtilization, r.MovesPerMinute, r.Completed, r.Rejected)
	return b.String()
}
