// Package core is ActOp itself: the runtime optimizer that attaches to one
// node of the actor system and continuously applies the paper's two
// mechanisms —
//
//  1. locality-aware actor partitioning (§4): periodic pairwise exchanges
//     driven by the node's Space-Saving communication monitor, migrating
//     frequently-communicating actors onto the same node; and
//  2. latency-optimized thread allocation (§5): periodic re-solves of the
//     regularized queuing problem (Theorem 2) from live stage measurements,
//     resizing the SEDA stage pools.
//
// Attach one Optimizer per node:
//
//	opt := core.NewOptimizer(sys, core.DefaultOptions())
//	opt.Start()
//	defer opt.Stop()
package core

import (
	"runtime"
	"sync"
	"time"

	"actop/internal/actor"
	"actop/internal/partition"
	"actop/internal/seda"
)

// Options tunes the optimizer.
type Options struct {
	// Partitioning toggles the §4 mechanism.
	Partitioning bool
	// PartitionPeriod is how often this node initiates an exchange round.
	PartitionPeriod time.Duration
	// RejectWindow is Algorithm 1's per-node exchange cooldown on the
	// initiating side. Zero takes the node's receiving-side window,
	// actor.Config.ExchangeRejectWindow (one minute by default, as in the
	// paper), so one setting serves both sides.
	RejectWindow time.Duration
	// PartitionOpts configures candidate sets and the balance tolerance δ.
	PartitionOpts partition.Options

	// ThreadTuning toggles the §5 mechanism.
	ThreadTuning bool
	// ThreadPeriod is the estimate→solve→resize control period.
	ThreadPeriod time.Duration
}

// DefaultOptions enables both mechanisms with the paper's cadences.
func DefaultOptions() Options {
	return Options{
		Partitioning:    true,
		PartitionPeriod: 15 * time.Second,
		PartitionOpts:   partition.DefaultOptions(),
		ThreadTuning:    true,
		ThreadPeriod:    10 * time.Second,
	}
}

// Thread-controller settings no test, smoke or workload varies.
const (
	// eta is the per-thread latency penalty η (§5.3; the paper uses
	// 100µs/thread on its hardware).
	eta = 100e-6
	// budgetFactor relaxes the Σt·β ≤ p constraint for stages that idle
	// between events (see internal/sim's calibration notes); the budget is
	// runtime.NumCPU() processors times this.
	budgetFactor = 1.6
	// workerBeta is the worker stage's CPU fraction while processing (β of
	// §5.2), as for the serialization stages.
	workerBeta = 1.0
	// minSamples skips a retune when fewer events were observed (avoids
	// resizing on noise).
	minSamples = 64
	// hysteresis is the controller's reallocation dead band (see
	// ControllerConfig.Hysteresis).
	hysteresis = 0.25
)

// Optimizer runs ActOp's control loops for one node.
type Optimizer struct {
	sys  *actor.System
	opts Options
	tc   *ThreadController

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup

	// Counters.
	exchangeRounds, actorsMoved, retunes int
}

// NewOptimizer binds an optimizer to a node. The node's actor.Config can
// pre-wire the thread controller: DisableThreadControl forces ThreadTuning
// off. The controller publishes its gauges to the node's Metrics registry
// (none when nil) and its thread_resize events to the node's flight recorder.
func NewOptimizer(sys *actor.System, opts Options) *Optimizer {
	if opts.PartitionPeriod <= 0 {
		opts.PartitionPeriod = 15 * time.Second
	}
	if opts.ThreadPeriod <= 0 {
		opts.ThreadPeriod = 10 * time.Second
	}
	cfg := sys.Config()
	if opts.RejectWindow <= 0 {
		opts.RejectWindow = cfg.ExchangeRejectWindow
	}
	if cfg.DisableThreadControl {
		opts.ThreadTuning = false
	}
	o := &Optimizer{sys: sys, opts: opts, stop: make(chan struct{})}
	recv, work, send := sys.Stages()
	// Three stages, three betas and a positive budget: the controller
	// cannot refuse this configuration.
	o.tc, _ = NewThreadController(
		[]*seda.Stage{recv, work, send},
		ControllerConfig{
			Interval:   opts.ThreadPeriod,
			Eta:        eta,
			Processors: float64(runtime.NumCPU()) * budgetFactor,
			Betas:      []float64{1, workerBeta, 1},
			MinSamples: minSamples,
			Hysteresis: hysteresis,
			Metrics:    cfg.Metrics,
			Flight:     sys.FlightRecorder(),
		})
	return o
}

// ThreadStatus snapshots the thread controller (solver inputs/outputs,
// installed allocation, stage measurements) for logs and /debug/actop.
func (o *Optimizer) ThreadStatus() Status {
	if o.tc == nil {
		return Status{}
	}
	return o.tc.Status()
}

// Start launches the control loops.
func (o *Optimizer) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		return
	}
	o.started = true
	if o.opts.Partitioning {
		o.wg.Add(1)
		go o.partitionLoop()
	}
	if o.opts.ThreadTuning {
		o.wg.Add(1)
		go o.threadLoop()
	}
}

// Stop halts the control loops (idempotent).
func (o *Optimizer) Stop() {
	o.mu.Lock()
	if !o.started {
		o.mu.Unlock()
		return
	}
	o.started = false
	close(o.stop)
	o.mu.Unlock()
	o.wg.Wait()
	o.mu.Lock()
	o.stop = make(chan struct{})
	o.mu.Unlock()
}

// Counters reports (exchange rounds, actors moved, retunes) so far.
func (o *Optimizer) Counters() (rounds, moved, retunes int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.exchangeRounds, o.actorsMoved, o.retunes
}

func (o *Optimizer) partitionLoop() {
	defer o.wg.Done()
	t := time.NewTicker(o.opts.PartitionPeriod)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-t.C:
			if o.clusterUnstable() {
				// A peer is suspect: hold partition exchanges until the
				// detector settles (it either recovers to alive, or dies and
				// ExchangeRound routes around it). Migrating actors toward —
				// or negotiating with — a possibly-failing node just strands
				// state behind the failover.
				continue
			}
			moved, err := o.sys.ExchangeRound(o.opts.PartitionOpts, o.opts.RejectWindow)
			o.mu.Lock()
			o.exchangeRounds++
			if err == nil {
				o.actorsMoved += moved
			}
			o.mu.Unlock()
		}
	}
}

// clusterUnstable reports whether any peer sits in the detector's Suspect
// state — the ambiguous window where exchanges are paused. Alive and Dead
// peers are both "stable": ExchangeRound itself skips dead ones.
func (o *Optimizer) clusterUnstable() bool {
	for _, st := range o.sys.Membership() {
		if st == actor.PeerSuspect {
			return true
		}
	}
	return false
}

func (o *Optimizer) threadLoop() {
	defer o.wg.Done()
	t := time.NewTicker(o.opts.ThreadPeriod)
	defer t.Stop()
	for {
		select {
		case <-o.stop:
			return
		case <-t.C:
			o.Retune()
		}
	}
}

// Retune performs one §5 control cycle immediately: snapshot the stages,
// fold the window into the smoothed estimates, solve (∗), and install the
// allocation unless hysteresis holds it. Exposed for tests and manual
// control; the periodic thread loop calls it every ThreadPeriod.
func (o *Optimizer) Retune() {
	if o.tc == nil {
		return
	}
	switch o.tc.Tick() {
	case TickApplied, TickHeld:
		o.mu.Lock()
		o.retunes++
		o.mu.Unlock()
	}
}
