package core

import (
	"fmt"
	"sync"
	"time"

	"actop/internal/estimator"
	"actop/internal/flight"
	"actop/internal/metrics"
	"actop/internal/queuing"
	"actop/internal/seda"
)

// ControllerConfig tunes the live thread-allocation control loop.
type ControllerConfig struct {
	// Interval is the measure→solve→resize period. It is also the window
	// assumed for the very first tick (before a previous tick timestamps
	// the window start).
	Interval time.Duration
	// Eta is the per-thread latency penalty η of (∗).
	Eta float64
	// Processors is the effective CPU budget p handed to the solver
	// (already including any budgetFactor relaxation).
	Processors float64
	// Betas is the per-stage CPU fraction β_i (Table 1); len must equal the
	// number of controlled stages.
	Betas []float64
	// MinSamples skips the solve when fewer events completed in the window
	// (no retune on noise).
	MinSamples uint64
	// Alpha is the EWMA smoothing factor for arrival rates and service
	// times across windows (§5.4's epoch estimator, smoothed; default 0.5).
	Alpha float64
	// Hysteresis is the dead band that prevents thrash: the solved target
	// is only installed when some stage moves by MORE than
	// max(1, ⌈Hysteresis·current⌉) threads. ±1-thread solver jitter on a
	// small pool, or proportionally small drift on a big one, is held.
	Hysteresis float64
	// Metrics, when set, receives per-stage gauges (workers, queue length,
	// smoothed rates, utilization, window wait/busy quantiles) refreshed on
	// every tick. Nil publishes nothing.
	Metrics *metrics.Registry
	// Flight, when set, receives a thread_resize event for every SetWorkers
	// the controller installs — so an anomaly dump shows the allocation
	// moves around the incident. Nil (or a nil recorder) records nothing.
	Flight *flight.Recorder
}

// fallbackServiceRate stands in for a stage with no completed samples yet
// (events/sec, the estimator package's convention).
const fallbackServiceRate = 1000

func (c *ControllerConfig) fill(nStages int) error {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.Processors <= 0 {
		return fmt.Errorf("core: controller needs a positive CPU budget")
	}
	if len(c.Betas) != nStages {
		return fmt.Errorf("core: %d betas for %d stages", len(c.Betas), nStages)
	}
	if c.Eta < 0 {
		c.Eta = 0
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.Hysteresis < 0 {
		c.Hysteresis = 0
	}
	return nil
}

// TickOutcome classifies what one control cycle did.
type TickOutcome int

// Tick outcomes.
const (
	// TickSkipped: too few samples in the window; EWMAs updated, no solve.
	TickSkipped TickOutcome = iota
	// TickHeld: solved, but the target was inside the hysteresis dead band;
	// the current allocation stands.
	TickHeld
	// TickApplied: solved and installed a new allocation via SetWorkers.
	TickApplied
	// TickError: the solver rejected the model (e.g. infeasible load); the
	// current allocation stands.
	TickError
)

// String renders the outcome.
func (o TickOutcome) String() string {
	switch o {
	case TickSkipped:
		return "skipped"
	case TickHeld:
		return "held"
	case TickApplied:
		return "applied"
	case TickError:
		return "error"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// StageStatus is one stage's view in the controller status (JSON-friendly
// for /debug/actop).
type StageStatus struct {
	Name     string  `json:"name"`
	Workers  int     `json:"workers"`
	QueueLen int     `json:"queue_len"`
	Lambda   float64 `json:"lambda_per_sec"`  // smoothed arrival rate
	Service  float64 `json:"service_per_sec"` // smoothed per-thread rate
	Beta     float64 `json:"beta"`            // configured CPU fraction
	Util     float64 `json:"utilization"`     // λ/(s·workers), smoothed
	WaitP50  float64 `json:"wait_p50_ms"`     // window queue delay
	WaitP99  float64 `json:"wait_p99_ms"`
	BusyP50  float64 `json:"busy_p50_ms"` // window execution time
	BusyP99  float64 `json:"busy_p99_ms"`
	Arrivals uint64  `json:"window_arrivals"` // raw window counters
	Handled  uint64  `json:"window_processed"`
}

// Status is a snapshot of the control loop for humans and the debug
// endpoint: solver inputs, outputs, the installed allocation, counters.
type Status struct {
	Interval   time.Duration `json:"interval_ns"`
	Ticks      uint64        `json:"ticks"`
	Applies    uint64        `json:"applies"`
	Holds      uint64        `json:"holds"`
	Skips      uint64        `json:"skips"`
	Errors     uint64        `json:"errors"`
	LastError  string        `json:"last_error,omitempty"`
	Eta        float64       `json:"eta"`
	Processors float64       `json:"processors"`

	// Continuous/Target are the last solve's outputs (t_i and its integer
	// rounding after caps); Applied is the allocation actually installed
	// most recently. UsedClosedForm reports which solver path ran.
	Continuous     []float64     `json:"continuous,omitempty"`
	Target         []int         `json:"target,omitempty"`
	Applied        []int         `json:"applied,omitempty"`
	UsedClosedForm bool          `json:"used_closed_form"`
	Objective      float64       `json:"objective"`
	Stages         []StageStatus `json:"stages"`
}

// ThreadController closes the paper's §5 loop on real goroutine stages:
// every Interval it snapshots each seda.Stage's window measurements, folds
// them into EWMA-smoothed (λ_i, s_i) estimates, solves the regularized
// allocation problem (∗) via Theorem 2 (with the projected-gradient
// fallback), and installs the integer allocation through SetWorkers —
// guarded by a hysteresis dead band so allocations change at most once per
// interval and never on solver jitter.
type ThreadController struct {
	stages []*seda.Stage
	cfg    ControllerConfig

	mu       sync.Mutex
	lambda   []*estimator.RateEWMA // smoothed arrivals/sec per stage
	service  []*estimator.EWMA     // smoothed mean service seconds per event
	lastTick time.Time
	status   Status

	// Registry gauge families (nil when no registry was configured).
	gWorkers, gQueue, gLambda, gService, gUtil *metrics.GaugeFamily
	gWait, gBusy                               *metrics.GaugeFamily
}

// NewThreadController builds a controller over the given stages. It owns
// no goroutine: Optimizer's thread loop calls Tick every Interval, and tests
// call it directly.
func NewThreadController(stages []*seda.Stage, cfg ControllerConfig) (*ThreadController, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: controller needs at least one stage")
	}
	if err := cfg.fill(len(stages)); err != nil {
		return nil, err
	}
	c := &ThreadController{stages: stages, cfg: cfg}
	c.lambda = make([]*estimator.RateEWMA, len(stages))
	c.service = make([]*estimator.EWMA, len(stages))
	for i := range stages {
		c.lambda[i] = estimator.NewRateEWMA(cfg.Alpha)
		c.service[i] = estimator.NewEWMA(cfg.Alpha)
	}
	c.status.Interval = cfg.Interval
	c.status.Eta = cfg.Eta
	c.status.Processors = cfg.Processors
	if reg := cfg.Metrics; reg != nil {
		c.gWorkers = reg.Gauge("actop_stage_workers", "Threads currently allocated to the stage.", "stage")
		c.gQueue = reg.Gauge("actop_stage_queue_len", "Tasks queued at the stage.", "stage")
		c.gLambda = reg.Gauge("actop_stage_lambda_per_sec", "Smoothed stage arrival rate (events/sec).", "stage")
		c.gService = reg.Gauge("actop_stage_service_per_sec", "Smoothed per-thread service rate (events/sec).", "stage")
		c.gUtil = reg.Gauge("actop_stage_utilization", "Offered load over capacity, lambda/(s*workers).", "stage")
		c.gWait = reg.Gauge("actop_stage_wait_seconds", "Stage queue delay quantiles over the last window.", "stage", "quantile")
		c.gBusy = reg.Gauge("actop_stage_busy_seconds", "Stage execution time quantiles over the last window.", "stage", "quantile")
	}
	return c, nil
}

// publishStages refreshes the per-stage registry gauges from the tick's
// stage snapshots. Called with the controller lock held; no-op without a
// configured registry.
func (c *ThreadController) publishStages(stages []StageStatus) {
	if c.gWorkers == nil {
		return
	}
	for i := range stages {
		ss := &stages[i]
		c.gWorkers.Set(float64(ss.Workers), ss.Name)
		c.gQueue.Set(float64(ss.QueueLen), ss.Name)
		c.gLambda.Set(ss.Lambda, ss.Name)
		c.gService.Set(ss.Service, ss.Name)
		c.gUtil.Set(ss.Util, ss.Name)
		c.gWait.Set(ss.WaitP50/1e3, ss.Name, "0.5")
		c.gWait.Set(ss.WaitP99/1e3, ss.Name, "0.99")
		c.gBusy.Set(ss.BusyP50/1e3, ss.Name, "0.5")
		c.gBusy.Set(ss.BusyP99/1e3, ss.Name, "0.99")
	}
}

// Status snapshots the controller state.
func (c *ThreadController) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.status
	st.Continuous = append([]float64(nil), c.status.Continuous...)
	st.Target = append([]int(nil), c.status.Target...)
	st.Applied = append([]int(nil), c.status.Applied...)
	st.Stages = append([]StageStatus(nil), c.status.Stages...)
	return st
}

// Tick runs one measure→estimate→solve→resize cycle immediately and
// reports what it did. Concurrent calls serialize on the controller lock.
func (c *ThreadController) Tick() TickOutcome {
	c.mu.Lock()
	defer c.mu.Unlock()

	now := time.Now()
	window := c.cfg.Interval
	if !c.lastTick.IsZero() {
		if w := now.Sub(c.lastTick); w > 0 {
			window = w
		}
	}
	c.lastTick = now
	c.status.Ticks++

	// Measure: one window snapshot per stage, folded into the EWMAs.
	var totalProcessed uint64
	stats := make([]seda.Stats, len(c.stages))
	for i, st := range c.stages {
		snap := st.Snapshot()
		stats[i] = snap
		totalProcessed += snap.Processed
		c.lambda[i].Observe(snap.Arrivals, window)
		if snap.Processed > 0 && snap.BusyTime > 0 {
			c.service[i].Observe(snap.BusyTime.Seconds() / float64(snap.Processed))
		}
	}

	// Model: smoothed parameters per stage (§5.4 estimates).
	model := queuing.Model{Processors: c.cfg.Processors, Eta: c.cfg.Eta}
	stageStatus := make([]StageStatus, len(c.stages))
	for i := range c.stages {
		qs := queuing.Stage{Name: stats[i].Name, Beta: c.cfg.Betas[i]}
		qs.Lambda = c.lambda[i].Value()
		if c.service[i].Defined() && c.service[i].Value() > 0 {
			qs.ServiceRate = 1 / c.service[i].Value()
		} else {
			qs.ServiceRate = fallbackServiceRate
		}
		model.Stages = append(model.Stages, qs)

		ss := StageStatus{
			Name:     stats[i].Name,
			Workers:  stats[i].Workers,
			QueueLen: stats[i].QueueLen,
			Lambda:   qs.Lambda,
			Service:  qs.ServiceRate,
			Beta:     qs.Beta,
			WaitP50:  durMillis(stats[i].Wait.Median),
			WaitP99:  durMillis(stats[i].Wait.P99),
			BusyP50:  durMillis(stats[i].Busy.Median),
			BusyP99:  durMillis(stats[i].Busy.P99),
			Arrivals: stats[i].Arrivals,
			Handled:  stats[i].Processed,
		}
		if mu := qs.ServiceRate * float64(stats[i].Workers); mu > 0 {
			ss.Util = qs.Lambda / mu
		}
		stageStatus[i] = ss
	}
	c.status.Stages = stageStatus
	c.publishStages(stageStatus)

	if totalProcessed < c.cfg.MinSamples {
		c.status.Skips++
		return TickSkipped
	}

	sol, err := queuing.Solve(&model)
	if err != nil {
		// Infeasible or degenerate window: keep the current allocation.
		c.status.Errors++
		c.status.LastError = err.Error()
		return TickError
	}
	c.status.LastError = ""
	c.status.Continuous = sol.Threads
	c.status.UsedClosedForm = sol.UsedClosedForm
	c.status.Objective = sol.Objective

	target := sol.Integer
	c.status.Target = target

	// Hysteresis dead band: install only when some stage moves by more
	// than max(1, ⌈h·current⌉) threads — except that a grow is never held
	// while the stage is unstable (λ ≥ s·workers), since holding there
	// means an unboundedly growing queue.
	current := make([]int, len(c.stages))
	for i, st := range c.stages {
		current[i] = st.Workers()
	}
	if !c.exceedsDeadBand(&model, current, target) {
		c.status.Holds++
		return TickHeld
	}
	for i, st := range c.stages {
		if target[i] != current[i] {
			st.SetWorkers(target[i])
			c.cfg.Flight.Record(flight.Event{
				Kind:   flight.KindThreadResize,
				Detail: fmt.Sprintf("%s %d->%d", stats[i].Name, current[i], target[i]),
				N:      uint64(target[i]),
			})
		}
	}
	c.status.Applied = target
	c.status.Applies++
	return TickApplied
}

// exceedsDeadBand reports whether target is far enough from current that a
// reallocation is warranted. Growing an unstable stage (offered load at or
// above its current capacity) always qualifies.
func (c *ThreadController) exceedsDeadBand(m *queuing.Model, current, target []int) bool {
	for i := range current {
		delta := target[i] - current[i]
		if delta > 0 && m.Stages[i].Lambda >= m.Stages[i].ServiceRate*float64(current[i]) {
			return true
		}
		if delta < 0 {
			delta = -delta
		}
		band := 1
		if h := int(float64(current[i])*c.cfg.Hysteresis + 0.999999); h > band {
			band = h
		}
		if delta > band {
			return true
		}
	}
	return false
}

func durMillis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
