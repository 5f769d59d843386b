package sim

import (
	"time"

	"actop/internal/des"
	"actop/internal/metrics"
	"actop/internal/queuing"
)

// Pipeline is a standalone K-stage SEDA emulator on virtual time — the
// 6-stage testbed of §5.1 used to demonstrate queue-length-threshold
// controller instability (Fig. 7) and to compare controllers head-to-head.
// Requests enter stage 0 and traverse every stage in order.
type Pipeline struct {
	K   *des.Kernel
	rng *des.Rand

	cores     float64
	overhead  float64 // context-switch inflation per extra thread
	stages    []*pstage
	Completed uint64
	Latency   metrics.Histogram

	// QueueSeries and ThreadSeries sample each stage over time — the two
	// panels of Fig. 7.
	QueueSeries  []metrics.TimeSeries
	ThreadSeries []metrics.TimeSeries
}

type pstage struct {
	p        *Pipeline
	idx      int
	mean     time.Duration // per-event CPU demand
	blocking time.Duration
	threads  int
	busy     int
	queue    []*pevent
	head     int
	// arrivals in the current control window (for the model controller)
	arrivals uint64
	// measurement sums for the estimator path
	sumCPU          time.Duration
	processedWindow uint64
}

type pevent struct {
	start    des.Time
	enqueued des.Time
}

// PipelineStage declares one emulated stage.
type PipelineStage struct {
	Mean     time.Duration // mean CPU demand per event
	Blocking time.Duration // synchronous blocking per event
	Threads  int           // initial threads
}

// NewPipeline builds the emulator.
func NewPipeline(cores int, overhead float64, stages []PipelineStage, seed int64) *Pipeline {
	p := &Pipeline{
		K:        &des.Kernel{},
		rng:      des.NewRand(seed),
		cores:    float64(cores),
		overhead: overhead,
	}
	for i, s := range stages {
		th := s.Threads
		if th < 1 {
			th = 1
		}
		p.stages = append(p.stages, &pstage{p: p, idx: i, mean: s.Mean, blocking: s.Blocking, threads: th})
		p.QueueSeries = append(p.QueueSeries, metrics.TimeSeries{Name: "queue"})
		p.ThreadSeries = append(p.ThreadSeries, metrics.TimeSeries{Name: "threads"})
	}
	return p
}

// StartArrivals begins Poisson request arrivals at the given rate.
func (p *Pipeline) StartArrivals(ratePerSec float64) {
	if ratePerSec <= 0 {
		return
	}
	mean := time.Duration(float64(time.Second) / ratePerSec)
	var arrive func()
	arrive = func() {
		ev := &pevent{start: p.K.Now()}
		p.stages[0].enqueue(ev)
		p.K.After(p.rng.Exp(mean), arrive)
	}
	p.K.After(p.rng.Exp(mean), arrive)
}

func (ps *pstage) enqueue(ev *pevent) {
	ev.enqueued = ps.p.K.Now()
	ps.arrivals++
	if ps.busy < ps.threads {
		ps.start(ev)
		return
	}
	ps.queue = append(ps.queue, ev)
}

func (ps *pstage) queueLen() int { return len(ps.queue) - ps.head }

func (ps *pstage) dispatch() {
	for ps.busy < ps.threads && ps.head < len(ps.queue) {
		ev := ps.queue[ps.head]
		ps.queue[ps.head] = nil
		ps.head++
		ps.start(ev)
	}
	if ps.head > 1024 && ps.head*2 > len(ps.queue) {
		n := copy(ps.queue, ps.queue[ps.head:])
		ps.queue = ps.queue[:n]
		ps.head = 0
	}
}

func (ps *pstage) start(ev *pevent) {
	p := ps.p
	ps.busy++
	x := p.rng.Exp(ps.mean)
	xEff := time.Duration(float64(x) * p.overheadFactor())
	f := p.contention()
	wall := time.Duration(float64(xEff)*f) + ps.blocking
	p.K.After(wall, func() {
		ps.busy--
		ps.sumCPU += xEff
		ps.processedWindow++
		ps.dispatch()
		if ps.idx+1 < len(p.stages) {
			p.stages[ps.idx+1].enqueue(ev)
		} else {
			p.Completed++
			p.Latency.Record(time.Duration(p.K.Now() - ev.start))
		}
	})
}

func (p *Pipeline) totalThreads() int {
	t := 0
	for _, s := range p.stages {
		t += s.threads
	}
	return t
}

func (p *Pipeline) overheadFactor() float64 {
	extra := float64(p.totalThreads()) - p.cores
	if extra < 0 {
		extra = 0
	}
	return 1 + p.overhead*extra
}

func (p *Pipeline) contention() float64 {
	var demand float64
	for _, s := range p.stages {
		beta := 1.0
		if s.mean+s.blocking > 0 {
			beta = float64(s.mean) / float64(s.mean+s.blocking)
		}
		demand += float64(s.busy) * beta
	}
	f := demand / p.cores
	if f < 1 {
		return 1
	}
	return f
}

// Threads reports the current allocation.
func (p *Pipeline) Threads() []int {
	out := make([]int, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.threads
	}
	return out
}

// QueueLengths reports current queue lengths.
func (p *Pipeline) QueueLengths() []int {
	out := make([]int, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.queueLen()
	}
	return out
}

// sample records one point of the Fig. 7 series.
func (p *Pipeline) sample() {
	now := p.K.Now()
	for i, s := range p.stages {
		p.QueueSeries[i].Add(now, float64(s.queueLen()))
		p.ThreadSeries[i].Add(now, float64(s.threads))
	}
}

// RunWithQueueController drives the pipeline for duration, sampling queues
// and applying the queue-length-threshold controller every control period —
// the Fig. 7 configuration.
func (p *Pipeline) RunWithQueueController(duration, period time.Duration, ctl *queuing.QueueLengthController) {
	tick := p.K.Every(period, period, func() {
		p.sample()
		next := ctl.Update(p.Threads(), p.QueueLengths())
		for i, n := range next {
			p.setThreads(i, n)
		}
	})
	p.K.RunUntil(p.K.Now() + duration)
	tick.Stop()
}

// RunWithModelController drives the pipeline under the §5 queuing-model
// controller: each period it measures per-stage λ, s, β and installs the
// Solve allocation.
func (p *Pipeline) RunWithModelController(duration, period time.Duration, eta float64) {
	tick := p.K.Every(period, period, func() {
		p.sample()
		p.retune(period, eta)
	})
	p.K.RunUntil(p.K.Now() + duration)
	tick.Stop()
}

// RunFixed drives the pipeline with a static allocation, sampling only.
func (p *Pipeline) RunFixed(duration, period time.Duration) {
	tick := p.K.Every(period, period, func() { p.sample() })
	p.K.RunUntil(p.K.Now() + duration)
	tick.Stop()
}

func (p *Pipeline) setThreads(i, n int) {
	if n < 1 {
		n = 1
	}
	p.stages[i].threads = n
	p.stages[i].dispatch()
}

// retune measures the window and applies the model-driven allocation.
func (p *Pipeline) retune(period time.Duration, eta float64) {
	var stages []queuing.Stage
	for _, s := range p.stages {
		st := queuing.Stage{Name: "stage"}
		if s.processedWindow > 0 {
			meanCPU := time.Duration(uint64(s.sumCPU) / s.processedWindow)
			base := meanCPU + s.blocking
			if base <= 0 {
				base = time.Nanosecond
			}
			st.Lambda = float64(s.arrivals) / period.Seconds()
			st.ServiceRate = 1 / base.Seconds()
			st.Beta = float64(meanCPU) / float64(base)
		} else {
			st.ServiceRate = 1000
			st.Beta = 1
		}
		if st.Beta <= 0 {
			st.Beta = 1e-6
		}
		if st.Beta > 1 {
			st.Beta = 1
		}
		stages = append(stages, st)
		s.arrivals, s.processedWindow, s.sumCPU = 0, 0, 0
	}
	m := &queuing.Model{Stages: stages, Processors: p.cores, Eta: eta}
	sol, err := queuing.Solve(m)
	if err != nil {
		return
	}
	for i, n := range sol.Integer {
		p.setThreads(i, n)
	}
}

// AllocationFlips counts how many times any stage's thread count changed
// between consecutive samples — the instability measure of Fig. 7(b).
func (p *Pipeline) AllocationFlips() int {
	flips := 0
	for _, ts := range p.ThreadSeries {
		for i := 1; i < len(ts.Points); i++ {
			if ts.Points[i].Value != ts.Points[i-1].Value {
				flips++
			}
		}
	}
	return flips
}
