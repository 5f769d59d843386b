// Package des is a deterministic discrete-event simulation kernel: a
// virtual clock, an ordered event queue, cancellable timers, and
// reproducible random variate streams.
//
// The cluster simulator (internal/sim) runs the entire SEDA/queuing model of
// §3–§6 on this kernel, which is what lets paper-scale experiments (10
// servers, 10⁵–10⁶ actors, minutes of traffic) run in seconds of real time
// on one core, deterministically.
package des

import (
	"container/heap"
	"math"
	"math/rand"
	"time"
)

// Time is virtual simulation time, measured as an offset from the start of
// the run. Using time.Duration keeps arithmetic and formatting familiar.
type Time = time.Duration

// Event is a scheduled callback. Events at equal times fire in scheduling
// order, which makes runs fully deterministic.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
	index    int
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.canceled = true
	}
}

// Canceled reports whether Cancel was called.
func (e *Event) Canceled() bool { return e.canceled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x interface{}) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Kernel owns the virtual clock and the event queue. The zero value is
// ready to use.
type Kernel struct {
	now   Time
	queue eventHeap
	seq   uint64
	fired uint64
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of scheduled (uncanceled or canceled but not
// yet drained) events.
func (k *Kernel) Pending() int { return len(k.queue) }

// Fired reports the number of events executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// At schedules fn at absolute virtual time t. Times in the past are clamped
// to now (the event fires next, after already-queued events at now).
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		t = k.now
	}
	e := &Event{at: t, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

// After schedules fn d from now.
func (k *Kernel) After(d time.Duration, fn func()) *Event {
	return k.At(k.now+d, fn)
}

// Step fires the next event. It reports false when the queue is empty.
func (k *Kernel) Step() bool {
	for len(k.queue) > 0 {
		e := heap.Pop(&k.queue).(*Event)
		if e.canceled {
			continue
		}
		k.now = e.at
		k.fired++
		e.fn()
		return true
	}
	return false
}

// Run fires events until the queue drains.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil fires all events scheduled at or before t, then advances the
// clock to t (even if idle).
func (k *Kernel) RunUntil(t Time) {
	for len(k.queue) > 0 {
		// Peek.
		e := k.queue[0]
		if e.at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
}

// Every schedules fn to run at the given period until the returned Ticker
// is stopped. The first firing is one period from now, or at phase from now
// when phase ≥ 0.
func (k *Kernel) Every(period time.Duration, phase time.Duration, fn func()) *Ticker {
	t := &Ticker{kernel: k, period: period, fn: fn}
	first := period
	if phase >= 0 {
		first = phase
	}
	t.ev = k.After(first, t.tick)
	return t
}

// Ticker is a repeating event; see Kernel.Every.
type Ticker struct {
	kernel  *Kernel
	period  time.Duration
	fn      func()
	ev      *Event
	stopped bool
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may stop the ticker
		t.ev = t.kernel.After(t.period, t.tick)
	}
}

// Stop halts future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// Rand is a deterministic random variate stream for simulation inputs.
type Rand struct{ rng *rand.Rand }

// NewRand creates a stream with the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{rng: rand.New(rand.NewSource(seed))}
}

// Exp draws an exponential duration with the given mean.
func (r *Rand) Exp(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	u := r.rng.Float64()
	for u == 0 {
		u = r.rng.Float64()
	}
	return time.Duration(-float64(mean) * math.Log(u))
}

// Uniform draws uniformly from [lo, hi).
func (r *Rand) Uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.rng.Int63n(int64(hi-lo)))
}

// Intn draws uniformly from [0, n).
func (r *Rand) Intn(n int) int { return r.rng.Intn(n) }

// Float64 draws uniformly from [0, 1).
func (r *Rand) Float64() float64 { return r.rng.Float64() }

// Shuffle randomizes the order of n elements.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.rng.Shuffle(n, swap) }
