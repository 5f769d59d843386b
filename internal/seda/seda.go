// Package seda is a real (goroutine-backed) staged event-driven executor:
// each Stage owns a bounded task queue and a dynamically resizable worker
// pool, with the per-event instrumentation (arrival counts, queue lengths,
// wall times) that ActOp's thread controller consumes (§5).
//
// It is the runtime analogue of the simulator's stage model; the actor
// runtime (internal/actor) pipes receive → execute → send through stages
// exactly as Fig. 2 shows.
package seda

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/metrics"
)

// Task is one unit of stage work.
type Task func()

// TimedTask is stage work that wants its own queue-residence time. The
// worker already measures the wait for the stage's estimator histograms, so
// handing it to the task costs nothing extra — this is how the tracing
// plane attributes per-hop queue waits without a second clock read.
type TimedTask func(wait time.Duration)

// ErrQueueFull is returned by Submit when the stage queue is at capacity —
// the backpressure signal (overloaded servers reject, §6.1).
var ErrQueueFull = errors.New("seda: stage queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("seda: stage closed")

// Stats is a snapshot of a stage's counters since the previous snapshot.
type Stats struct {
	Name      string
	Arrivals  uint64        // tasks submitted in the window
	Processed uint64        // tasks completed in the window
	BusyTime  time.Duration // summed task execution wall time
	QueueWait time.Duration // summed queue residence time
	QueueLen  int           // instantaneous queue length
	Workers   int           // current worker count

	// Wait and Busy are latency-distribution summaries (count, mean, p50,
	// p95, p99, max) of per-task queue-residence and execution wall time in
	// the window — the thread controller's raw measurements (§5.4) and the
	// /debug/actop payload.
	Wait metrics.Summary
	Busy metrics.Summary
}

// queued is one queue slot. A slot with neither task nor timed set is a
// wake-up: it carries no work and only makes an idle worker look at the
// surplus counter (see SetWorkers).
type queued struct {
	task  Task
	timed TimedTask // set instead of task for SubmitTimed work
	at    int64     // Stage.now at submission
}

// Stage is one SEDA stage. Create with NewStage; resize with SetWorkers.
type Stage struct {
	name string
	// epoch anchors the stage's clock: instants are nanoseconds since it,
	// read off the monotonic clock alone — half the price of time.Now, three
	// times per task.
	epoch time.Time

	// closeMu serializes queue sends against Close: senders hold it shared
	// (cheap, uncontended on the hot path), Close holds it exclusively
	// while closing the queue channel, so a task can never be sent on a
	// closed channel. The closed flag is atomic so the send path takes no
	// exclusive lock at all.
	closeMu sync.RWMutex
	closed  atomic.Bool
	queue   chan queued

	mu      sync.Mutex
	workers int
	// surplus counts workers a shrink asked to exit that have not gone
	// yet; live goroutines = workers + surplus. A worker claims one exit
	// after finishing a task, so the receive loop needs no stop channel.
	surplus atomic.Int32

	// window counters (atomics so task paths don't take the lock)
	arrivals  atomic.Uint64
	processed atomic.Uint64
	busyNanos atomic.Int64
	waitNanos atomic.Int64

	// window latency distributions. Histograms record in O(1) but are not
	// concurrency-safe, so workers take obsMu for the two Record calls per
	// completed task; the critical section is a handful of array increments,
	// far below the channel-receive cost already on this path.
	obsMu    sync.Mutex
	waitHist metrics.Histogram
	busyHist metrics.Histogram

	wg sync.WaitGroup
}

// NewStage creates a stage with the given queue capacity and initial worker
// count (minimum 1 each).
func NewStage(name string, queueCap, workers int) *Stage {
	if queueCap < 1 {
		queueCap = 1
	}
	if workers < 1 {
		workers = 1
	}
	s := &Stage{name: name, epoch: time.Now(), queue: make(chan queued, queueCap), workers: workers}
	s.grow(workers)
	return s
}

func (s *Stage) now() int64 { return int64(time.Since(s.epoch)) }

// Name reports the stage name.
func (s *Stage) Name() string { return s.name }

// Submit enqueues a task. It never blocks: a full queue returns
// ErrQueueFull so callers can shed load. The hot path takes only a shared
// lock, so concurrent submitters do not serialize behind each other.
func (s *Stage) Submit(t Task) error {
	return s.submit(queued{task: t, at: s.now()})
}

// SubmitTimed enqueues a task that receives its measured queue wait. Same
// semantics as Submit otherwise.
func (s *Stage) SubmitTimed(t TimedTask) error {
	return s.submit(queued{timed: t, at: s.now()})
}

func (s *Stage) submit(q queued) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	select {
	case s.queue <- q:
		if q.task != nil || q.timed != nil {
			s.arrivals.Add(1)
		}
		return nil
	default:
		return ErrQueueFull
	}
}

// worker drains the queue until it closes or a shrink retires the worker.
// The loop is a plain receive, not a select with a stop channel: selectgo
// costs several channel receives, and this runs once per task.
func (s *Stage) worker() {
	defer s.wg.Done()
	for q := range s.queue {
		if q.task != nil || q.timed != nil {
			start := s.now()
			wait := time.Duration(start - q.at)
			s.waitNanos.Add(int64(wait))
			if q.task != nil {
				q.task()
			} else {
				q.timed(wait)
			}
			busy := time.Duration(s.now() - start)
			s.busyNanos.Add(int64(busy))
			s.processed.Add(1)
			s.obsMu.Lock()
			s.waitHist.Record(wait)
			s.busyHist.Record(busy)
			s.obsMu.Unlock()
		}
		if s.surplus.Load() > 0 && s.claimSurplus() {
			return
		}
	}
}

// claimSurplus takes one pending exit off the surplus counter, if any.
func (s *Stage) claimSurplus() bool {
	for {
		n := s.surplus.Load()
		if n <= 0 {
			return false
		}
		if s.surplus.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// grow starts n additional workers.
func (s *Stage) grow(n int) {
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go s.worker()
	}
}

// SetWorkers resizes the pool to n (minimum 1). Shrinking asks surplus
// workers to exit after their current task; a wake-up per exit reaches the
// idle ones (a full queue needs none: every worker is about to finish a
// task and look).
func (s *Stage) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return
	}
	switch {
	case n > s.workers:
		// Exits requested but not yet taken are cancelled before any
		// goroutine is started.
		need := n - s.workers
		for need > 0 && s.claimSurplus() {
			need--
		}
		s.grow(need)
	case n < s.workers:
		s.surplus.Add(int32(s.workers - n))
		for i := 0; i < s.workers-n; i++ {
			_ = s.submit(queued{}) // full or closed: nobody is idle
		}
	}
	s.workers = n
}

// Workers reports the current worker count.
func (s *Stage) Workers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers
}

// QueueLen reports the instantaneous queue length.
func (s *Stage) QueueLen() int { return len(s.queue) }

// Snapshot returns the window counters and resets them.
func (s *Stage) Snapshot() Stats {
	s.obsMu.Lock()
	wait := s.waitHist.Summarize()
	busy := s.busyHist.Summarize()
	s.waitHist.Reset()
	s.busyHist.Reset()
	s.obsMu.Unlock()
	return Stats{
		Name:      s.name,
		Arrivals:  s.arrivals.Swap(0),
		Processed: s.processed.Swap(0),
		BusyTime:  time.Duration(s.busyNanos.Swap(0)),
		QueueWait: time.Duration(s.waitNanos.Swap(0)),
		QueueLen:  s.QueueLen(),
		Workers:   s.Workers(),
		Wait:      wait,
		Busy:      busy,
	}
}

// Close stops all workers after the queued tasks drain and rejects further
// submissions. It blocks until workers exit.
func (s *Stage) Close() {
	s.closeMu.Lock()
	if s.closed.Swap(true) {
		s.closeMu.Unlock()
		s.wg.Wait()
		return
	}
	// Release workers blocked on the queue by closing it; drain semantics:
	// workers finish whatever is buffered first. The exclusive lock
	// guarantees no Submit is mid-send on the channel.
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()
}

// String describes the stage.
func (s *Stage) String() string {
	return fmt.Sprintf("stage(%s workers=%d queued=%d)", s.name, s.Workers(), s.QueueLen())
}
