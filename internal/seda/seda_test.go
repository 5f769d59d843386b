package seda

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageProcessesTasks(t *testing.T) {
	s := NewStage("w", 64, 2)
	defer s.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		task := func() { n.Add(1); wg.Done() }
		for {
			err := s.Submit(task)
			if err == nil {
				break
			}
			if err != ErrQueueFull {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Microsecond) // backpressure: retry
		}
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("processed %d", n.Load())
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := NewStage("w", 1, 1)
	defer s.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	_ = s.Submit(func() { close(started); <-block })
	<-started               // the worker is now occupied
	_ = s.Submit(func() {}) // fills the 1-slot queue
	var sawFull bool
	for i := 0; i < 10; i++ {
		if err := s.Submit(func() {}); err == ErrQueueFull {
			sawFull = true
			break
		}
	}
	close(block)
	if !sawFull {
		t.Fatal("expected ErrQueueFull")
	}
}

func TestSetWorkersGrowShrink(t *testing.T) {
	s := NewStage("w", 64, 1)
	defer s.Close()
	s.SetWorkers(4)
	if s.Workers() != 4 {
		t.Fatalf("workers = %d", s.Workers())
	}
	// With 4 workers, 4 blocking tasks run concurrently.
	var running atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		_ = s.Submit(func() {
			running.Add(1)
			<-release
			wg.Done()
		})
	}
	deadline := time.After(2 * time.Second)
	for running.Load() < 4 {
		select {
		case <-deadline:
			t.Fatalf("only %d tasks running concurrently", running.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	wg.Wait()
	s.SetWorkers(1)
	if s.Workers() != 1 {
		t.Fatalf("workers after shrink = %d", s.Workers())
	}
	// Still processes tasks after shrink.
	done := make(chan struct{})
	_ = s.Submit(func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stage dead after shrink")
	}
}

func TestSetWorkersFloor(t *testing.T) {
	s := NewStage("w", 8, 2)
	defer s.Close()
	s.SetWorkers(0)
	if s.Workers() != 1 {
		t.Fatalf("workers = %d, want floor 1", s.Workers())
	}
}

func TestSnapshotCounters(t *testing.T) {
	s := NewStage("w", 64, 2)
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		_ = s.Submit(func() { time.Sleep(100 * time.Microsecond); wg.Done() })
	}
	wg.Wait()
	st := s.Snapshot()
	// A worker counts a task as processed just after its body (and so
	// wg.Done) ran: fold in the windows that catch the stragglers.
	for deadline := time.Now().Add(2 * time.Second); st.Processed < 50 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		more := s.Snapshot()
		st.Processed += more.Processed
		st.BusyTime += more.BusyTime
	}
	if st.Arrivals != 50 || st.Processed != 50 {
		t.Fatalf("arrivals/processed = %d/%d", st.Arrivals, st.Processed)
	}
	if st.BusyTime < 4*time.Millisecond {
		t.Fatalf("busy time %v implausibly low", st.BusyTime)
	}
	if st.Workers != 2 || st.Name != "w" {
		t.Fatalf("snapshot = %+v", st)
	}
	// Window semantics: next snapshot is empty.
	st2 := s.Snapshot()
	if st2.Arrivals != 0 || st2.Processed != 0 {
		t.Fatalf("window not reset: %+v", st2)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s := NewStage("w", 64, 2)
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		_ = s.Submit(func() { n.Add(1) })
	}
	s.Close()
	if n.Load() != 20 {
		t.Fatalf("close dropped tasks: %d/20", n.Load())
	}
	if err := s.Submit(func() {}); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
	s.Close() // idempotent
}

func TestStressConcurrentSubmitResize(t *testing.T) {
	s := NewStage("w", 1024, 2)
	defer s.Close()
	var done atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				for s.Submit(func() { done.Add(1) }) == ErrQueueFull {
					time.Sleep(10 * time.Microsecond)
				}
			}
		}()
	}
	go func() {
		for i := 0; i < 50; i++ {
			s.SetWorkers(1 + i%8)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	deadline := time.After(5 * time.Second)
	for done.Load() < 2000 {
		select {
		case <-deadline:
			t.Fatalf("only %d/2000 done", done.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSubmitTimedReportsQueueWait(t *testing.T) {
	s := NewStage("w", 64, 1)
	defer s.Close()
	// Park the single worker so the timed task measurably queues.
	release := make(chan struct{})
	if err := s.Submit(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	done := make(chan time.Duration, 1)
	if err := s.SubmitTimed(func(wait time.Duration) { done <- wait }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case wait := <-done:
		if wait < 15*time.Millisecond {
			t.Fatalf("queue wait = %v, want ≥ ~20ms", wait)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("timed task never ran")
	}
	// The wait feeds the same window histograms Submit uses.
	if st := s.Snapshot(); st.Processed != 2 || st.Wait.Max < 15*time.Millisecond {
		t.Fatalf("snapshot = %+v", st)
	}
}

func TestSubmitTimedClosed(t *testing.T) {
	s := NewStage("w", 4, 1)
	s.Close()
	if err := s.SubmitTimed(func(time.Duration) {}); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
}
