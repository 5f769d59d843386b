package sim

import (
	"math"
	"testing"
	"time"
)

func TestOverheadFactorScalesWithThreads(t *testing.T) {
	cfg := testConfig(1)
	cfg.ContextSwitchOverhead = 0.025
	cfg.InitialThreads = [NumStages]int{8, 8, 8, 8} // 32 threads on 8 cores
	c := New(cfg)
	s := c.servers[0]
	want := 1 + 0.025*24
	if got := s.overheadFactor(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("overheadFactor = %v, want %v", got, want)
	}
	c.SetThreads(0, [NumStages]int{2, 2, 2, 2})
	if got := s.overheadFactor(); got != 1 {
		t.Fatalf("8 threads on 8 cores should have no overhead, got %v", got)
	}
}

func TestContentionFactor(t *testing.T) {
	cfg := testConfig(1)
	c := New(cfg)
	s := c.servers[0]
	if got := s.contentionFactor(); got != 1 {
		t.Fatalf("idle server contention = %v", got)
	}
	// Force 16 busy pure-CPU threads on 8 cores.
	s.stages[StageReceiver].busy = 16
	if got := s.contentionFactor(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("contention = %v, want 2", got)
	}
	s.stages[StageReceiver].busy = 0
}

func TestStageBetaWithBlocking(t *testing.T) {
	cfg := testConfig(1)
	cfg.WorkerTime = 100 * time.Microsecond
	cfg.WorkerBlocking = 300 * time.Microsecond
	c := New(cfg)
	s := c.servers[0]
	if got := s.stageBeta(StageWorker); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("worker β = %v, want 0.25", got)
	}
	if got := s.stageBeta(StageReceiver); got != 1 {
		t.Fatalf("receiver β = %v, want 1", got)
	}
}

func TestServiceDemandTypeOverrides(t *testing.T) {
	cfg := testConfig(1)
	cfg.WorkerTime = 100 * time.Microsecond
	cfg.ClientRequestExtra = 40 * time.Microsecond
	c := New(cfg)

	x, w := c.serviceDemand(StageWorker, &Message{Kind: KindActor, Type: "light"})
	if x != 100*time.Microsecond || w != 0 {
		t.Fatalf("default demand wrong: %v, %v", x, w)
	}
	x, _ = c.serviceDemand(StageWorker, &Message{Kind: KindClientRequest, Type: "light"})
	if x != 140*time.Microsecond {
		t.Fatalf("client extra not added: %v", x)
	}
	x, _ = c.serviceDemand(StageReceiver, &Message{})
	if x != cfg.DeserializeTime {
		t.Fatalf("receiver demand = %v", x)
	}
	x, _ = c.serviceDemand(StageClientSender, &Message{})
	if x != cfg.SerializeTime {
		t.Fatalf("sender demand = %v", x)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	cfg := testConfig(1)
	c := New(cfg)
	a := c.CreateActorOn(0, echoHandler, nil)
	// Steady request stream for a few stats windows.
	c.K.Every(2*time.Millisecond, 0, func() { c.SubmitRequest(a, "x", nil) })
	c.Run(5 * time.Second)
	util := c.MeanCPUUtilization(time.Second)
	// 500 req/s × ~(150+135+50+150)µs ≈ 0.24 core-s/s ≈ 3% of 8 cores.
	if util <= 0.005 || util > 0.15 {
		t.Fatalf("utilization = %v, want a few percent", util)
	}
}

func TestBlockingWorkloadHoldsThreadsNotCPU(t *testing.T) {
	// A worker stage with heavy blocking should show low CPU but high
	// concurrent occupancy — the β < 1 regime of §5.2.
	cfg := testConfig(1)
	cfg.WorkerTime = 50 * time.Microsecond
	cfg.WorkerBlocking = 5 * time.Millisecond
	cfg.InitialThreads = [NumStages]int{2, 16, 2, 2}
	c := New(cfg)
	a := c.CreateActorOn(0, echoHandler, nil)
	c.K.Every(time.Millisecond, 0, func() { c.SubmitRequest(a, "x", nil) })
	c.Run(5 * time.Second)
	if c.Completed == 0 {
		t.Fatal("no completions")
	}
	util := c.MeanCPUUtilization(time.Second)
	if util > 0.2 {
		t.Fatalf("blocking workload burned too much CPU: %v", util)
	}
	// Throughput held up despite 5ms blocks (16 threads × 1/5ms = 3200/s
	// capacity for the 1000/s offered load).
	if got := float64(c.Completed) / 5; got < 900 {
		t.Fatalf("throughput %v/s under blocking, want ≈1000", got)
	}
}

func TestPipelineSetThreadsFloor(t *testing.T) {
	p := NewPipeline(4, 0.01, []PipelineStage{{Mean: time.Millisecond, Threads: 2}}, 1)
	p.setThreads(0, 0)
	if p.Threads()[0] != 1 {
		t.Fatalf("threads = %v, want floor 1", p.Threads())
	}
}

func TestPipelineZeroRateNoArrivals(t *testing.T) {
	p := NewPipeline(4, 0.01, []PipelineStage{{Mean: time.Millisecond, Threads: 1}}, 1)
	p.StartArrivals(0)
	p.RunFixed(time.Second, 100*time.Millisecond)
	if p.Completed != 0 {
		t.Fatalf("completed = %d with zero rate", p.Completed)
	}
}
