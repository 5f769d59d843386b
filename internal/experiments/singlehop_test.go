package experiments

import (
	"testing"
	"time"

	"actop/internal/sim"
)

// checkSingleHopSum runs n single-hop actors for ten seconds on one server
// and checks that every completed request bumped exactly one counter.
func checkSingleHopSum(t *testing.T, n int) {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Servers = 1
	c := sim.New(cfg)
	actors := startSingleHop(c, n, 500, 5)
	c.Run(10 * time.Second)
	if c.Completed == 0 {
		t.Fatal("no completions")
	}
	var total uint64
	for _, a := range actors {
		total += c.ActorState(a).(*hopCounter).n
	}
	if total != c.Completed {
		t.Fatalf("counter sum %d != completed %d", total, c.Completed)
	}
}

// TestCounterWorkload is the §3 counter shape: 100 actors.
func TestCounterWorkload(t *testing.T) {
	t.Parallel()
	checkSingleHopSum(t, 100)
}

// TestHeartbeatWorkload is the §6.2 heartbeat shape: 50 actors.
func TestHeartbeatWorkload(t *testing.T) {
	t.Parallel()
	checkSingleHopSum(t, 50)
}

// TestSingleHopDeterministicDigest pins two seeded single-hop runs — the
// Fig. 4/5 default allocation with the controller off, and Fig. 11(a)'s
// 8/8/1/8 start with it on — to the values the simulator printed when they
// were recorded. A change to the generator, the lean calibration or the
// thread controller that moves one arrival or one decision fails here.
func TestSingleHopDeterministicDigest(t *testing.T) {
	t.Parallel()
	type digest struct {
		completed uint64
		retunes   int
		p50, p99  time.Duration
		threads   [sim.NumStages]int
	}
	for _, tc := range []struct {
		threads [sim.NumStages]int
		tuning  bool
		want    digest
	}{
		{[sim.NumStages]int{8, 8, 8, 8}, false,
			digest{99968, 0, 1474560, 2555904, [sim.NumStages]int{8, 8, 8, 8}}},
		{[sim.NumStages]int{8, 8, 1, 8}, true,
			digest{99968, 4, 1343488, 2162688, [sim.NumStages]int{3, 2, 1, 3}}},
	} {
		c := sim.New(singleHopConfig(SingleHopOpts{Threads: tc.threads, ThreadTuning: tc.tuning, Seed: 21}))
		startSingleHop(c, 2000, 5000, 22)
		c.Run(20 * time.Second)
		got := digest{c.Completed, c.Retunes, c.Latency.Quantile(0.5), c.Latency.Quantile(0.99), c.ThreadAllocation(0)}
		if got != tc.want {
			t.Errorf("threads %v tuning %v: digest = %+v, want %+v", tc.threads, tc.tuning, got, tc.want)
		}
	}
}
