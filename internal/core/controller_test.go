package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"actop/internal/metrics"
	"actop/internal/queuing"
	"actop/internal/seda"
)

// skewedLoad drives two stages with deliberately skewed demand: "light"
// tasks take ~100µs, "heavy" tasks take ~5ms, both arriving at ~500/s.
// With an equal split of 4 workers (2+2) the heavy stage is unstable
// (λ/s = 2.5 threads of demand against 2), so its queue grows to capacity;
// the controller must discover this from live measurements and shift
// workers. Waits for tasks submitted after measureFrom are recorded into
// waits (steady-state window).
func skewedLoad(t *testing.T, heavy, light *seda.Stage, dur, measureFrom time.Duration, waits *metrics.Histogram, waitsMu *sync.Mutex) (submitted, dropped int) {
	t.Helper()
	tick := time.NewTicker(2 * time.Millisecond) // ~500/s per stage
	defer tick.Stop()
	start := time.Now()
	var wg sync.WaitGroup
	for time.Since(start) < dur {
		<-tick.C
		at := time.Now()
		record := time.Since(start) >= measureFrom
		wg.Add(1)
		err := heavy.Submit(func() {
			if record {
				w := time.Since(at)
				waitsMu.Lock()
				waits.Record(w)
				waitsMu.Unlock()
			}
			time.Sleep(5 * time.Millisecond)
			wg.Done()
		})
		if err != nil {
			wg.Done()
			dropped++
		}
		submitted++
		wg.Add(1)
		if light.Submit(func() { time.Sleep(100 * time.Microsecond); wg.Done() }) != nil {
			wg.Done()
		}
	}
	wg.Wait()
	return submitted, dropped
}

// driveTicks calls tc.Tick every d, as Optimizer's thread loop does, until
// the returned stop is called.
func driveTicks(tc *ThreadController, d time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				tc.Tick()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// TestControllerReducesQueueDelayUnderSkew is the PR's acceptance
// demonstration: under a skewed stage load, steady-state queue delay on the
// overloaded stage collapses once the live controller is enabled, versus a
// static equal-split allocation of the same initial worker count.
func TestControllerReducesQueueDelayUnderSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based demonstration")
	}

	const (
		runFor    = 1400 * time.Millisecond
		steady    = 700 * time.Millisecond // measure the second half only
		tickEvery = 150 * time.Millisecond
	)

	run := func(controlled bool) (p99, mean time.Duration, heavyWorkers int, status Status) {
		heavy := seda.NewStage("heavy", 256, 2)
		light := seda.NewStage("light", 256, 2)
		defer heavy.Close()
		defer light.Close()

		var tc *ThreadController
		if controlled {
			var err error
			tc, err = NewThreadController([]*seda.Stage{light, heavy}, ControllerConfig{
				Interval:   tickEvery,
				Eta:        100e-6,
				Processors: 4,
				// The heavy stage sleeps (blocking), so one of its threads
				// costs ~nothing in CPU while "processing" — exactly the
				// β < 1 case the model exists for.
				Betas:      []float64{1, 0.05},
				MinSamples: 20,
				Alpha:      0.7,
				Hysteresis: 0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer driveTicks(tc, tickEvery)()
		}

		var waits metrics.Histogram
		var waitsMu sync.Mutex
		skewedLoad(t, heavy, light, runFor, steady, &waits, &waitsMu)
		waitsMu.Lock()
		sum := waits.Summarize()
		waitsMu.Unlock()
		if tc != nil {
			status = tc.Status()
		}
		return sum.P99, sum.Mean, heavy.Workers(), status
	}

	staticP99, staticMean, staticWorkers, _ := run(false)
	ctrlP99, ctrlMean, ctrlWorkers, status := run(true)

	t.Logf("static:     p99=%v mean=%v heavy-workers=%d", staticP99, staticMean, staticWorkers)
	t.Logf("controlled: p99=%v mean=%v heavy-workers=%d", ctrlP99, ctrlMean, ctrlWorkers)
	t.Logf("controller: ticks=%d applies=%d holds=%d skips=%d target=%v",
		status.Ticks, status.Applies, status.Holds, status.Skips, status.Target)

	if ctrlWorkers <= staticWorkers {
		t.Fatalf("controller did not grow the overloaded stage: %d ≤ %d", ctrlWorkers, staticWorkers)
	}
	if status.Applies < 1 {
		t.Fatal("controller never applied an allocation")
	}
	// The static split is unstable (demand 2.5 threads vs 2), so its
	// steady-state queue delay sits near queue-capacity × service time
	// (hundreds of ms). The controlled run must beat it decisively; 3× is
	// far inside the expected ~100× gap but safely outside timing noise.
	if ctrlP99 > staticP99/3 {
		t.Fatalf("controlled p99 %v not < static p99 %v / 3", ctrlP99, staticP99)
	}
	if ctrlMean > staticMean/3 {
		t.Fatalf("controlled mean %v not < static mean %v / 3", ctrlMean, staticMean)
	}
}

// TestControllerHysteresis verifies the anti-thrash contract: under a
// steady load the installed allocation changes at most once per control
// interval, and once the solver's target converges, consecutive identical
// recommendations are held rather than reapplied.
func TestControllerHysteresis(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based")
	}
	heavy := seda.NewStage("heavy", 256, 2)
	light := seda.NewStage("light", 256, 2)
	defer heavy.Close()
	defer light.Close()

	const interval = 120 * time.Millisecond
	tc, err := NewThreadController([]*seda.Stage{light, heavy}, ControllerConfig{
		Interval:   interval,
		Eta:        100e-6,
		Processors: 4,
		Betas:      []float64{1, 0.05},
		MinSamples: 20,
		Alpha:      0.7,
		Hysteresis: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer driveTicks(tc, interval)()

	// Sample the heavy stage's worker count at high frequency while a
	// steady load runs, counting observed allocation changes.
	stopSampling := make(chan struct{})
	var sampleWG sync.WaitGroup
	changes := 0
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		last := heavy.Workers()
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(5 * time.Millisecond):
				if w := heavy.Workers(); w != last {
					changes++
					last = w
				}
			}
		}
	}()

	var waits metrics.Histogram
	var waitsMu sync.Mutex
	start := time.Now()
	skewedLoad(t, heavy, light, 10*interval, 10*interval, &waits, &waitsMu)
	elapsed := time.Since(start)
	close(stopSampling)
	sampleWG.Wait()

	st := tc.Status()
	t.Logf("ticks=%d applies=%d holds=%d observed-changes=%d elapsed=%v target=%v",
		st.Ticks, st.Applies, st.Holds, changes, elapsed, st.Target)

	if st.Applies < 1 {
		t.Fatal("controller never applied an allocation under steady overload")
	}
	// At most one allocation change per elapsed interval (+1 for boundary
	// slop): the hysteresis contract.
	maxChanges := int(elapsed/interval) + 1
	if changes > maxChanges {
		t.Fatalf("allocation changed %d times in %v (> one per %v interval, max %d)",
			changes, elapsed, interval, maxChanges)
	}
	if st.Applies > uint64(maxChanges) {
		t.Fatalf("applies=%d exceeds one per interval (%d intervals)", st.Applies, maxChanges)
	}
	// Convergence: the steady load must not keep the controller flapping —
	// most post-convergence ticks hold. Allow the initial ramp plus a
	// couple of refinements.
	if st.Applies > 4 {
		t.Fatalf("controller thrashing: %d applies across %d ticks under steady load", st.Applies, st.Ticks)
	}
}

// TestControllerSkipAndError exercises the two no-op outcomes: an idle
// window skips (MinSamples gate) and an infeasible model keeps the current
// allocation while reporting the error.
func TestControllerSkipAndError(t *testing.T) {
	st := seda.NewStage("s", 64, 2)
	defer st.Close()
	tc, err := NewThreadController([]*seda.Stage{st}, ControllerConfig{
		Interval:   50 * time.Millisecond,
		Processors: 4,
		Betas:      []float64{1},
		MinSamples: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := tc.Tick(); out != TickSkipped {
		t.Fatalf("idle tick = %v, want skipped", out)
	}

	// Infeasible: CPU budget far below the offered load (β=1, busy tasks).
	tiny, err := NewThreadController([]*seda.Stage{st}, ControllerConfig{
		Interval:   50 * time.Millisecond,
		Processors: 0.0001,
		Betas:      []float64{1},
		MinSamples: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		for st.Submit(func() { time.Sleep(200 * time.Microsecond); wg.Done() }) != nil {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	before := st.Workers()
	if out := tiny.Tick(); out != TickError {
		t.Fatalf("infeasible tick = %v, want error", out)
	}
	if st.Workers() != before {
		t.Fatalf("infeasible tick changed workers %d → %d", before, st.Workers())
	}
	if s := tiny.Status(); s.Errors != 1 || s.LastError == "" {
		t.Fatalf("error not recorded: %+v", s)
	}
}

// TestDeadBand pins the hysteresis rule itself: ±1 jitter (or a move inside
// the proportional band) holds; bigger moves, and any grow on an unstable
// stage, apply.
func TestDeadBand(t *testing.T) {
	st := seda.NewStage("s", 8, 1)
	defer st.Close()
	tc, err := NewThreadController([]*seda.Stage{st}, ControllerConfig{
		Interval: time.Second, Processors: 8, Betas: []float64{1}, Hysteresis: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	stable := &queuing.Model{Stages: []queuing.Stage{{Lambda: 10, ServiceRate: 100, Beta: 1}}, Processors: 8}
	overloaded := &queuing.Model{Stages: []queuing.Stage{{Lambda: 250, ServiceRate: 100, Beta: 1}}, Processors: 8}

	cases := []struct {
		name     string
		model    *queuing.Model
		cur, tgt int
		want     bool
	}{
		{"jitter +1 held", stable, 4, 5, false},
		{"jitter -1 held", stable, 4, 3, false},
		{"inside 25% band held", stable, 8, 10, false},
		{"big grow applies", stable, 2, 6, true},
		{"big shrink applies", stable, 8, 3, true},
		{"unstable grow always applies", overloaded, 2, 3, true},
	}
	for _, c := range cases {
		c.model.Eta = 1e-4
		if got := tc.exceedsDeadBand(c.model, []int{c.cur}, []int{c.tgt}); got != c.want {
			t.Errorf("%s: exceedsDeadBand(cur=%d, tgt=%d) = %v, want %v", c.name, c.cur, c.tgt, got, c.want)
		}
	}
}

// TestControllerPublishesStageGauges checks a configured registry receives
// the per-stage gauge families on every tick.
func TestControllerPublishesStageGauges(t *testing.T) {
	st := seda.NewStage("work", 64, 2)
	defer st.Close()
	reg := metrics.NewRegistry()
	tc, err := NewThreadController([]*seda.Stage{st}, ControllerConfig{
		Interval:   50 * time.Millisecond,
		Processors: 2,
		Betas:      []float64{1},
		MinSamples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No registry configured: publishing is a no-op, tick still works.
	tc.Tick()

	tc2, err := NewThreadController([]*seda.Stage{st}, ControllerConfig{
		Interval:   50 * time.Millisecond,
		Processors: 2,
		Betas:      []float64{1},
		MinSamples: 1,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		if st.Submit(func() { time.Sleep(time.Millisecond); wg.Done() }) != nil {
			wg.Done()
		}
	}
	wg.Wait()
	tc2.Tick()

	var b strings.Builder
	reg.Write(&b)
	text := b.String()
	for _, want := range []string{
		`actop_stage_workers{stage="work"} 2`,
		`actop_stage_queue_len{stage="work"}`,
		`actop_stage_lambda_per_sec{stage="work"}`,
		`actop_stage_service_per_sec{stage="work"}`,
		`actop_stage_utilization{stage="work"}`,
		`actop_stage_wait_seconds{stage="work",quantile="0.5"}`,
		`actop_stage_busy_seconds{stage="work",quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry output missing %s\n%s", want, text)
		}
	}
}
