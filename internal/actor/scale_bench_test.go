package actor

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actop/internal/transport"
)

// Scale microbenchmarks for the sharded state plane: parallel routing
// lookups, parallel activation, and location-cache churn are the operations
// that the coarse System.mu serialized at high core counts. Run with
// -cpu N (N > 1) to expose lock contention; allocs/op tracks the
// per-activation footprint work.

func newScaleBenchSystem(tb testing.TB) *System {
	tb.Helper()
	net := transport.NewNetwork(0)
	sys, err := NewSystem(Config{
		Transport:            net.Join("bench-node"),
		Seed:                 1,
		Workers:              4,
		QueueCap:             1 << 16,
		DisableThreadControl: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	sys.RegisterType("cell", func() Actor { return &benchCell{} })
	tb.Cleanup(sys.Stop)
	return sys
}

// benchCell is a minimal actor for activation benchmarks.
type benchCell struct{ n int64 }

func (c *benchCell) Receive(_ *Context, method string, _ []byte) ([]byte, error) {
	c.n++
	return nil, nil
}

// benchRefs pre-builds refs so key formatting stays out of the measured
// loop.
func benchRefs(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{Type: "cell", Key: strconv.Itoa(i)}
	}
	return refs
}

// BenchmarkSystemLookupParallel measures concurrent hot-path routing
// resolution (resolve: local activation, then location cache) over a
// populated node — the operation every call performs before dispatch.
func BenchmarkSystemLookupParallel(b *testing.B) {
	sys := newScaleBenchSystem(b)
	const population = 16384
	refs := benchRefs(population)
	deadline := time.Now().Add(time.Hour)
	for _, ref := range refs {
		if _, err := sys.activationFor(ref, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(time.Now().UnixNano())))
		for pb.Next() {
			ref := refs[rng.Intn(population)]
			if _, err := sys.resolve(refHash(ref), ref, false, true, deadline); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkActivateParallel measures concurrent on-demand activation of
// fresh actors (directory placement + instantiation + registration), the
// path a cold cluster exercises once per live actor.
func BenchmarkActivateParallel(b *testing.B) {
	sys := newScaleBenchSystem(b)
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ref := Ref{Type: "cell", Key: strconv.FormatUint(next.Add(1), 10)}
			if _, err := sys.activationFor(ref, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCachePutParallel measures concurrent location-cache inserts well
// past the cache bound, so the eviction policy (wholesale reset before,
// per-shard clock eviction after) is inside the measured loop.
func BenchmarkCachePutParallel(b *testing.B) {
	sys := newScaleBenchSystem(b)
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := next.Add(1)
			sys.cachePut(Ref{Type: "cell", Key: strconv.FormatUint(n%300000, 10)}, "bench-node")
		}
	})
}

// BenchmarkRouteChurnParallel mixes hot-path routing lookups with
// location-cache writes (1 put per 16 lookups), the migration/failover
// churn pattern: under a coarse lock every writer stalls every reader on
// the node, and the wholesale cache reset lands inside a call's critical
// path.
func BenchmarkRouteChurnParallel(b *testing.B) {
	sys := newScaleBenchSystem(b)
	const population = 16384
	refs := benchRefs(population)
	deadline := time.Now().Add(time.Hour)
	for _, ref := range refs {
		if _, err := sys.activationFor(ref, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(time.Now().UnixNano())))
		i := 0
		for pb.Next() {
			i++
			if i%16 == 0 {
				n := rng.Intn(1 << 20)
				sys.cachePut(Ref{Type: "cell", Key: strconv.Itoa(n)}, "bench-node")
				continue
			}
			ref := refs[rng.Intn(population)]
			if _, err := sys.resolve(refHash(ref), ref, false, true, deadline); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkActivationAllocs reports allocations per fresh activation
// (single-goroutine, so allocs/op is exact): the per-actor footprint work
// that bounds how many live actors fit in a fixed heap.
func BenchmarkActivationAllocs(b *testing.B) {
	sys := newScaleBenchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := Ref{Type: "cell", Key: strconv.Itoa(i)}
		if _, err := sys.activationFor(ref, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalCallSteadyState measures the repeated-call path on one
// activation (mailbox enqueue + turn + reply), where mailbox reuse decides
// the steady-state allocation rate.
func BenchmarkLocalCallSteadyState(b *testing.B) {
	sys := newScaleBenchSystem(b)
	ref := Ref{Type: "cell", Key: "hot"}
	if err := sys.Call(ref, "Touch", nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Call(ref, "Touch", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShardedRoutingSpeedup measures hot-path routing throughput with one
// goroutine against GOMAXPROCS goroutines over the lock-striped state
// plane and reports the ratio. It asserts no factor: the ratio depends on
// how many dedicated cores the host has (ROADMAP "Many-core").
func TestShardedRoutingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timed throughput comparison")
	}
	procs := runtime.GOMAXPROCS(0)

	sys := newScaleBenchSystem(t)
	const population = 16384
	refs := benchRefs(population)
	deadline := time.Now().Add(time.Hour)
	for _, ref := range refs {
		if _, err := sys.activationFor(ref, false); err != nil {
			t.Fatal(err)
		}
	}

	// lookups runs `workers` goroutines hammering resolve for a fixed window
	// and reports total operations completed.
	lookups := func(workers int, window time.Duration) uint64 {
		var done atomic.Uint64
		stop := time.Now().Add(window)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
				n := uint64(0)
				for time.Now().Before(stop) {
					ref := refs[rng.Intn(population)]
					if _, err := sys.resolve(refHash(ref), ref, false, true, deadline); err != nil {
						t.Error(err)
						break
					}
					n++
				}
				done.Add(n)
			}()
		}
		wg.Wait()
		return done.Load()
	}

	const window = 300 * time.Millisecond
	lookups(procs, 50*time.Millisecond) // warm caches and scheduler
	serial := lookups(1, window)
	parallel := lookups(procs, window)
	if serial == 0 {
		t.Fatal("serial run performed no lookups")
	}
	speedup := float64(parallel) / float64(serial)
	t.Logf("routing lookups: 1 goroutine %d ops, %d goroutines %d ops, speedup %.2f× (%d procs)",
		serial, procs, parallel, speedup, procs)
}

// TestAllocsPerActivation pins the per-activation allocation budget so the
// footprint cannot silently regress: creating a fresh actor (placement,
// instantiation, registration in the state plane) must stay within a small
// constant number of allocations.
func TestAllocsPerActivation(t *testing.T) {
	sys := newScaleBenchSystem(t)
	var i int
	avg := testing.AllocsPerRun(2000, func() {
		ref := Ref{Type: "cell", Key: "alloc-" + strconv.Itoa(i)}
		i++
		if _, err := sys.activationFor(ref, false); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per activation: %.1f", avg)
	const budget = 16
	if avg > budget {
		t.Fatalf("activation path allocates %.1f objects per actor (budget %d)", avg, budget)
	}
}
