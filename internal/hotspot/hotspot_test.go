package hotspot

import (
	"fmt"
	"sync"
	"testing"
)

// hash gives tests a stable, well-spread key per actor index.
func hash(i int) uint64 {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// K reports the profiler's total capacity: its stripes' capacities summed.
func (p *Profiler) K() int {
	n := 0
	for i := range p.stripes {
		n += p.stripes[i].ss.Cap()
	}
	return n
}

func TestTopRanksByCost(t *testing.T) {
	p := New(64)
	// 100 background actors with one cheap turn each, one hot actor with
	// heavy traffic: the hot actor must rank first despite evictions.
	for i := 0; i < 100; i++ {
		p.ObserveTurns(hash(i), "bg", fmt.Sprint(i), 1, 1000, 0, 10)
	}
	for i := 0; i < 50; i++ {
		p.ObserveTurns(hash(9999), "hot", "celebrity", 4, 400_000, 2000, 512)
	}
	top := p.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d entries", len(top))
	}
	if top[0].Actor != "hot/celebrity" {
		t.Fatalf("rank 1 = %+v, want hot/celebrity", top[0])
	}
	if top[0].Turns == 0 || top[0].ExecNs == 0 || top[0].BytesIn == 0 {
		t.Fatalf("stats not accumulated: %+v", top[0])
	}
	for i := 1; i < len(top); i++ {
		if top[i].Cost > top[i-1].Cost {
			t.Fatalf("not cost-descending at %d: %v then %v", i, top[i-1].Cost, top[i].Cost)
		}
	}
}

func TestBoundedMemoryAndErrorBound(t *testing.T) {
	p := New(32)
	if p.K() < 32 {
		t.Fatalf("K() = %d", p.K())
	}
	// Far more distinct actors than capacity: residency stays bounded and
	// evicted-slot reuse carries a non-zero error bound.
	for i := 0; i < 10_000; i++ {
		p.ObserveTurns(hash(i), "a", fmt.Sprint(i), 1, 2048, 0, 0)
	}
	if got := p.Tracked(); got > p.K() {
		t.Fatalf("Tracked() = %d > K %d", got, p.K())
	}
	var sawErr bool
	for _, e := range p.Top(0) {
		if e.Err > 0 {
			sawErr = true
		}
		if e.Err > e.Cost {
			t.Fatalf("error bound exceeds cost: %+v", e)
		}
	}
	if !sawErr {
		t.Fatal("no entry carries an eviction error bound after heavy churn")
	}
}

// A migration only touches a tracked actor; outbound calls cannot arrive
// without the turns that made them, so they never miss the row.
func TestOutAndMigrationOnlyTouchTracked(t *testing.T) {
	p := New(32)
	p.ObserveMigration(hash(1)) // untracked: ignored
	if got := p.Tracked(); got != 0 {
		t.Fatalf("a migration alone admitted an actor: Tracked=%d", got)
	}
	// A batch's outbound calls arrive with its turns, under one lock: they
	// reach the row even when the batch is what admits the actor.
	p.Observe(hash(1), "t", "k", Stats{Turns: 1, CallsOut: 3, BytesOut: 300})
	p.ObserveMigration(hash(1))
	top := p.Top(1)
	if top[0].CallsOut != 3 || top[0].BytesOut != 300 || top[0].Migrations != 1 {
		t.Fatalf("tracked stats wrong: %+v", top[0])
	}
	// A batch of zero cost (no turn, under a microsecond) is like a
	// migration: it reaches a tracked row and admits nobody.
	p.Observe(hash(2), "t", "z", Stats{CallsOut: 1})
	p.Observe(hash(1), "t", "k", Stats{CallsOut: 1, ExecNs: 500})
	if top := p.Top(0); len(top) != 1 || top[0].CallsOut != 4 || top[0].ExecNs != 500 || top[0].Cost != 1 {
		t.Fatalf("zero-cost batches: %+v", top)
	}
}

func TestDecayHalves(t *testing.T) {
	p := New(32)
	p.ObserveTurns(hash(1), "t", "k", 8, 8<<10, 400, 100)
	before := p.Top(1)[0]
	p.Decay()
	after := p.Top(1)[0]
	if after.Cost != before.Cost/2 || after.Turns != before.Turns/2 {
		t.Fatalf("decay: before %+v after %+v", before, after)
	}
}

// TestObserveNeverAllocates cycles four times more actors through the sketch
// than it holds: neither filling it (admissions) nor cycling through the
// full one (every observation evicts) allocates, and the rows still carry
// typ/key names.
func TestObserveNeverAllocates(t *testing.T) {
	p := New(64)
	n := 4 * p.K()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
	}
	i := 0
	observe := func() {
		p.ObserveTurns(hash(i%n), "a", keys[i%n], 1, 2048, 100, 16)
		i++
	}
	if got := testing.AllocsPerRun(p.K()-1, observe); got != 0 {
		t.Fatalf("filling a %d-entry sketch: %.0f allocs per observation, want 0", p.K(), got)
	}
	for i < 2*n {
		observe()
	}
	if p.Tracked() != p.K() {
		t.Fatalf("Tracked() = %d, want a full sketch (%d)", p.Tracked(), p.K())
	}
	if got := testing.AllocsPerRun(n, observe); got != 0 {
		t.Fatalf("cycling %d keys through a %d-entry sketch: %.0f allocs per observation, want 0", n, p.K(), got)
	}
	known := make(map[string]bool, n)
	for _, k := range keys {
		known["a/"+k] = true
	}
	for _, e := range p.Top(0) {
		if !known[e.Actor] {
			t.Fatalf("row named %q, want a/<key>", e.Actor)
		}
	}
}

// TestConcurrent hammers every method from many goroutines — meaningful
// under -race. The sketch's own structure is checked by sampling's tests.
func TestConcurrent(t *testing.T) {
	p := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h := hash(i % 300)
				p.ObserveTurns(h, "t", fmt.Sprint(i%300), 1, uint64(i), 1, 8)
				if i%7 == 0 {
					p.Observe(h, "t", fmt.Sprint(i%300), Stats{Turns: 1, CallsOut: 1, BytesOut: 16})
				}
				if i%31 == 0 {
					p.ObserveMigration(h)
				}
				if i%101 == 0 {
					p.Top(10)
					p.Decay()
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Tracked() > p.K() {
		t.Fatalf("Tracked %d > K %d", p.Tracked(), p.K())
	}
}
