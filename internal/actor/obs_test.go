package actor

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"actop/internal/flight"
	"actop/internal/hotspot"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// newObsCluster is newCluster with the observability knobs exposed.
func newObsCluster(t *testing.T, n int, mutate func(i int, cfg *Config)) []*System {
	t.Helper()
	net := transport.NewNetwork(0)
	peers := make([]transport.NodeID, n)
	trs := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		peers[i] = transport.NodeID(fmt.Sprintf("node-%d", i))
		trs[i] = net.Join(peers[i])
	}
	systems := make([]*System, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Transport: trs[i], Peers: peers,
			Placement: PlaceRandom, Seed: int64(42 + i),
			CallTimeout: 3 * time.Second,
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterType("counter", func() Actor { return &counterActor{} })
		systems[i] = sys
		t.Cleanup(sys.Stop)
	}
	return systems
}

// TestObsSmoke is the skewed-workload acceptance check: one injected hot
// actor among a field of background actors must surface at rank 1 in the
// cluster-wide hot-actor table, and the observability metric families
// must appear on a scrape.
func TestObsSmoke(t *testing.T) {
	reg := metrics.NewRegistry()
	sys := newObsCluster(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			cfg.Metrics = reg
		}
	})

	// Background field: 60 actors, 3 calls each, spread across callers.
	var out int
	for b := 0; b < 60; b++ {
		ref := Ref{Type: "counter", Key: fmt.Sprintf("bg-%d", b)}
		for c := 0; c < 3; c++ {
			if err := sys[(b+c)%3].Call(ref, "Add", 1, &out); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The hot spot: one actor, two orders of magnitude more traffic.
	hot := Ref{Type: "counter", Key: "hot"}
	for c := 0; c < 600; c++ {
		if err := sys[c%3].Call(hot, "Add", 1, &out); err != nil {
			t.Fatal(err)
		}
	}

	top := sys[0].ClusterHotspots(10)
	if len(top) == 0 {
		t.Fatal("ClusterHotspots returned nothing")
	}
	if top[0].Actor != "counter/hot" {
		t.Fatalf("rank 1 = %+v, want counter/hot", top[0])
	}
	if top[0].Node == "" {
		t.Fatalf("rank 1 entry missing node: %+v", top[0])
	}
	if top[0].Turns < 600 {
		t.Fatalf("hot actor turns = %d, want >= 600", top[0].Turns)
	}
	if top[0].ExecNs == 0 || top[0].WaitNs == 0 && top[0].BytesIn == 0 {
		t.Fatalf("hot actor stats look empty: %+v", top[0].Stats)
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Cost < top[i].Cost {
			t.Fatalf("table not cost-descending at %d: %+v", i, top)
		}
	}
	// Every node saw traffic, so a 10-wide merge over 3 nodes must carry
	// entries from more than one of them.
	nodes := map[string]bool{}
	for _, e := range top {
		nodes[e.Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("cluster table covers %d node(s): %+v", len(nodes), top)
	}

	if local := sys[0].LocalHotspots(10); len(local) == 0 {
		t.Fatal("LocalHotspots empty on a node that hosted actors")
	}

	// The caller-side fan-out profile: an actor's outbound calls and their
	// bytes reach its own row, every one of them — its first turn's too,
	// made before the sketch had heard of the actor.
	for _, s := range sys {
		s.RegisterType("relay", func() Actor { return relayActor{} })
	}
	fan := Ref{Type: "relay", Key: "fan"}
	const relayed = 2 * profSample // a whole number of batches: nothing pending
	for c := 0; c < relayed; c++ {
		if err := sys[c%3].Call(fan, "Relay", "hot", &out); err != nil {
			t.Fatal(err)
		}
	}
	var row *hotspot.Entry
	table := sys[0].ClusterHotspots(0)
	for i := range table {
		if table[i].Actor == fan.String() {
			row = &table[i]
		}
	}
	if row == nil {
		t.Fatalf("%s has no row in the cluster table", fan)
	}
	if row.Turns != relayed || row.CallsOut != relayed || row.BytesOut == 0 {
		t.Fatalf("caller's row = %+v, want %d turns and as many outbound calls, with their bytes", row.Stats, relayed)
	}

	var sb strings.Builder
	reg.Write(&sb)
	scrape := sb.String()
	for _, fam := range []string{
		"actop_hotspot_cost", "actop_hotspot_tracked",
		"actop_flight_events_total", "actop_flight_dumps_total",
		"actop_trace_spans_recorded_total", "actop_trace_sampler_accepted_total",
	} {
		if !strings.Contains(scrape, fam) {
			t.Fatalf("scrape missing %s:\n%s", fam, scrape)
		}
	}
}

// TestObsRetireFoldsRemainder pins the batch rule's bound at its edge: an
// activation's turns since its last fold reach the sketch when it leaves the
// node, by migration or by deactivation, so a row's counts are exact then.
func TestObsRetireFoldsRemainder(t *testing.T) {
	sys := newObsCluster(t, 2, nil)
	const calls = profSample + 3 // folds on turns 1 and profSample, three left pending
	turnsOf := func(s *System, ref Ref) (turns, migrations uint64) {
		for _, e := range s.LocalHotspots(0) {
			if e.Actor == ref.String() {
				return e.Turns, e.Migrations
			}
		}
		return 0, 0
	}
	for _, retire := range []string{"migrate", "deactivate"} {
		ref := Ref{Type: "counter", Key: retire}
		for c := 0; c < calls; c++ {
			if err := sys[0].Call(ref, "Add", 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		host, other := sys[0], sys[1]
		if other.HostsActor(ref) {
			host, other = other, host
		}
		if got, _ := turnsOf(host, ref); got != profSample {
			t.Fatalf("%s: %d turns in the sketch before retiring, want %d (the rest pending)", retire, got, profSample)
		}
		wantMigrations := uint64(0)
		if retire == "migrate" {
			wantMigrations = 1
			if err := host.Migrate(ref, other.Node()); err != nil {
				t.Fatal(err)
			}
		} else if err := host.Deactivate(ref); err != nil {
			t.Fatal(err)
		}
		if got, migs := turnsOf(host, ref); got != calls || migs != wantMigrations {
			t.Fatalf("%s: row reads %d turns, %d migration(s) after retiring; want %d, %d", retire, got, migs, calls, wantMigrations)
		}
	}
}

// TestSLOBreachDump proves the anomaly path end to end: a breached p99
// window produces exactly one flight dump, repeats inside the debounce
// interval are suppressed, and the dump carries runtime context plus the
// recent event history.
func TestSLOBreachDump(t *testing.T) {
	sys := newObsCluster(t, 1, func(i int, cfg *Config) {
		cfg.SLOTarget = time.Nanosecond // every real call breaches
	})[0]

	var out int
	ref := Ref{Type: "counter", Key: "slo"}
	for c := 0; c < 2*sloMinSamples; c++ {
		if err := sys.Call(ref, "Add", 1, &out); err != nil {
			t.Fatal(err)
		}
	}
	sys.sloCheck()
	fr := sys.FlightRecorder()
	if got := fr.DumpsTaken(); got != 1 {
		t.Fatalf("dumps after first breach = %d, want 1", got)
	}

	// A second breached window inside the debounce interval: no new dump.
	for c := 0; c < 2*sloMinSamples; c++ {
		if err := sys.Call(ref, "Add", 1, &out); err != nil {
			t.Fatal(err)
		}
	}
	sys.sloCheck()
	if got := fr.DumpsTaken(); got != 1 {
		t.Fatalf("dumps after debounced breach = %d, want 1", got)
	}
	if fr.Suppressed() == 0 {
		t.Fatal("second breach was not counted as suppressed")
	}

	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("retained dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Trigger != flight.KindSLOBreach {
		t.Fatalf("dump trigger = %q", d.Trigger)
	}
	if !strings.Contains(d.Detail, "p99") {
		t.Fatalf("dump detail %q missing p99 context", d.Detail)
	}
	if d.Runtime.Goroutines <= 0 || d.Runtime.GOMAXPROCS <= 0 {
		t.Fatalf("dump missing runtime context: %+v", d.Runtime)
	}
	if len(d.Events) == 0 || d.Events[len(d.Events)-1].Kind != flight.KindSLOBreach {
		t.Fatalf("dump events do not end with the trigger: %+v", d.Events)
	}
}

// TestObsOverheadGuard is the <2% per-call overhead acceptance gate for
// the always-on observability plane. It compares local-call latency with
// the profiler + flight recorder at defaults against DisableHotspots, on
// the same process. Timing-sensitive, so gated behind
// ACTOP_OVERHEAD_GUARD=1; the benchmark ledger reads the same cost per
// event as hotspot.observe_ns and metrics.record_ns.
func TestObsOverheadGuard(t *testing.T) {
	if os.Getenv("ACTOP_OVERHEAD_GUARD") == "" {
		t.Skip("set ACTOP_OVERHEAD_GUARD=1 to run the overhead guard")
	}
	const calls = 10000 // per chunk
	const rounds = 15   // paired off/on chunks

	newSys := func(disable bool) *System {
		return newObsCluster(t, 1, func(i int, cfg *Config) {
			cfg.DisableHotspots = disable
		})[0]
	}
	// Persistent systems, tightly interleaved chunks: each round times an
	// off chunk and an on chunk back to back, so slow drift (thermal,
	// scheduler, GC phase) hits both sides of every pair equally. The
	// verdict is the median of per-round overhead ratios.
	sysOff, sysOn := newSys(true), newSys(false)
	chunk := func(sys *System, key string) float64 {
		ref := Ref{Type: "counter", Key: key}
		var out int
		start := time.Now()
		for c := 0; c < calls; c++ {
			if err := sys.Call(ref, "Add", 1, &out); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / calls
	}
	chunk(sysOff, "bench") // warmup
	chunk(sysOn, "bench")
	var offs, ons, pcts []float64
	for r := 0; r < rounds; r++ {
		off := chunk(sysOff, "bench")
		on := chunk(sysOn, "bench")
		offs, ons = append(offs, off), append(ons, on)
		pcts = append(pcts, (on-off)/off*100)
	}
	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	off, on, pct := median(offs), median(ons), median(pcts)
	t.Logf(`{"enabled_ns_per_call": %.1f, "disabled_ns_per_call": %.1f, "overhead_pct": %.2f, "budget_pct": 2.0, "calls_per_chunk": %d, "rounds": %d}`,
		on, off, pct, calls, rounds)
	if pct > 2.0 {
		t.Fatalf("observability overhead %.2f%% exceeds 2%% budget (on=%.1fns off=%.1fns)", pct, on, off)
	}
}
