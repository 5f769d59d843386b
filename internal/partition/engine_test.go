package partition

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"actop/internal/graph"
)

func servers(n int) []graph.ServerID {
	ss := make([]graph.ServerID, n)
	for i := range ss {
		ss[i] = graph.ServerID(i)
	}
	return ss
}

// TestEngineConvergesOnCliques is the Theorem 1 sanity check: on a static
// separable graph the pairwise protocol reaches a balanced, locally optimal
// partition with (near) zero cut.
func TestEngineConvergesOnCliques(t *testing.T) {
	g := graph.Cliques(8, 8, 1) // 64 vertices, 8 cliques
	a := graph.HashAssignment(g, servers(4))
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 8
	e := NewEngine(opts, g, a, 1)
	rounds := e.RunToConvergence(100)
	if rounds >= 100 {
		t.Fatalf("did not converge in 100 rounds")
	}
	if cut := graph.CutCost(g, a); cut != 0 {
		t.Errorf("cut after convergence = %v, want 0 (cliques are separable)", cut)
	}
	// Exchanges bound pairwise imbalance by δ per exchange; chains of
	// exchanges across servers can drift up to (n−1)·δ globally.
	if imb := a.Imbalance(); imb > 3*opts.ImbalanceTolerance {
		t.Errorf("imbalance %d exceeds (n−1)·δ=%d", imb, 3*opts.ImbalanceTolerance)
	}
	if e.Moves == 0 {
		t.Error("expected some migrations")
	}
}

// TestEngineCutMonotone verifies the core Theorem 1 argument: every applied
// exchange strictly decreases the total communication cost when servers see
// the true static graph.
func TestEngineCutMonotone(t *testing.T) {
	g := graph.NoisyCliques(6, 6, 5, 0.5, 40, 3)
	a := graph.RandomAssignment(g, servers(3), 9)
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 6
	e := NewEngine(opts, g, a, 2)
	prev := graph.CutCost(g, a)
	now := time.Duration(0)
	for r := 0; r < 50; r++ {
		now += e.RejectWindow + time.Second
		moved := e.Round(now)
		cur := graph.CutCost(g, a)
		if cur > prev+1e-9 {
			t.Fatalf("round %d increased cut: %v → %v", r, prev, cur)
		}
		if moved == 0 {
			break
		}
		prev = cur
	}
}

func TestEngineBalanceInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Random(60, 150, 4, seed)
		a := graph.HashAssignment(g, servers(3))
		opts := DefaultOptions()
		opts.ImbalanceTolerance = 10
		startImb := a.Imbalance()
		e := NewEngine(opts, g, a, seed+2)
		e.RunToConvergence(40)
		// Each exchange keeps its pair within δ; across 3 servers the
		// global max−min can drift to (n−1)·δ.
		endImb := a.Imbalance()
		limit := 2 * opts.ImbalanceTolerance
		if startImb > limit {
			limit = startImb
		}
		return endImb <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineCooldownRejects(t *testing.T) {
	g := graph.Cliques(4, 6, 1)
	a := graph.HashAssignment(g, servers(2))
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 6
	e := NewEngine(opts, g, a, 3)
	// Two immediate rounds: the second round's exchanges should hit
	// cooldowns (window = 1 minute, both rounds at t≈0).
	m1 := e.Round(time.Second)
	_ = e.Round(2 * time.Second)
	if m1 == 0 {
		t.Fatal("first round should migrate something")
	}
	if e.Rejected == 0 && e.Exchanges > 1 {
		t.Error("expected cooldown rejections on immediate re-exchange")
	}
}

func TestEngineWithMonitorsConverges(t *testing.T) {
	g := graph.Cliques(6, 6, 3)
	a := graph.HashAssignment(g, servers(3))
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 6
	e := NewEngine(opts, g, a, 4)
	e.EnableMonitors(512)
	now := time.Duration(0)
	for r := 0; r < 40; r++ {
		e.FeedMonitors(10) // one statistics epoch of traffic
		now += e.RejectWindow + time.Second
		if e.Round(now) == 0 && r > 2 {
			break
		}
	}
	rf := graph.RemoteFraction(g, a)
	// The protocol converges to a *locally* optimal partition (Theorem 1):
	// consolidating the last split clique can require a group move the
	// single-vertex greedy never starts, so demand a large reduction from
	// the 83% baseline rather than zero.
	if rf > 0.25 {
		t.Errorf("remote fraction with sampled monitors = %v, want < 0.25", rf)
	}
	if !LocallyOptimal(opts, g, a) {
		t.Error("engine stopped at a non-locally-optimal partition")
	}
}

func TestEngineSampledMonitorsSmallCapacity(t *testing.T) {
	// Capacity far below the edge count: the heavy clique edges must still
	// dominate and drive co-location.
	g := graph.NoisyCliques(6, 6, 10, 0.2, 100, 13)
	a := graph.HashAssignment(g, servers(3))
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 8
	base := graph.RemoteFraction(g, a)
	e := NewEngine(opts, g, a, 19)
	e.EnableMonitors(64) // << 190 heavy + 100 noise edges
	now := time.Duration(0)
	for r := 0; r < 60; r++ {
		e.FeedMonitors(10)
		now += e.RejectWindow + time.Second
		e.Round(now)
	}
	rf := graph.RemoteFraction(g, a)
	if rf >= base {
		t.Errorf("sampled engine failed to improve: %.3f → %.3f", base, rf)
	}
	if rf > 0.5*base {
		t.Errorf("sampled engine improvement too weak: %.3f → %.3f", base, rf)
	}
}

func TestEngineDynamicGraphAdapts(t *testing.T) {
	// Start with cliques {0..3},{4..7},... then rewire half the cliques to
	// new groupings; the engine must chase the change (the paper's central
	// claim vs static placement, §3).
	g := graph.Cliques(4, 4, 5)
	a := graph.HashAssignment(g, servers(2))
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 4
	e := NewEngine(opts, g, a, 29)
	e.RunToConvergence(50)
	if cut := graph.CutCost(g, a); cut != 0 {
		t.Fatalf("phase 1 cut = %v", cut)
	}
	// Phase 2: dissolve cliques 0 and 1; members re-pair across old lines.
	g2 := graph.New()
	for _, eo := range g.Edges() {
		if int(eo.U)/4 >= 2 { // keep cliques 2,3
			g2.AddEdge(eo.U, eo.V, eo.Weight)
		}
	}
	for i := 0; i < 4; i++ { // new pairs (0,4),(1,5),(2,6),(3,7)
		g2.AddEdge(graph.Vertex(i), graph.Vertex(i+4), 5)
	}
	e2 := NewEngine(opts, g2, a, 31)
	e2.RunToConvergence(50)
	if cut := graph.CutCost(g2, a); cut != 0 {
		t.Errorf("after rewiring, cut = %v, want 0", cut)
	}
}

func TestOneSidedRoundMovesAndImbalances(t *testing.T) {
	// All 12 satellite vertices are attracted to hub server 1; one-sided
	// migration dumps them all there, demonstrating the imbalance failure
	// mode the paper describes (§4.1 "Design alternatives").
	g := graph.New()
	hub := graph.Vertex(999)
	a := graph.NewAssignment(0, 1, 2)
	a.Place(hub, 1)
	for i := 0; i < 12; i++ {
		g.AddEdge(graph.Vertex(i), hub, 5)
		a.Place(graph.Vertex(i), graph.ServerID(i%3))
	}
	opts := DefaultOptions()
	moved := OneSidedRound(opts, g, a)
	if moved == 0 {
		t.Fatal("one-sided round should migrate")
	}
	if a.Count(1) <= 5 {
		t.Errorf("expected pile-up on hub server, counts: %v", a)
	}
	// The pairwise engine under the same pressure respects δ.
	g2 := graph.New()
	a2 := graph.NewAssignment(0, 1, 2)
	a2.Place(hub, 1)
	for i := 0; i < 12; i++ {
		g2.AddEdge(graph.Vertex(i), hub, 5)
		a2.Place(graph.Vertex(i), graph.ServerID(i%3))
	}
	optsB := DefaultOptions()
	optsB.ImbalanceTolerance = 3
	e := NewEngine(optsB, g2, a2, 1)
	e.RunToConvergence(20)
	if imb := a2.Imbalance(); imb > 3 {
		t.Errorf("pairwise engine imbalance %d exceeds δ", imb)
	}
}

func TestJaBeJaReducesCutPreservesBalance(t *testing.T) {
	g := graph.Cliques(6, 4, 2)
	a := graph.RandomAssignment(g, servers(3), 37)
	counts := map[graph.ServerID]int{}
	for _, s := range a.Servers() {
		counts[s] = a.Count(s)
	}
	before := graph.CutCost(g, a)
	j := NewJaBeJa(g, a, 41)
	j.Run(500, 50)
	after := graph.CutCost(g, a)
	if after > before {
		t.Errorf("JaBeJa increased cut %v → %v", before, after)
	}
	if j.Swaps == 0 {
		t.Error("expected some swaps")
	}
	for _, s := range a.Servers() {
		if a.Count(s) != counts[s] {
			t.Errorf("JaBeJa changed population of %d: %d → %d", s, counts[s], a.Count(s))
		}
	}
}

func TestMultilevelQualityOnCliques(t *testing.T) {
	g := graph.Cliques(8, 8, 1)
	a := MultilevelPartition(g, servers(4), MultilevelOptions{})
	if a.NumVertices() != 64 {
		t.Fatalf("placed %d vertices", a.NumVertices())
	}
	cut := graph.CutCost(g, a)
	if cut > 0.1*g.TotalWeight() {
		t.Errorf("multilevel cut %v too high (total %v)", cut, g.TotalWeight())
	}
	if imb := a.Imbalance(); imb > 16 {
		t.Errorf("multilevel imbalance %d", imb)
	}
}

func TestMultilevelBeatsRandom(t *testing.T) {
	g := graph.NoisyCliques(10, 8, 5, 0.3, 200, 43)
	rnd := graph.RandomAssignment(g, servers(4), 47)
	ml := MultilevelPartition(g, servers(4), MultilevelOptions{})
	if graph.CutCost(g, ml) >= graph.CutCost(g, rnd) {
		t.Errorf("multilevel (%v) not better than random (%v)",
			graph.CutCost(g, ml), graph.CutCost(g, rnd))
	}
}

func TestPairwiseApproachesMultilevelQuality(t *testing.T) {
	// The distributed algorithm should land within ~2× of the centralized
	// quality ceiling on a structured graph.
	g := graph.NoisyCliques(8, 8, 5, 0.2, 100, 53)
	a := graph.HashAssignment(g, servers(4))
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 8
	e := NewEngine(opts, g, a, 61)
	e.RunToConvergence(100)
	pairwise := graph.CutCost(g, a)
	ml := MultilevelPartition(g, servers(4), MultilevelOptions{})
	ceiling := graph.CutCost(g, ml)
	if pairwise > 2*ceiling+1 {
		t.Errorf("pairwise cut %v far above centralized %v", pairwise, ceiling)
	}
}

func TestMonitorSnapshotSymmetry(t *testing.T) {
	m := NewMonitor(16)
	m.ObserveMessage(1, 2, 5)
	m.ObserveMessage(2, 1, 3)
	snap := m.Snapshot()
	var w12, w21 float64
	snap.VertexEdges(1, func(u graph.Vertex, w float64) {
		if u == 2 {
			w12 = w
		}
	})
	snap.VertexEdges(2, func(u graph.Vertex, w float64) {
		if u == 1 {
			w21 = w
		}
	})
	if w12 != 8 || w21 != 8 {
		t.Fatalf("snapshot weights %v/%v, want 8/8", w12, w21)
	}
	if m.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d", m.EdgeCount())
	}
}

// TestMonitorSnapshotDeterministic: the live runtime selects candidates off
// a monitor snapshot, so two snapshots of one monitor must walk every
// vertex's edges in one order — ascending — and yield the same proposals,
// candidate for candidate, weight for weight. (Monitor counts are integers,
// whose float sums are exact in any order below 2^53, so the proposals alone
// would not show a map-ordered walk; the order checks do.)
func TestMonitorSnapshotDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMonitor(1024)
	assign := graph.NewAssignment(servers(3)...)
	const n = 120
	for v := graph.Vertex(0); v < n; v++ {
		assign.Place(v, graph.ServerID(rng.Intn(3)))
	}
	for i := 0; i < 4000; i++ {
		m.ObserveMessage(graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n)), uint64(1+rng.Intn(1<<20)))
	}
	local := assign.VerticesOn(0)
	// Each proposal decides on storage of its own: candidate edges are views
	// into the snapshot, so a shared one would compare a refill with itself.
	propose := func() []Proposal {
		snap := new(MonitorSnapshot)
		m.SnapshotInto(snap)
		vs := snap.Vertices()
		if !sort.SliceIsSorted(vs, func(i, j int) bool { return vs[i] < vs[j] }) {
			t.Fatalf("Vertices() not ascending: %v", vs)
		}
		for _, v := range vs {
			last, first := graph.Vertex(0), true
			snap.VertexEdges(v, func(u graph.Vertex, _ float64) {
				if !first && u <= last {
					t.Fatalf("edges of %d not ascending: %d after %d", v, u, last)
				}
				last, first = u, false
			})
		}
		return SelectCandidates(DefaultOptions(), snap, assign, 0, local, len(local))
	}
	first := propose()
	if len(first) == 0 || len(first[0].Candidates) == 0 {
		t.Fatalf("no proposals from %d local vertices", len(local))
	}
	for i := 0; i < 5; i++ {
		if again := propose(); !reflect.DeepEqual(first, again) {
			t.Fatalf("snapshot %d proposes differently:\n%+v\nvs\n%+v", i+2, again, first)
		}
	}
}

func TestMonitorForgetVertex(t *testing.T) {
	m := NewMonitor(16)
	m.ObserveMessage(1, 2, 5)
	m.ObserveMessage(1, 3, 5)
	m.ObserveMessage(2, 3, 5)
	m.ForgetVertex(1)
	if m.EdgeCount() != 1 {
		t.Fatalf("EdgeCount after forget = %d, want 1", m.EdgeCount())
	}
	snap := m.Snapshot()
	if vs := snap.Vertices(); len(vs) != 2 {
		t.Fatalf("vertices after forget: %v", vs)
	}
}

func TestMonitorSelfMessageIgnored(t *testing.T) {
	m := NewMonitor(4)
	m.ObserveMessage(7, 7, 100)
	if m.EdgeCount() != 0 {
		t.Fatal("self-messages must not create edges")
	}
}

func TestMonitorDecay(t *testing.T) {
	m := NewMonitor(4)
	m.ObserveMessage(1, 2, 100)
	m.Decay()
	snap := m.Snapshot()
	var w float64
	snap.VertexEdges(1, func(u graph.Vertex, ww float64) { w = ww })
	if math.Abs(w-50) > 1e-9 {
		t.Fatalf("decayed weight = %v, want 50", w)
	}
}

// TestEngineImbalancedStartDeadlock documents a property of the paper's
// protocol: only positive-score (cost-reducing) migrations happen, so a
// heavily imbalanced start whose cost gradient points toward the big server
// is NOT rebalanced — the protocol relies on the placement policy (random)
// keeping populations near-equal, and only refines locality from there (§3,
// §4.1).
func TestEngineImbalancedStartDeadlock(t *testing.T) {
	g := graph.Cliques(4, 6, 1)
	a := graph.NewAssignment(0, 1)
	// 17 vertices on server 0, 7 on server 1, majority of every clique on 0.
	vs := g.Vertices()
	for i, v := range vs {
		if i%4 == 3 {
			a.Place(v, 1)
		} else {
			a.Place(v, 0)
		}
	}
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 2
	e := NewEngine(opts, g, a, 3)
	e.RunToConvergence(10)
	// Minority members migrate 1→0 only while balance admits; the big
	// server never sheds actors because all its gradients are negative.
	if a.Count(0) < 17 {
		t.Errorf("server 0 shed actors against its cost gradient: %v", a)
	}
}

// TestConvergedStateIsLocallyOptimal checks the Theorem 1 postcondition on
// oracle-view runs across several random instances.
func TestConvergedStateIsLocallyOptimal(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.NoisyCliques(5, 6, 4, 0.5, 30, seed)
		a := graph.HashAssignment(g, servers(3))
		opts := DefaultOptions()
		opts.ImbalanceTolerance = 6
		e := NewEngine(opts, g, a, seed)
		e.RunToConvergence(100)
		if !LocallyOptimal(opts, g, a) {
			t.Errorf("seed %d: converged state not locally optimal", seed)
		}
	}
}

func TestLocallyOptimalDetectsImprovableState(t *testing.T) {
	g := graph.Cliques(2, 4, 1)
	a := graph.NewAssignment(0, 1)
	// Split both cliques 2/2 — clearly improvable within balance.
	for i, v := range g.Vertices() {
		a.Place(v, graph.ServerID(i%2))
	}
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 4
	if LocallyOptimal(opts, g, a) {
		t.Fatal("split cliques reported locally optimal")
	}
}
