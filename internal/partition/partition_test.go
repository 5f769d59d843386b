package partition

import (
	"math"
	"math/rand"
	"testing"

	"actop/internal/graph"
)

// tinyView builds a graph/assignment pair:
//
//	server 0: v1, v2   server 1: v3, v4
//	edges: v1–v2 (1), v1–v3 (5), v2–v4 (2)
func tinySetup() (*graph.Graph, *graph.Assignment) {
	g := graph.New()
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 5)
	g.AddEdge(2, 4, 2)
	a := graph.NewAssignment(0, 1)
	a.Place(1, 0)
	a.Place(2, 0)
	a.Place(3, 1)
	a.Place(4, 1)
	return g, a
}

func TestTransferScore(t *testing.T) {
	g, a := tinySetup()
	view := GraphView{G: g}
	// Moving v1 from 0 to 1: gains edge to v3 (5), loses edge to v2 (1).
	if got := TransferScore(view, a, 1, 0, 1); got != 4 {
		t.Fatalf("TransferScore(v1) = %v, want 4", got)
	}
	// Moving v2: gains edge to v4 (2), loses edge to v1 (1).
	if got := TransferScore(view, a, 2, 0, 1); got != 1 {
		t.Fatalf("TransferScore(v2) = %v, want 1", got)
	}
	// Moving v3 to 0: gains 5, loses 0.
	if got := TransferScore(view, a, 3, 1, 0); got != 5 {
		t.Fatalf("TransferScore(v3) = %v, want 5", got)
	}
}

func TestTransferScoreIgnoresUnplaced(t *testing.T) {
	g := graph.New()
	g.AddEdge(1, 99, 10) // 99 unplaced
	a := graph.NewAssignment(0, 1)
	a.Place(1, 0)
	if got := TransferScore(GraphView{G: g}, a, 1, 0, 1); got != 0 {
		t.Fatalf("score with unplaced neighbor = %v, want 0", got)
	}
}

func TestSelectCandidatesRanking(t *testing.T) {
	g, a := tinySetup()
	opts := DefaultOptions()
	local := a.VerticesOn(0)
	props := SelectCandidates(opts, GraphView{G: g}, a, 0, local, len(local))
	if len(props) != 1 {
		t.Fatalf("proposals = %d, want 1 (only server 1 is attractive)", len(props))
	}
	p := props[0]
	if p.To != 1 || p.From != 0 {
		t.Fatalf("proposal endpoints %d→%d", p.From, p.To)
	}
	if len(p.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2", len(p.Candidates))
	}
	// v1 (score 4) before v2 (score 1).
	if p.Candidates[0].V != 1 || p.Candidates[1].V != 2 {
		t.Fatalf("candidate order: %v, %v", p.Candidates[0].V, p.Candidates[1].V)
	}
	if math.Abs(p.TotalScore-5) > 1e-9 {
		t.Fatalf("TotalScore = %v, want 5", p.TotalScore)
	}
	if p.FromPopulation != 2 {
		t.Fatalf("FromPopulation = %d", p.FromPopulation)
	}
}

func TestSelectCandidatesRespectsK(t *testing.T) {
	// A star: 10 local vertices all pulled toward server 1.
	g := graph.New()
	a := graph.NewAssignment(0, 1)
	hub := graph.Vertex(100)
	a.Place(hub, 1)
	for i := 0; i < 10; i++ {
		g.AddEdge(graph.Vertex(i), hub, float64(i+1))
		a.Place(graph.Vertex(i), 0)
	}
	opts := DefaultOptions()
	opts.CandidateSetSize = 3
	local := a.VerticesOn(0)
	props := SelectCandidates(opts, GraphView{G: g}, a, 0, local, len(local))
	if len(props) != 1 || len(props[0].Candidates) != 3 {
		t.Fatalf("want 1 proposal with 3 candidates, got %+v", props)
	}
	// The heaviest three.
	want := []graph.Vertex{9, 8, 7}
	for i, c := range props[0].Candidates {
		if c.V != want[i] {
			t.Errorf("candidate[%d] = %v, want %v", i, c.V, want[i])
		}
	}
}

func TestSelectCandidatesSkipsNegativeScores(t *testing.T) {
	// v strongly tied home, weakly tied remote: no proposal.
	g := graph.New()
	g.AddEdge(1, 2, 10) // local
	g.AddEdge(1, 3, 1)  // remote
	a := graph.NewAssignment(0, 1)
	a.Place(1, 0)
	a.Place(2, 0)
	a.Place(3, 1)
	local := a.VerticesOn(0)
	props := SelectCandidates(DefaultOptions(), GraphView{G: g}, a, 0, local, len(local))
	if len(props) != 0 {
		t.Fatalf("expected no proposals, got %+v", props)
	}
}

func TestDecideExchangeAcceptsAndCounters(t *testing.T) {
	// Two misplaced vertices on each side of a 2-server split:
	// cliques {1,2,3} and {4,5,6}; 3 lives on server 1 (wrong), 4 lives on
	// server 0 (wrong). A pairwise exchange should swap them.
	g := graph.New()
	g.AddEdge(1, 2, 5)
	g.AddEdge(1, 3, 5)
	g.AddEdge(2, 3, 5)
	g.AddEdge(4, 5, 5)
	g.AddEdge(4, 6, 5)
	g.AddEdge(5, 6, 5)
	a := graph.NewAssignment(0, 1)
	for _, v := range []graph.Vertex{1, 2, 4} {
		a.Place(v, 0)
	}
	for _, v := range []graph.Vertex{3, 5, 6} {
		a.Place(v, 1)
	}
	opts := DefaultOptions()
	view := GraphView{G: g}

	local0 := a.VerticesOn(0)
	props := SelectCandidates(opts, view, a, 0, local0, len(local0))
	if len(props) != 1 {
		t.Fatalf("proposals from 0: %+v", props)
	}
	req := ExchangeRequest{From: 0, To: 1, Candidates: props[0].Candidates, FromPopulation: 3}
	local1 := a.VerticesOn(1)
	resp := DecideExchange(opts, view, a, req, local1, len(local1))
	if resp.Rejected {
		t.Fatal("exchange should not be rejected")
	}
	if len(resp.Accepted) != 1 || resp.Accepted[0] != 4 {
		t.Fatalf("Accepted = %v, want [4]", resp.Accepted)
	}
	if len(resp.Counter) != 1 || resp.Counter[0] != 3 {
		t.Fatalf("Counter = %v, want [3]", resp.Counter)
	}
}

func TestDecideExchangeBalanceConstraint(t *testing.T) {
	// Server 0 has 4 vertices all attracted to server 1 (which has 2).
	// δ=2 allows only enough one-way moves to keep |4−k − (2+k)| ≤ 2.
	// The hubs are welded together so q has no counter-candidates.
	g := graph.New()
	hubA, hubB := graph.Vertex(100), graph.Vertex(101)
	g.AddEdge(hubA, hubB, 100)
	a := graph.NewAssignment(0, 1)
	a.Place(hubA, 1)
	a.Place(hubB, 1)
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.Vertex(i), hubA, 10)
		a.Place(graph.Vertex(i), 0)
	}
	opts := DefaultOptions()
	opts.ImbalanceTolerance = 2
	view := GraphView{G: g}
	local0 := a.VerticesOn(0)
	props := SelectCandidates(opts, view, a, 0, local0, len(local0))
	req := ExchangeRequest{From: 0, To: 1, Candidates: props[0].Candidates, FromPopulation: 4}
	local1 := a.VerticesOn(1)
	resp := DecideExchange(opts, view, a, req, local1, len(local1))
	// Starting sizes 4 and 2 (diff 2). Moving one: 3,3 (ok). Two: 2,4
	// (diff 2, ok). Three: 1,5 (diff 4 > 2, not admissible).
	if len(resp.Accepted) != 2 {
		t.Fatalf("Accepted = %v, want exactly 2 moves under δ=2", resp.Accepted)
	}
	if len(resp.Counter) != 0 {
		t.Fatalf("Counter = %v, want none (hubs are happy)", resp.Counter)
	}
}

func TestDecideExchangePairwiseUpdates(t *testing.T) {
	// v10 and v11 are companions on server 0: individually each has score
	// +1 toward server 1 (edge 3 remote vs 2 to each other), but once one
	// moves, the other's score rises to +5 (3 remote + 2 to companion).
	// Both should move, demonstrating the post-selection score update.
	// 20 and 21 are welded together so q offers no counter-candidates.
	g := graph.New()
	g.AddEdge(10, 11, 2)
	g.AddEdge(10, 20, 3)
	g.AddEdge(11, 21, 3)
	g.AddEdge(20, 21, 100)
	a := graph.NewAssignment(0, 1)
	a.Place(10, 0)
	a.Place(11, 0)
	a.Place(20, 1)
	a.Place(21, 1)
	// Pad server populations so balance is not binding.
	for i := 0; i < 4; i++ {
		a.Place(graph.Vertex(1000+i), 1)
	}
	opts := DefaultOptions()
	view := GraphView{G: g}
	local0 := a.VerticesOn(0)
	props := SelectCandidates(opts, view, a, 0, local0, len(local0))
	req := ExchangeRequest{From: 0, To: 1, Candidates: props[0].Candidates, FromPopulation: len(local0)}
	local1 := a.VerticesOn(1)
	resp := DecideExchange(opts, view, a, req, local1, len(local1))
	if len(resp.Accepted) != 2 {
		t.Fatalf("Accepted = %v, want both companions", resp.Accepted)
	}
	if len(resp.Counter) != 0 {
		t.Fatalf("Counter = %v, want none (20/21 are welded to server 1)", resp.Counter)
	}
}

func TestDecideExchangeOppositeDirectionPenalty(t *testing.T) {
	// x (on p) and y (on q) share a heavy edge. y's score toward p (5)
	// beats x's toward q (1), so y is counter-transferred first; the
	// pairwise update then drops x's score to −9 and x must NOT move —
	// otherwise the pair would remain split.
	g := graph.New()
	x, y, w := graph.Vertex(1), graph.Vertex(2), graph.Vertex(3)
	g.AddEdge(x, y, 5)
	g.AddEdge(x, w, 4) // anchors x to p
	a := graph.NewAssignment(0, 1)
	a.Place(x, 0)
	a.Place(w, 0)
	a.Place(y, 1)
	a.Place(graph.Vertex(99), 1) // population filler
	opts := DefaultOptions()
	view := GraphView{G: g}
	local0 := a.VerticesOn(0)
	props := SelectCandidates(opts, view, a, 0, local0, len(local0))
	if len(props) != 1 || props[0].Candidates[0].V != x {
		t.Fatalf("expected x offered to server 1, got %+v", props)
	}
	req := ExchangeRequest{From: 0, To: 1, Candidates: props[0].Candidates, FromPopulation: len(local0)}
	local1 := a.VerticesOn(1)
	resp := DecideExchange(opts, view, a, req, local1, len(local1))
	if len(resp.Counter) != 1 || resp.Counter[0] != y {
		t.Fatalf("Counter = %v, want [y]", resp.Counter)
	}
	if len(resp.Accepted) != 0 {
		t.Fatalf("Accepted = %v; x must stay once y moved to p", resp.Accepted)
	}
}

func TestDecideExchangeRescoresWithReceiverKnowledge(t *testing.T) {
	// The offer claims a high TargetWeight, but per the receiver's own
	// membership the heavy neighbor is NOT on the receiver. The receiver
	// must reject the candidate.
	g := graph.New()
	a := graph.NewAssignment(0, 1, 2)
	a.Place(1, 0)
	a.Place(2, 2) // actually on server 2, not 1
	req := ExchangeRequest{
		From: 0, To: 1,
		Candidates: []Candidate{{
			V:            1,
			Edges:        []Edge{{U: 2, W: 10}},
			HomeWeight:   0,
			TargetWeight: 10, // stale claim
		}},
		FromPopulation: 1,
	}
	resp := DecideExchange(DefaultOptions(), GraphView{G: g}, a, req, nil, 0)
	if len(resp.Accepted) != 0 {
		t.Fatalf("receiver accepted a stale candidate: %v", resp.Accepted)
	}
}

// TestSelectCandidatesAllocsFlat: candidate selection off a monitor snapshot
// allocates the same small number of objects at 150 and at 1 500 local
// vertices — nothing per vertex, nothing per edge, nothing per candidate.
func TestSelectCandidatesAllocsFlat(t *testing.T) {
	allocs := func(perServer int) float64 {
		rng := rand.New(rand.NewSource(int64(perServer)))
		n := 3 * perServer
		assign := graph.NewAssignment(servers(3)...)
		for v := 0; v < n; v++ {
			assign.Place(graph.Vertex(v), graph.ServerID(rng.Intn(3)))
		}
		m := NewMonitor(4096)
		for v := 0; v < n; v++ { // groups of eight talk among themselves
			for i := 0; i < 2; i++ {
				m.ObserveMessage(graph.Vertex(v), graph.Vertex(v/8*8+rng.Intn(8)), uint64(1+rng.Intn(4)))
			}
		}
		snap := m.Snapshot()
		local := assign.VerticesOn(0)
		var props []Proposal
		got := testing.AllocsPerRun(20, func() {
			props = SelectCandidates(DefaultOptions(), snap, assign, 0, local, len(local))
		})
		if len(props) != 2 || len(props[1].Candidates) == 0 {
			t.Fatalf("%d local vertices: %d proposals, want candidates toward both peers", len(local), len(props))
		}
		return got
	}
	small, large := allocs(150), allocs(1500)
	t.Logf("%.0f allocs at 150 local vertices, %.0f at 1 500", small, large)
	if small != large || large > 12 {
		t.Fatalf("SelectCandidates: %.0f allocs at 150 vertices, %.0f at 1 500; want one constant ≤ 12", small, large)
	}
}
