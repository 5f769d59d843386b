package partition

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"actop/internal/graph"
	"actop/internal/sampling"
)

// TestMatchesMapBasedExchange runs candidate selection and the exchange
// decision next to the map-based code they replaced (kept below verbatim
// but for names) on 40 seeded cases — random monitors and assignments,
// unplaced vertices, k and δ varied — through both a
// monitor snapshot (integer weights, the runtime's view) and the oracle
// graph (weights in tenths, inexact, so a sum taken in another order differs
// in its last bit and can break a tie the other way). Proposals must match in order, vertex, every weight's bits and
// every edge; responses must match exactly.
func TestMatchesMapBasedExchange(t *testing.T) {
	var props, cands, moves int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ns := 2 + rng.Intn(3)
		n := 40 + rng.Intn(200)
		assign := graph.NewAssignment(servers(ns)...)
		for v := graph.Vertex(0); v < graph.Vertex(n); v++ {
			if rng.Intn(10) > 0 { // one in ten stays unplaced: unknown to the locator
				assign.Place(v, graph.ServerID(rng.Intn(ns)))
			}
		}
		capacity := []int{64, 256, 1024}[rng.Intn(3)]
		monitors := make([]*Monitor, ns)
		for i := range monitors {
			monitors[i] = NewMonitor(capacity)
		}
		g := graph.New()
		for i := 0; i < 8*n; i++ {
			u := graph.Vertex(rng.Intn(n))
			v := u + graph.Vertex(rng.Intn(12)) - 6 // mostly near neighbours, so there is locality to find
			if rng.Intn(4) == 0 || v >= graph.Vertex(n) {
				v = graph.Vertex(rng.Intn(n))
			}
			count := uint64(1 + rng.Intn(4))   // small counts: many tied scores
			g.AddEdge(u, v, float64(count)/10) // tenths: inexact, so sums depend on their order
			for _, x := range []graph.Vertex{u, v} {
				if s, ok := assign.Server(x); ok {
					monitors[s].ObserveMessage(u, v, count)
				}
			}
			if i%(2*n) == 0 {
				monitors[rng.Intn(ns)].Decay()
			}
		}
		opts := DefaultOptions()
		opts.CandidateSetSize = []int{1, 2, 4, 8, 16, 64}[rng.Intn(6)]
		opts.ImbalanceTolerance = []int{0, 1, 2, 4, 16}[rng.Intn(5)]

		for _, kind := range []string{"snapshot", "graph"} {
			views := func(s graph.ServerID) (EdgeView, EdgeView) {
				if kind == "graph" {
					return GraphView{G: g}, GraphView{G: g}
				}
				return monitors[s].Snapshot(), refSnapshot(monitors[s])
			}
			for p := graph.ServerID(0); p < graph.ServerID(ns); p++ {
				label := fmt.Sprintf("seed %d %s p=%d k=%d δ=%d", seed, kind, p,
					opts.CandidateSetSize, opts.ImbalanceTolerance)
				local := assign.VerticesOn(p)
				view, old := views(p)
				got := SelectCandidates(opts, view, assign, p, local, len(local))
				want := refSelectCandidates(opts, old, assign, p, local, len(local))
				sameProposals(t, label, got, want)
				for i := range got {
					props++
					cands += len(got[i].Candidates)
					q := got[i].To
					qVerts := assign.VerticesOn(q)
					qView, qOld := views(q)
					resp := DecideExchange(opts, qView, assign, ExchangeRequest{From: p, To: q,
						Candidates: got[i].Candidates, FromPopulation: got[i].FromPopulation}, qVerts, len(qVerts))
					wantResp := refDecideExchange(opts, qOld, assign, refExchangeRequest{From: p, To: q,
						Candidates: want[i].Candidates, FromPopulation: want[i].FromPopulation}, qVerts, len(qVerts))
					if !reflect.DeepEqual(resp, wantResp) {
						t.Fatalf("%s → %d: response\n%+v\nwant\n%+v", label, q, resp, wantResp)
					}
					moves += len(resp.Accepted) + len(resp.Counter)
				}
			}
		}
	}
	t.Logf("%d proposals, %d candidates, %d moves", props, cands, moves)
	if props < 40 || cands < 400 || moves < 100 {
		t.Fatalf("vacuous: %d proposals, %d candidates, %d moves over 40 seeds", props, cands, moves)
	}
}

func sameProposals(t *testing.T, label string, got []Proposal, want []refProposal) {
	t.Helper()
	bits := math.Float64bits
	if len(got) != len(want) {
		t.Fatalf("%s: %d proposals, want %d", label, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.From != w.From || g.To != w.To || bits(g.TotalScore) != bits(w.TotalScore) ||
			g.FromPopulation != w.FromPopulation || len(g.Candidates) != len(w.Candidates) {
			t.Fatalf("%s: proposal %d is %v→%v total %v pop %d (%d candidates), want %v→%v total %v pop %d (%d)",
				label, i, g.From, g.To, g.TotalScore, g.FromPopulation, len(g.Candidates),
				w.From, w.To, w.TotalScore, w.FromPopulation, len(w.Candidates))
		}
		for j, gc := range g.Candidates {
			wc := w.Candidates[j]
			if gc.V != wc.V || bits(gc.HomeWeight) != bits(wc.HomeWeight) ||
				bits(gc.TargetWeight) != bits(wc.TargetWeight) {
				t.Fatalf("%s: proposal %d candidate %d is %+v, want %+v", label, i, j, gc, wc)
			}
			keys := graph.SortedKeys(wc.Edges)
			if len(gc.Edges) != len(keys) {
				t.Fatalf("%s: candidate %d has %d edges, want %d", label, gc.V, len(gc.Edges), len(keys))
			}
			for k, u := range keys {
				if e := gc.Edges[k]; e.U != u || bits(e.W) != bits(wc.Edges[u]) {
					t.Fatalf("%s: candidate %d edge %d is %+v, want {%d %v}", label, gc.V, k, e, u, wc.Edges[u])
				}
			}
		}
	}
}

// The reference: Monitor.Snapshot, SelectCandidates and DecideExchange as
// they were before candidates carried sorted edge slices — a graph rebuilt
// per snapshot, two maps per local vertex, pointer heaps.

type refCandidate struct {
	V            graph.Vertex
	Edges        map[graph.Vertex]float64
	HomeWeight   float64
	TargetWeight float64
}

func (c refCandidate) Score() float64 { return c.TargetWeight - c.HomeWeight }

type refProposal struct {
	From, To       graph.ServerID
	Candidates     []refCandidate
	TotalScore     float64
	FromPopulation int
}

type refExchangeRequest struct {
	From, To       graph.ServerID
	Candidates     []refCandidate
	FromPopulation int
}

func refSnapshot(m *Monitor) GraphView {
	g := graph.New()
	m.summary.Each(func(e *sampling.Entry[edgeKey, struct{}]) {
		g.AddEdge(e.Key.A, e.Key.B, float64(e.Count))
	})
	return GraphView{G: g}
}

type refTargetRank struct {
	candidates []refCandidate
	total      float64
}

func refSelectCandidates(opts Options, view EdgeView, loc Locator, p graph.ServerID,
	localVertices []graph.Vertex, population int) []refProposal {

	perTarget := make(map[graph.ServerID]*refTargetRank)
	for _, v := range localVertices {
		// One pass over v's edges accumulates weight per remote server and
		// the local weight — O(deg(v)) instead of O(n·deg(v)).
		var toHome float64
		toRemote := make(map[graph.ServerID]float64)
		edges := make(map[graph.Vertex]float64)
		view.VertexEdges(v, func(u graph.Vertex, w float64) {
			edges[u] = w
			s, ok := loc.Server(u)
			if !ok {
				return
			}
			if s == p {
				toHome += w
			} else {
				toRemote[s] += w
			}
		})
		for q, toQ := range toRemote {
			score := toQ - toHome
			if score <= opts.MinScore {
				continue
			}
			tr := perTarget[q]
			if tr == nil {
				tr = &refTargetRank{}
				perTarget[q] = tr
			}
			tr.candidates = append(tr.candidates, refCandidate{
				V: v, Edges: edges, HomeWeight: toHome, TargetWeight: toQ,
			})
		}
	}

	proposals := make([]refProposal, 0, len(perTarget))
	for q, tr := range perTarget {
		// Keep the k best by score.
		sort.Slice(tr.candidates, func(i, j int) bool {
			si, sj := tr.candidates[i].Score(), tr.candidates[j].Score()
			if si != sj {
				return si > sj
			}
			return tr.candidates[i].V < tr.candidates[j].V // deterministic tie-break
		})
		if len(tr.candidates) > opts.CandidateSetSize {
			tr.candidates = tr.candidates[:opts.CandidateSetSize]
		}
		tr.total = 0
		for _, c := range tr.candidates {
			tr.total += c.Score()
		}
		proposals = append(proposals, refProposal{
			From: p, To: q, Candidates: tr.candidates,
			TotalScore: tr.total, FromPopulation: population,
		})
	}
	sort.Slice(proposals, func(i, j int) bool {
		if proposals[i].TotalScore != proposals[j].TotalScore {
			return proposals[i].TotalScore > proposals[j].TotalScore
		}
		return proposals[i].To < proposals[j].To
	})
	return proposals
}

type refScoredVertex struct {
	cand  refCandidate
	score float64
	index int
}

type refScoreHeap []*refScoredVertex

func (h refScoreHeap) Len() int           { return len(h) }
func (h refScoreHeap) Less(i, j int) bool { return h[i].score > h[j].score } // max-heap
func (h refScoreHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refScoreHeap) Push(x interface{}) {
	sv := x.(*refScoredVertex)
	sv.index = len(*h)
	*h = append(*h, sv)
}
func (h *refScoreHeap) Pop() interface{} {
	old := *h
	n := len(old)
	sv := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return sv
}

func refDecideExchange(opts Options, view EdgeView, loc Locator,
	req refExchangeRequest, qVertices []graph.Vertex, qPopulation int) ExchangeResponse {

	p, q := req.From, req.To

	// Step 2: q determines its own candidate set T toward p, ignoring (for
	// now) the consequences of accepting S.
	var tCands []refCandidate
	for _, prop := range refSelectCandidates(opts, view, loc, q, qVertices, qPopulation) {
		if prop.To == p {
			tCands = prop.Candidates
			break
		}
	}

	// Re-score S with q's own knowledge: q recomputes the weight to Vq from
	// its own view of membership (the offer's TargetWeight may be stale or
	// built from a partial sample). The weight internal to p is only known
	// to p, so the carried HomeWeight is used as-is.
	sHeap := &refScoreHeap{}
	for _, c := range req.Candidates {
		// Summed in vertex order: a float sum taken in map order differs in
		// its last bit from run to run, and that bit decides ties below.
		var toQ float64
		for _, u := range graph.SortedKeys(c.Edges) {
			if s, ok := loc.Server(u); ok && s == q {
				toQ += c.Edges[u]
			}
		}
		c.TargetWeight = toQ
		heap.Push(sHeap, &refScoredVertex{cand: c, score: c.Score()})
	}
	tHeap := &refScoreHeap{}
	for _, c := range tCands {
		heap.Push(tHeap, &refScoredVertex{cand: c, score: c.Score()})
	}

	// Step 3: iterative greedy selection. Accepting s∈S moves a vertex
	// p→q; accepting t∈T moves a vertex q→p. After each selection the
	// remaining scores are updated to reflect the migration:
	//   same-direction peers of a moved vertex gain 2·w(peer,v)
	//   opposite-direction peers lose 2·w(peer,v).
	sizeP := float64(req.FromPopulation)
	sizeQ := float64(qPopulation)
	delta := float64(opts.ImbalanceTolerance)

	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	// A move is admissible if it keeps |sizeP−sizeQ| ≤ δ, or strictly
	// reduces an imbalance that already exceeds δ.
	admissible := func(newP, newQ float64) bool {
		newDiff := abs(newP - newQ)
		return newDiff <= delta || newDiff < abs(sizeP-sizeQ)
	}

	var resp ExchangeResponse
	accepted := make(map[graph.Vertex]bool)
	countered := make(map[graph.Vertex]bool)

	// update adjusts remaining heap scores after vertex v migrated.
	// sameDir is the heap whose candidates move in the same direction as v.
	update := func(sameDir, oppDir *refScoreHeap, v graph.Vertex) {
		for _, sv := range *sameDir {
			if w, ok := refEdgeWeight(sv.cand, v); ok {
				sv.score += 2 * w
			}
		}
		for _, sv := range *oppDir {
			if w, ok := refEdgeWeight(sv.cand, v); ok {
				sv.score -= 2 * w
			}
		}
		heap.Init(sameDir)
		heap.Init(oppDir)
	}

	for sHeap.Len() > 0 || tHeap.Len() > 0 {
		// Pick the highest-scoring vertex across both heaps.
		var fromS bool
		switch {
		case sHeap.Len() == 0:
			fromS = false
		case tHeap.Len() == 0:
			fromS = true
		default:
			fromS = (*sHeap)[0].score >= (*tHeap)[0].score
		}

		var top *refScoredVertex
		if fromS {
			top = (*sHeap)[0]
		} else {
			top = (*tHeap)[0]
		}
		if top.score <= opts.MinScore {
			// The best remaining move no longer reduces cost; since scores
			// of remaining vertices only change when a selection happens,
			// nothing below the top can be selected either — check the
			// other heap before giving up.
			var other *refScoredVertex
			if fromS && tHeap.Len() > 0 {
				other = (*tHeap)[0]
			} else if !fromS && sHeap.Len() > 0 {
				other = (*sHeap)[0]
			}
			if other == nil || other.score <= opts.MinScore {
				break
			}
			fromS = !fromS
			top = other
		}

		const sz = 1
		var newP, newQ float64
		if fromS {
			newP, newQ = sizeP-sz, sizeQ+sz
		} else {
			newP, newQ = sizeP+sz, sizeQ-sz
		}
		if !admissible(newP, newQ) {
			// Balance would break: take the best vertex from the other
			// heap instead (its move shifts the balance the other way).
			otherHeap := tHeap
			if !fromS {
				otherHeap = sHeap
			}
			if otherHeap.Len() == 0 || (*otherHeap)[0].score <= opts.MinScore {
				break // nothing movable remains
			}
			fromS = !fromS
			top = (*otherHeap)[0]
			if fromS {
				newP, newQ = sizeP-sz, sizeQ+sz
			} else {
				newP, newQ = sizeP+sz, sizeQ-sz
			}
			if !admissible(newP, newQ) {
				break
			}
		}

		// Commit the move.
		sizeP, sizeQ = newP, newQ
		if fromS {
			heap.Pop(sHeap)
			accepted[top.cand.V] = true
			resp.Accepted = append(resp.Accepted, top.cand.V)
			update(sHeap, tHeap, top.cand.V)
		} else {
			heap.Pop(tHeap)
			countered[top.cand.V] = true
			resp.Counter = append(resp.Counter, top.cand.V)
			update(tHeap, sHeap, top.cand.V)
		}
	}
	return resp
}

// refEdgeWeight looks up w(c.V, v) in the candidate's carried edge list.
func refEdgeWeight(c refCandidate, v graph.Vertex) (float64, bool) {
	w, ok := c.Edges[v]
	return w, ok
}
