package partition

import (
	"cmp"
	"container/heap"
	"slices"

	"actop/internal/graph"
)

// ExchangeRequest is the message server p sends to server q to initiate the
// pairwise coordination protocol (Algorithm 1, step 1).
type ExchangeRequest struct {
	From, To graph.ServerID
	// Candidates is the set S of actors p offers to q.
	Candidates []Candidate
	// FromPopulation is |Vp| when the request was formed.
	FromPopulation int
}

// ExchangeResponse is q's decision (Algorithm 1, steps 2–4).
type ExchangeResponse struct {
	// Rejected is set when q refused the whole exchange (it exchanged too
	// recently, Algorithm 1's cooldown).
	Rejected bool
	// Accepted is S0 ⊆ S: the offered actors q agrees to host.
	Accepted []graph.Vertex
	// Counter is T0: q's own actors to be transferred to p.
	Counter []graph.Vertex
}

// scoredVertex is a heap element of the greedy exchange-subset procedure.
type scoredVertex struct {
	cand  Candidate
	score float64
}

// scoreHeap is a max-heap of candidates by score, held by value; push and
// pop move elements exactly as heap.Push and heap.Pop would, unboxed.
type scoreHeap []scoredVertex

func (h scoreHeap) Len() int           { return len(h) }
func (h scoreHeap) Less(i, j int) bool { return h[i].score > h[j].score } // max-heap
func (h scoreHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *scoreHeap) Push(x any)        { *h = append(*h, x.(scoredVertex)) }
func (h *scoreHeap) Pop() any          { panic("partition: scoreHeap pops through pop") }

func (h *scoreHeap) push(sv scoredVertex) {
	*h = append(*h, sv)
	heap.Fix(h, len(*h)-1) // a leaf only sifts up, as in heap.Push
}

func (h *scoreHeap) pop() {
	n := len(*h) - 1
	h.Swap(0, n)
	*h = (*h)[:n]
	heap.Fix(h, 0) // the root only sifts down, as in heap.Pop
}

// DecideExchange runs steps 2–3 of Algorithm 1 at the receiving server q:
// it forms q's own candidate set T toward p, then jointly determines the
// accepted subset S0 ⊆ S and the counter-subset T0 ⊆ T with the iterative
// greedy two-heap procedure, honoring the balance constraint
// ||Vp| − |Vq|| ≤ δ after every individual move.
//
// view/loc are q's local edge sample and membership knowledge;
// qVertices are the vertices currently homed on q; qPopulation is |Vq|.
func DecideExchange(opts Options, view EdgeView, loc Locator,
	req ExchangeRequest, qVertices []graph.Vertex, qPopulation int) ExchangeResponse {

	p, q := req.From, req.To

	// Step 2: q determines its own candidate set T toward p, ignoring (for
	// now) the consequences of accepting S.
	var tCands []Candidate
	for _, prop := range SelectCandidates(opts, view, loc, q, qVertices, qPopulation) {
		if prop.To == p {
			tCands = prop.Candidates
			break
		}
	}

	// Re-score S with q's own knowledge: q recomputes the weight to Vq from
	// its own view of membership (the offer's TargetWeight may be stale or
	// built from a partial sample). The weight internal to p is only known
	// to p, so the carried HomeWeight is used as-is.
	sHeap := make(scoreHeap, 0, len(req.Candidates))
	for _, c := range req.Candidates {
		// Summed in vertex order, as Edges is sorted: a float sum taken in
		// another order can differ in its last bit, and that bit decides ties
		// below.
		var toQ float64
		for _, e := range c.Edges {
			if s, ok := loc.Server(e.U); ok && s == q {
				toQ += e.W
			}
		}
		c.TargetWeight = toQ
		sHeap.push(scoredVertex{cand: c, score: c.Score()})
	}
	tHeap := make(scoreHeap, 0, len(tCands))
	for _, c := range tCands {
		tHeap.push(scoredVertex{cand: c, score: c.Score()})
	}

	// Step 3: iterative greedy selection. Accepting s∈S moves a vertex
	// p→q; accepting t∈T moves a vertex q→p. After each selection the
	// remaining scores are updated to reflect the migration:
	//   same-direction peers of a moved vertex gain 2·w(peer,v)
	//   opposite-direction peers lose 2·w(peer,v).
	nP, nQ := req.FromPopulation, qPopulation

	// A move is admissible if it keeps |nP−nQ| ≤ δ, or strictly reduces an
	// imbalance that already exceeds δ.
	admissible := func(newP, newQ int) bool {
		newDiff := abs64(newP - newQ)
		return newDiff <= opts.ImbalanceTolerance || newDiff < abs64(nP-nQ)
	}
	// shift is the populations after one move (p→q when fromS).
	shift := func(fromS bool) (int, int) {
		if fromS {
			return nP - 1, nQ + 1
		}
		return nP + 1, nQ - 1
	}
	side := func(fromS bool) scoreHeap {
		if fromS {
			return sHeap
		}
		return tHeap
	}

	var resp ExchangeResponse

	// update adjusts remaining heap scores after vertex v migrated.
	// sameDir is the heap whose candidates move in the same direction as v.
	update := func(sameDir, oppDir *scoreHeap, v graph.Vertex) {
		for i := range *sameDir {
			sv := &(*sameDir)[i]
			if w, ok := edgeWeight(sv.cand, v); ok {
				sv.score += 2 * w
			}
		}
		for i := range *oppDir {
			sv := &(*oppDir)[i]
			if w, ok := edgeWeight(sv.cand, v); ok {
				sv.score -= 2 * w
			}
		}
		heap.Init(sameDir)
		heap.Init(oppDir)
	}

	for len(sHeap) > 0 || len(tHeap) > 0 {
		// Pick the highest-scoring vertex across both heaps.
		fromS := len(tHeap) == 0 || len(sHeap) > 0 && sHeap[0].score >= tHeap[0].score
		top := side(fromS)[0]
		if top.score <= opts.MinScore {
			// The best remaining move no longer reduces cost; since scores
			// of remaining vertices only change when a selection happens,
			// nothing below the top can be selected either — check the
			// other heap before giving up.
			other := side(!fromS)
			if len(other) == 0 || other[0].score <= opts.MinScore {
				break
			}
			fromS, top = !fromS, other[0]
		}
		newP, newQ := shift(fromS)
		if !admissible(newP, newQ) {
			// Balance would break: take the best vertex from the other
			// heap instead (its move shifts the balance the other way).
			other := side(!fromS)
			if len(other) == 0 || other[0].score <= opts.MinScore {
				break // nothing movable remains
			}
			fromS, top = !fromS, other[0]
			if newP, newQ = shift(fromS); !admissible(newP, newQ) {
				break
			}
		}

		// Commit the move.
		nP, nQ = newP, newQ
		if fromS {
			sHeap.pop()
			resp.Accepted = append(resp.Accepted, top.cand.V)
			update(&sHeap, &tHeap, top.cand.V)
		} else {
			tHeap.pop()
			resp.Counter = append(resp.Counter, top.cand.V)
			update(&tHeap, &sHeap, top.cand.V)
		}
	}
	return resp
}

// edgeWeight looks up w(c.V, v) in the candidate's carried edge list, which
// is sorted by vertex.
func edgeWeight(c Candidate, v graph.Vertex) (float64, bool) {
	i, ok := slices.BinarySearchFunc(c.Edges, v, func(e Edge, v graph.Vertex) int { return cmp.Compare(e.U, v) })
	if !ok {
		return 0, false
	}
	return c.Edges[i].W, true
}
