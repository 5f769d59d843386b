// Package partition implements ActOp's locality-aware actor partitioning
// (§4): the balanced graph-partitioning objective, per-vertex transfer
// scores, candidate-set selection, the pairwise coordination protocol
// (Algorithm 1) with its greedy two-heap exchange-subset procedure, and the
// baselines the paper compares against (random/one-sided/Ja-Be-Ja-style/
// centralized multilevel).
//
// The protocol pieces are pure functions over explicit request/response
// values. Engine runs one exchange round of them in a single process — the
// discrete-event cluster simulator, the benchmark ladder and the unit tests
// all step it — and the real actor runtime calls the same functions at each
// end of a wire. Scores are edge weights and balance counts vertices (§4.1).
package partition

import (
	"cmp"
	"slices"

	"actop/internal/graph"
)

// Options configures the partitioning algorithm.
type Options struct {
	// CandidateSetSize is k — the maximum number of vertices offered in one
	// exchange. Bounding k bounds migration churn per round (§4.1).
	CandidateSetSize int
	// ImbalanceTolerance is δ — the allowed difference in vertex population
	// between any two servers (§4.1).
	ImbalanceTolerance int
	// MinScore is the minimum positive transfer score for a vertex to be
	// considered for migration. Slightly above zero avoids ping-ponging
	// vertices with near-zero benefit under a sampled, drifting graph.
	MinScore float64
}

// DefaultOptions mirror the prototype's configuration: small candidate sets,
// a loose-but-bounded balance tolerance.
func DefaultOptions() Options {
	return Options{
		CandidateSetSize:   64,
		ImbalanceTolerance: 16,
		MinScore:           1e-9,
	}
}

// EdgeView exposes the (possibly sampled, possibly stale) communication
// edges known to one server. Both the Space-Saving monitor and the oracle
// full graph implement it.
type EdgeView interface {
	// VertexEdges calls fn with every known edge incident to v, once per
	// neighbour u, in ascending order of u.
	VertexEdges(v graph.Vertex, fn func(u graph.Vertex, w float64))
}

// Locator answers which server hosts a vertex. graph.Assignment implements
// it; the runtime's placement directory implements it too.
type Locator interface {
	Server(v graph.Vertex) (graph.ServerID, bool)
}

// Edge is one entry of a vertex's edge list: the neighbour U and the weight
// of the edge to it.
type Edge struct {
	U graph.Vertex
	W float64
}

// Candidate is one vertex offered for migration, with enough of its sampled
// edge list for the receiving server to (re)score it and to run the pairwise
// update steps of the greedy exchange.
type Candidate struct {
	V graph.Vertex
	// Edges is the sampled heavy-edge list incident to V, as known by the
	// offering server, ascending by U. Selected from a MonitorSnapshot it is
	// a view into the snapshot, valid until that storage is refilled; from
	// any other EdgeView it is a copy.
	Edges []Edge
	// HomeWeight is Σ w(V,u) over u currently on the offering server.
	HomeWeight float64
	// TargetWeight is Σ w(V,u) over u on the target server, per the
	// offering server's sample. The receiver recomputes this from its own
	// view when possible.
	TargetWeight float64
}

// Score is the transfer score R_{p,q}(v) of the candidate: the cost
// reduction expected from migrating V from its home to the target
// (§4.2, "Determining the candidate set").
func (c Candidate) Score() float64 { return c.TargetWeight - c.HomeWeight }

// TransferScore computes R_{p,q}(v) = Σ_{u∈Vq} w(v,u) − Σ_{u∈Vp} w(v,u)
// using view for edges and loc for membership. p is v's home server and q
// the candidate target.
func TransferScore(view EdgeView, loc Locator, v graph.Vertex, p, q graph.ServerID) float64 {
	var toQ, toP float64
	view.VertexEdges(v, func(u graph.Vertex, w float64) {
		s, ok := loc.Server(u)
		if !ok {
			return
		}
		switch s {
		case q:
			toQ += w
		case p:
			toP += w
		}
	})
	return toQ - toP
}

// Proposal is the outcome of candidate selection at server p: the best
// target server and the candidate set S to offer it.
type Proposal struct {
	From, To   graph.ServerID
	Candidates []Candidate
	// TotalScore is the summed transfer score of Candidates — p's
	// anticipated cost reduction (used to rank target servers).
	TotalScore float64
	// FromPopulation is |Vp| at proposal time, so the receiver can evaluate
	// the balance constraint.
	FromPopulation int
}

// serverWeight is one remote server's share of a vertex's edge weight.
type serverWeight struct {
	s graph.ServerID
	w float64
}

// SelectCandidates scans p's local vertices and computes, for every remote
// server q, the top-k candidate set by transfer score; it returns proposals
// for every server with positive total score, best first. localVertices
// must be the vertices currently homed on p. Its allocations do not grow
// with the vertex count: a vertex's edges are taken only once it becomes a
// candidate, as a view of a *MonitorSnapshot or copied into one slab.
func SelectCandidates(opts Options, view EdgeView, loc Locator, p graph.ServerID,
	localVertices []graph.Vertex, population int) []Proposal {

	// better orders candidates best first, ties by vertex: a total order, so
	// a target's list does not depend on the order vertices arrive in.
	better := func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(b.Score(), a.Score()), cmp.Compare(a.V, b.V))
	}

	snap, _ := view.(*MonitorSnapshot)
	var (
		proposals []Proposal     // one per target; TotalScore filled last
		remote    []serverWeight // v's weight per remote server
		toHome    float64        // v's weight to p
		vEdges    []Edge         // v's edges, unless view is a snapshot
		slab      []Edge         // candidates' copied edges
	)
	// One pass over v's edges accumulates weight per remote server and the
	// local weight — O(deg(v)) instead of O(n·deg(v)).
	visit := func(u graph.Vertex, w float64) {
		if snap == nil {
			vEdges = append(vEdges, Edge{U: u, W: w})
		}
		s, ok := loc.Server(u)
		switch {
		case !ok:
		case s == p:
			toHome += w
		default:
			i := slices.IndexFunc(remote, func(r serverWeight) bool { return r.s == s })
			if i < 0 {
				i, remote = len(remote), append(remote, serverWeight{s: s})
			}
			remote[i].w += w
		}
	}
	for _, v := range localVertices {
		toHome, remote, vEdges = 0, remote[:0], vEdges[:0]
		view.VertexEdges(v, visit)
		var edges []Edge
		for _, r := range remote {
			if r.w-toHome <= opts.MinScore {
				continue
			}
			t := slices.IndexFunc(proposals, func(pr Proposal) bool { return pr.To == r.s })
			if t < 0 {
				t, proposals = len(proposals), append(proposals, Proposal{From: p, To: r.s, FromPopulation: population,
					Candidates: make([]Candidate, 0, min(opts.CandidateSetSize, len(localVertices)))})
			}
			// Keep the k best by score, in order.
			cands := proposals[t].Candidates
			c := Candidate{V: v, HomeWeight: toHome, TargetWeight: r.w}
			i, _ := slices.BinarySearchFunc(cands, c, better)
			if i >= opts.CandidateSetSize {
				continue
			}
			if edges == nil {
				if snap != nil {
					edges = snap.edgesOf(v)
				} else {
					slab = append(slab, vEdges...)
					edges = slab[len(slab)-len(vEdges) : len(slab) : len(slab)]
				}
			}
			c.Edges = edges
			if len(cands) == opts.CandidateSetSize {
				cands = cands[:len(cands)-1]
			}
			proposals[t].Candidates = slices.Insert(cands, i, c)
		}
	}

	for i := range proposals {
		for _, c := range proposals[i].Candidates {
			proposals[i].TotalScore += c.Score()
		}
	}
	slices.SortFunc(proposals, func(a, b Proposal) int {
		return cmp.Or(cmp.Compare(b.TotalScore, a.TotalScore), cmp.Compare(a.To, b.To))
	})
	return proposals
}

// GraphView adapts a full *graph.Graph to the EdgeView interface — the
// oracle view used by tests and by the centralized baselines.
type GraphView struct{ G *graph.Graph }

// VertexEdges implements EdgeView.
func (gv GraphView) VertexEdges(v graph.Vertex, fn func(u graph.Vertex, w float64)) {
	gv.G.Neighbors(v, fn)
}
