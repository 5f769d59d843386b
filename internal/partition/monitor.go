package partition

import (
	"actop/internal/graph"
	"actop/internal/sampling"
)

// edgeKey canonically identifies an undirected edge (A < B).
type edgeKey struct{ A, B graph.Vertex }

func canonical(u, v graph.Vertex) edgeKey {
	if u < v {
		return edgeKey{A: u, B: v}
	}
	return edgeKey{A: v, B: u}
}

// Monitor is one server's partial view of the communication graph: a
// Space-Saving summary over the stream of messages to/from local actors
// (§4.3, "Edge sampling" + "Gathering edge statistics"). It retains only the
// heaviest edges in constant space; light edges never enter candidate sets,
// so dropping them does not change the algorithm's decisions.
//
// Monitor is not safe for concurrent use; the runtime funnels updates from a
// single thread, exactly as the paper's implementation does after its lock-
// contention lesson.
type Monitor struct {
	summary *sampling.SpaceSaving[edgeKey, struct{}]
	doomed  []edgeKey // ForgetVertex's scratch, reused across calls
}

// NewMonitor creates a monitor retaining at most capacity heavy edges.
func NewMonitor(capacity int) *Monitor {
	return &Monitor{summary: sampling.NewSpaceSaving[edgeKey](capacity)}
}

// ObserveMessage records count messages between two actors (direction does
// not matter for the cost model; both directions accumulate onto the same
// undirected edge).
func (m *Monitor) ObserveMessage(from, to graph.Vertex, count uint64) {
	if from == to {
		return
	}
	m.summary.Observe(canonical(from, to), count)
}

// Decay applies exponential forgetting so stale heavy edges fade as the
// communication graph changes. Call once per statistics epoch.
func (m *Monitor) Decay() { m.summary.Decay() }

// ForgetVertex drops all monitored edges incident to v (used when an actor
// deactivates or migrates away and its statistics move with it), in heap
// order, without copying the summary.
func (m *Monitor) ForgetVertex(v graph.Vertex) {
	m.doomed = m.doomed[:0]
	m.summary.Each(func(e *sampling.Entry[edgeKey, struct{}]) {
		if e.Key.A == v || e.Key.B == v {
			m.doomed = append(m.doomed, e.Key)
		}
	})
	for _, k := range m.doomed {
		m.summary.Forget(k)
	}
}

// EdgeCount reports the number of monitored edges.
func (m *Monitor) EdgeCount() int { return m.summary.Len() }

// Snapshot materializes the summary into an adjacency view for one
// partitioning round. The snapshot is O(k log k) to build and supports
// O(deg) per-vertex edge iteration, which SelectCandidates needs.
func (m *Monitor) Snapshot() *MonitorSnapshot {
	g := graph.New()
	m.summary.Each(func(e *sampling.Entry[edgeKey, struct{}]) {
		g.AddEdge(e.Key.A, e.Key.B, float64(e.Count))
	})
	return &MonitorSnapshot{g: g}
}

// MonitorSnapshot is an immutable adjacency view over a monitor's heavy
// edges: a graph, so each vertex's neighbours are walked in ascending order
// and two snapshots of one monitor sum every candidate's weights in the
// same order. It implements EdgeView.
type MonitorSnapshot struct {
	g *graph.Graph
}

// VertexEdges implements EdgeView, in ascending order of u.
func (s *MonitorSnapshot) VertexEdges(v graph.Vertex, fn func(u graph.Vertex, w float64)) {
	s.g.Neighbors(v, fn)
}

// Vertices returns the vertices with at least one monitored edge, ascending.
func (s *MonitorSnapshot) Vertices() []graph.Vertex { return s.g.Vertices() }
