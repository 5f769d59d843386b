package partition

import (
	"cmp"
	"slices"

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
	doomed  []edgeKey       // ForgetVertex's scratch, reused across calls
	snap    MonitorSnapshot // Snapshot's storage, refilled by every call
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

// Snapshot refills the monitor's own snapshot storage and returns it; it and
// every candidate edge list selected from it are valid until the next call.
func (m *Monitor) Snapshot() *MonitorSnapshot {
	m.SnapshotInto(&m.snap)
	return &m.snap
}

// SnapshotInto refills storage the caller owns, allocating nothing once warm.
// It is O(k log k) to build and supports O(deg) per-vertex edge iteration,
// which SelectCandidates needs.
func (m *Monitor) SnapshotInto(s *MonitorSnapshot) {
	s.half = s.half[:0]
	m.summary.Each(func(e *sampling.Entry[edgeKey, struct{}]) {
		if w := float64(e.Count); w != 0 {
			s.half = append(s.half, graph.Edge{U: e.Key.A, V: e.Key.B, Weight: w}, graph.Edge{U: e.Key.B, V: e.Key.A, Weight: w})
		}
	})
	slices.SortFunc(s.half, func(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	s.verts, s.start, s.edges = s.verts[:0], s.start[:0], s.edges[:0]
	for i, h := range s.half {
		if i == 0 || h.U != s.half[i-1].U {
			s.verts = append(s.verts, h.U)
			s.start = append(s.start, i)
		}
		s.edges = append(s.edges, Edge{U: h.V, W: h.Weight})
	}
	s.start = append(s.start, len(s.edges))
}

// MonitorSnapshot is an adjacency view over a monitor's heavy edges in
// compressed sparse rows: each vertex's neighbours sit in one run, ascending,
// so two snapshots of one monitor sum every candidate's weights in the same
// order. It implements EdgeView; the zero value is empty.
type MonitorSnapshot struct {
	half  []graph.Edge   // SnapshotInto's scratch: both ends of every edge, U the owner
	verts []graph.Vertex // vertices with an edge, ascending
	start []int          // verts[i]'s run is edges[start[i]:start[i+1]]
	edges []Edge
}

// edgesOf returns v's run of edges, ascending by neighbour, as a view into s.
func (s *MonitorSnapshot) edgesOf(v graph.Vertex) []Edge {
	i, ok := slices.BinarySearch(s.verts, v)
	if !ok {
		return nil
	}
	return s.edges[s.start[i]:s.start[i+1]:s.start[i+1]]
}

// VertexEdges implements EdgeView, in ascending order of u.
func (s *MonitorSnapshot) VertexEdges(v graph.Vertex, fn func(u graph.Vertex, w float64)) {
	for _, e := range s.edgesOf(v) {
		fn(e.U, e.W)
	}
}

// Vertices returns the vertices with at least one monitored edge, ascending,
// as a view valid until s is refilled.
func (s *MonitorSnapshot) Vertices() []graph.Vertex { return s.verts }
