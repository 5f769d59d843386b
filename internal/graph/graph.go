// Package graph provides the weighted actor-communication graph and
// partition-assignment types used by the ActOp partitioning algorithms (§4).
//
// Vertices are actors; an edge weight is proportional to the average number
// of messages exchanged between the two actors (both directions summed — the
// communication cost C of §4.1 is symmetric in who crosses the boundary).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Vertex identifies an actor in the communication graph.
type Vertex uint64

// Edge is one weighted undirected edge.
type Edge struct {
	U, V   Vertex
	Weight float64
}

// halfEdge is one end of an undirected edge as its owner's adjacency list
// holds it.
type halfEdge struct {
	to Vertex
	w  float64
}

// Graph is a weighted undirected multigraph. Each vertex keeps its
// neighbours in a slice sorted by vertex id, so every walk over adjacency —
// and with it every sum over neighbours and every tie between two of them —
// runs in one order, run after run; weight accumulation is a binary search.
// The zero value is not usable; use New.
type Graph struct {
	adj       map[Vertex][]halfEdge
	edgeCount int
	totalW    float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[Vertex][]halfEdge)}
}

// find locates u in v's adjacency list: its index, or where it would go.
func (g *Graph) find(v, u Vertex) (int, bool) {
	return slices.BinarySearchFunc(g.adj[v], u, func(e halfEdge, u Vertex) int { return cmp.Compare(e.to, u) })
}

// AddVertex ensures v exists (possibly with no edges).
func (g *Graph) AddVertex(v Vertex) {
	if _, ok := g.adj[v]; !ok {
		g.adj[v] = nil
	}
}

// HasVertex reports whether v is present.
func (g *Graph) HasVertex(v Vertex) bool {
	_, ok := g.adj[v]
	return ok
}

// AddEdge accumulates weight w onto the undirected edge {u,v}.
// Self-loops are ignored (an actor messaging itself never crosses servers).
func (g *Graph) AddEdge(u, v Vertex, w float64) {
	if u == v || w == 0 {
		return
	}
	g.addHalf(u, v, w)
	if g.addHalf(v, u, w) {
		g.edgeCount++
	}
	g.totalW += w
}

// addHalf accumulates w onto u's record of {u,v}, reporting whether the
// record is new.
func (g *Graph) addHalf(u, v Vertex, w float64) bool {
	i, ok := g.find(u, v)
	if ok {
		g.adj[u][i].w += w
	} else {
		g.adj[u] = slices.Insert(g.adj[u], i, halfEdge{to: v, w: w})
	}
	return !ok
}

// Weight reports the accumulated weight of edge {u,v} (0 if absent).
func (g *Graph) Weight(u, v Vertex) float64 {
	if i, ok := g.find(u, v); ok {
		return g.adj[u][i].w
	}
	return 0
}

// Neighbors calls fn for every neighbor of v with the edge weight, in
// ascending neighbor order.
func (g *Graph) Neighbors(v Vertex, fn func(u Vertex, w float64)) {
	for _, e := range g.adj[v] {
		fn(e.to, e.w)
	}
}

// Degree reports the number of neighbors of v.
func (g *Graph) Degree(v Vertex) int { return len(g.adj[v]) }

// WeightedDegree reports the summed edge weight incident to v.
func (g *Graph) WeightedDegree(v Vertex) float64 {
	var s float64
	for _, e := range g.adj[v] {
		s += e.w
	}
	return s
}

// RemoveVertex deletes v and all incident edges.
func (g *Graph) RemoveVertex(v Vertex) {
	for _, e := range g.adj[v] {
		if i, ok := g.find(e.to, v); ok {
			g.adj[e.to] = slices.Delete(g.adj[e.to], i, i+1)
		}
		g.totalW -= e.w
		g.edgeCount--
	}
	delete(g.adj, v)
}

// NumVertices reports the vertex count.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges reports the number of distinct undirected edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// TotalWeight reports the summed weight over all undirected edges.
func (g *Graph) TotalWeight() float64 { return g.totalW }

// SortedKeys returns the vertices keying m in ascending order, for walking
// a vertex-keyed map the same way on every run.
func SortedKeys[T any](m map[Vertex]T) []Vertex {
	vs := make([]Vertex, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	return vs
}

// Vertices returns all vertices in ascending order (deterministic).
func (g *Graph) Vertices() []Vertex { return SortedKeys(g.adj) }

// Edges returns all undirected edges once each (U < V), sorted.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edgeCount)
	for _, u := range g.Vertices() {
		for _, e := range g.adj[u] {
			if u < e.to {
				es = append(es, Edge{U: u, V: e.to, Weight: e.w})
			}
		}
	}
	return es
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New()
	c.edgeCount = g.edgeCount
	c.totalW = g.totalW
	for v, nbrs := range g.adj {
		c.adj[v] = slices.Clone(nbrs)
	}
	return c
}

// ServerID identifies a server (silo) hosting a subset of actors.
type ServerID int

// Assignment maps every vertex to the server hosting it and maintains
// per-server population counts. The zero value is not usable; use
// NewAssignment.
type Assignment struct {
	home  map[Vertex]ServerID
	count map[ServerID]int
}

// NewAssignment returns an empty assignment over the given servers.
// Servers with no vertices still appear in Counts with count 0.
func NewAssignment(servers ...ServerID) *Assignment {
	a := &Assignment{
		home:  make(map[Vertex]ServerID),
		count: make(map[ServerID]int, len(servers)),
	}
	for _, s := range servers {
		a.count[s] = 0
	}
	return a
}

// Place assigns v to server s, moving it if already placed.
func (a *Assignment) Place(v Vertex, s ServerID) {
	if old, ok := a.home[v]; ok {
		if old == s {
			return
		}
		a.count[old]--
	}
	a.home[v] = s
	a.count[s]++
}

// Remove unassigns v.
func (a *Assignment) Remove(v Vertex) {
	if s, ok := a.home[v]; ok {
		a.count[s]--
		delete(a.home, v)
	}
}

// Server reports the server hosting v.
func (a *Assignment) Server(v Vertex) (ServerID, bool) {
	s, ok := a.home[v]
	return s, ok
}

// Count reports how many vertices server s hosts.
func (a *Assignment) Count(s ServerID) int { return a.count[s] }

// Servers returns all known servers in ascending order.
func (a *Assignment) Servers() []ServerID {
	ss := make([]ServerID, 0, len(a.count))
	for s := range a.count {
		ss = append(ss, s)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	return ss
}

// NumVertices reports the number of placed vertices.
func (a *Assignment) NumVertices() int { return len(a.home) }

// VerticesOn returns the vertices hosted by s in ascending order.
func (a *Assignment) VerticesOn(s ServerID) []Vertex {
	var vs []Vertex
	for v, sv := range a.home {
		if sv == s {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		home:  make(map[Vertex]ServerID, len(a.home)),
		count: make(map[ServerID]int, len(a.count)),
	}
	for v, s := range a.home {
		c.home[v] = s
	}
	for s, n := range a.count {
		c.count[s] = n
	}
	return c
}

// Imbalance reports max−min population across servers.
func (a *Assignment) Imbalance() int {
	first := true
	var lo, hi int
	for _, n := range a.count {
		if first {
			lo, hi = n, n
			first = false
			continue
		}
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	return hi - lo
}

// CutCost computes the total communication cost C of §4.1: the summed weight
// of edges whose endpoints live on different servers. Unplaced vertices are
// treated as remote to everything.
func CutCost(g *Graph, a *Assignment) float64 {
	var cost float64
	for _, e := range g.Edges() {
		su, okU := a.Server(e.U)
		sv, okV := a.Server(e.V)
		if !okU || !okV || su != sv {
			cost += e.Weight
		}
	}
	return cost
}

// RemoteFraction reports the fraction of edge weight that crosses servers —
// the "proportion of remote messages" series of Fig. 10(a).
func RemoteFraction(g *Graph, a *Assignment) float64 {
	if g.TotalWeight() == 0 {
		return 0
	}
	return CutCost(g, a) / g.TotalWeight()
}

// String renders population counts, e.g. "{0:5 1:5}".
func (a *Assignment) String() string {
	out := "{"
	for i, s := range a.Servers() {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d:%d", s, a.count[s])
	}
	return out + "}"
}
