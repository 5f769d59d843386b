package partition

import (
	"math/rand"
	"time"

	"actop/internal/graph"
)

// Engine runs the pairwise coordination protocol over one process's
// assignment: Algorithm 1's round, its reject window and the hand-off of a
// moved vertex's statistics. The discrete-event cluster simulator steps it
// from each server's exchange timer; the partition-quality experiments and
// the Theorem 1 convergence tests round it. The real runtime calls the same
// protocol functions but carries the messages itself.
type Engine struct {
	Opts Options
	// RejectWindow is the minimum interval between two exchanges involving
	// the same server; a request arriving sooner is rejected (Algorithm 1's
	// "if q exchanged recently"). The paper uses one minute.
	RejectWindow time.Duration

	G      *graph.Graph
	Assign *graph.Assignment

	// Monitors, when non-nil, supply each server's sampled edge view;
	// otherwise servers see the true graph G (the oracle configuration), and
	// G may be nil only when every server has a monitor.
	Monitors map[graph.ServerID]*Monitor

	lastExchange map[graph.ServerID]time.Duration
	rng          *rand.Rand

	// Moves counts migrations, Move's included; Exchanges counts accepted
	// exchanges; Rejected counts cooldown rejections.
	Moves, Exchanges, Rejected int
}

// NewEngine creates an engine over g with the given assignment.
func NewEngine(opts Options, g *graph.Graph, a *graph.Assignment, seed int64) *Engine {
	return &Engine{
		Opts:         opts,
		RejectWindow: time.Minute,
		G:            g,
		Assign:       a,
		lastExchange: make(map[graph.ServerID]time.Duration),
		rng:          rand.New(rand.NewSource(seed)),
	}
}

// view returns server p's edge view.
func (e *Engine) view(p graph.ServerID) EdgeView {
	if e.Monitors != nil {
		if m := e.Monitors[p]; m != nil {
			return m.Snapshot()
		}
	}
	return GraphView{G: e.G}
}

// coolingDown reports whether s exchanged within the reject window.
func (e *Engine) coolingDown(s graph.ServerID, now time.Duration) bool {
	last, ok := e.lastExchange[s]
	return ok && now-last < e.RejectWindow
}

// StepServer runs one protocol round initiated by server p at virtual time
// now. It returns the number of vertices migrated.
func (e *Engine) StepServer(p graph.ServerID, now time.Duration) int {
	if e.coolingDown(p, now) {
		return 0
	}
	local := e.Assign.VerticesOn(p)
	proposals := SelectCandidates(e.Opts, e.view(p), e.Assign, p, local, len(local))
	for _, prop := range proposals {
		q := prop.To
		if e.coolingDown(q, now) {
			e.Rejected++
			continue // p tries the next-best target (Algorithm 1)
		}
		req := ExchangeRequest{
			From: p, To: q,
			Candidates:     prop.Candidates,
			FromPopulation: prop.FromPopulation,
		}
		qVerts := e.Assign.VerticesOn(q)
		resp := DecideExchange(e.Opts, e.view(q), e.Assign, req, qVerts, len(qVerts))
		moved := e.apply(req, resp)
		if moved == 0 {
			// q accepted the exchange but found nothing worth moving;
			// don't burn the cooldown, let p try elsewhere.
			continue
		}
		e.Exchanges++
		e.lastExchange[p] = now
		e.lastExchange[q] = now
		return moved
	}
	return 0
}

// apply commits an exchange decision to the assignment.
func (e *Engine) apply(req ExchangeRequest, resp ExchangeResponse) int {
	if resp.Rejected {
		return 0
	}
	for _, v := range resp.Accepted {
		e.Move(v, req.From, req.To)
	}
	for _, v := range resp.Counter {
		e.Move(v, req.To, req.From)
	}
	return len(resp.Accepted) + len(resp.Counter)
}

// Move places v, homed on from, on to and counts it in Moves. When monitors
// are in play, v's monitored edges travel to the new home so it can keep
// refining placement, and are dropped at the source (§4.3, "Transparent
// actor migration").
func (e *Engine) Move(v graph.Vertex, from, to graph.ServerID) {
	e.Assign.Place(v, to)
	e.Moves++
	if e.Monitors == nil {
		return
	}
	src, dst := e.Monitors[from], e.Monitors[to]
	if src == nil || dst == nil {
		return
	}
	src.Snapshot().VertexEdges(v, func(u graph.Vertex, w float64) {
		dst.ObserveMessage(v, u, uint64(w))
	})
	src.ForgetVertex(v)
}

// Round lets every server initiate once (in random order, as independent
// periodic timers would interleave). It returns total vertices migrated.
func (e *Engine) Round(now time.Duration) int {
	servers := e.Assign.Servers()
	e.rng.Shuffle(len(servers), func(i, j int) { servers[i], servers[j] = servers[j], servers[i] })
	total := 0
	for _, p := range servers {
		total += e.StepServer(p, now)
	}
	return total
}

// RunToConvergence repeatedly rounds (spacing rounds a reject-window apart
// so cooldowns never block progress) until a round moves nothing or
// maxRounds is reached. It returns the number of rounds executed.
func (e *Engine) RunToConvergence(maxRounds int) int {
	now := time.Duration(0)
	for r := 1; r <= maxRounds; r++ {
		now += e.RejectWindow + time.Second
		if e.Round(now) == 0 {
			return r
		}
	}
	return maxRounds
}

// FeedMonitors replays the true graph's edges into each endpoint server's
// monitor, simulating one statistics epoch of message traffic. scale
// multiplies edge weights into integer message counts.
func (e *Engine) FeedMonitors(scale float64) {
	if e.Monitors == nil {
		return
	}
	for _, edge := range e.G.Edges() {
		count := uint64(edge.Weight * scale)
		if count == 0 {
			count = 1
		}
		if su, ok := e.Assign.Server(edge.U); ok {
			if m := e.Monitors[su]; m != nil {
				m.ObserveMessage(edge.U, edge.V, count)
			}
		}
		if sv, ok := e.Assign.Server(edge.V); ok {
			su, _ := e.Assign.Server(edge.U)
			if sv != su { // avoid double-count when co-located
				if m := e.Monitors[sv]; m != nil {
					m.ObserveMessage(edge.U, edge.V, count)
				}
			}
		}
	}
}

// EnableMonitors attaches fresh monitors of the given capacity to every
// server in the assignment.
func (e *Engine) EnableMonitors(capacity int) {
	e.Monitors = make(map[graph.ServerID]*Monitor)
	for _, s := range e.Assign.Servers() {
		e.Monitors[s] = NewMonitor(capacity)
	}
}

// LocallyOptimal reports whether the partition (g, a) is locally optimal in
// the sense of Theorem 1: for each pair of servers p, q, every vertex in
// Vp ∪ Vq either has a non-positive pairwise transfer score, or has a
// positive score but moving it to the other server would violate the balance
// constraint between p and q. Exchanges only stop at such states.
func LocallyOptimal(opts Options, g *graph.Graph, a *graph.Assignment) bool {
	view := GraphView{G: g}
	servers := a.Servers()
	for _, v := range g.Vertices() {
		p, ok := a.Server(v)
		if !ok {
			continue
		}
		np := a.Count(p)
		for _, q := range servers {
			if q == p {
				continue
			}
			score := TransferScore(view, a, v, p, q)
			if score <= opts.MinScore {
				continue
			}
			nq := a.Count(q)
			newDiff := abs64(np - 1 - (nq + 1))
			curDiff := abs64(np - nq)
			if newDiff <= opts.ImbalanceTolerance || newDiff < curDiff {
				return false // an admissible improving move exists
			}
		}
	}
	return true
}

func abs64(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
