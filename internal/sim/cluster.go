package sim

import (
	"fmt"
	"time"

	"actop/internal/des"
	"actop/internal/graph"
	"actop/internal/metrics"
	"actop/internal/partition"
)

type actorRec struct {
	handler Handler
	state   interface{}
}

// Cluster is the simulated actor cluster. Create one with New, populate it
// with actors and workload timers, then Run it on virtual time.
type Cluster struct {
	Cfg Config
	K   *des.Kernel

	rng     *des.Rand
	servers []*server
	assign  *graph.Assignment
	part    *partition.Engine // Algorithm 1 over assign and the servers' monitors
	actors  map[ActorID]*actorRec

	nextActor ActorID

	// Metrics. Latency is end-to-end client latency; ActorCall is one-way
	// actor→actor delivery latency (created → handler completed), the
	// Fig. 10(c) series.
	Latency   metrics.Histogram
	ActorCall metrics.Histogram
	Breakdown *metrics.Breakdown

	RemoteSeries metrics.TimeSeries // fraction of actor msgs that were remote
	MoveSeries   metrics.TimeSeries // actor migrations per minute
	CPUSeries    metrics.TimeSeries // mean CPU utilization across servers

	Submitted, Completed, Rejected uint64
	Moves, Exchanges, Retunes      int

	remoteWindow, totalWindow uint64
	movesWindow               int
}

// New creates a cluster per cfg and installs its periodic controllers.
func New(cfg Config) *Cluster {
	c := &Cluster{
		Cfg:       cfg,
		K:         &des.Kernel{},
		rng:       des.NewRand(cfg.Seed),
		actors:    make(map[ActorID]*actorRec),
		nextActor: 1,
	}
	c.assign = graph.NewAssignment(cfg.ServerIDs()...)
	c.part = partition.NewEngine(cfg.PartitionOpts, nil, c.assign, cfg.Seed)
	c.part.RejectWindow = cfg.RejectWindow
	c.part.EnableMonitors(cfg.MonitorCapacity)
	for _, id := range cfg.ServerIDs() {
		c.servers = append(c.servers, newServer(c, id))
	}
	c.Breakdown = newBreakdown()

	// Stats sampling.
	c.K.Every(cfg.StatsWindow, cfg.StatsWindow, c.sampleStats)

	// Edge-statistics forgetting (§4.3).
	if cfg.MonitorDecayPeriod > 0 {
		for _, s := range c.servers {
			s := s
			c.K.Every(cfg.MonitorDecayPeriod, cfg.MonitorDecayPeriod, func() { s.monitor.Decay() })
		}
	}

	// Partitioning: per-server exchange timers, phase-offset so servers
	// initiate independently (as independent runtimes would).
	if cfg.Partitioning {
		for i, s := range c.servers {
			p := s.id
			phase := time.Duration(i) * cfg.PartitionPeriod / time.Duration(len(c.servers))
			c.K.Every(cfg.PartitionPeriod, cfg.PartitionPeriod+phase, func() {
				if moved := c.part.StepServer(p, c.K.Now()); moved > 0 {
					c.Exchanges++
					c.moved(moved)
				}
			})
		}
	}

	// Thread tuning: per-server §5 control loops.
	if cfg.ThreadTuning {
		for i, s := range c.servers {
			s := s
			phase := time.Duration(i) * cfg.ThreadPeriod / time.Duration(len(c.servers))
			c.K.Every(cfg.ThreadPeriod, cfg.ThreadPeriod+phase, func() { s.retune(cfg.ThreadPeriod) })
		}
	}
	return c
}

func newBreakdown() *metrics.Breakdown {
	return metrics.NewBreakdown(
		"Recv. queue", "Recv. processing",
		"Worker queue", "Worker processing",
		"Sender queue", "Sender processing",
		"Network", "Other",
	)
}

// Now reports current virtual time.
func (c *Cluster) Now() des.Time { return c.K.Now() }

// Run advances virtual time by d.
func (c *Cluster) Run(d time.Duration) { c.K.RunUntil(c.K.Now() + d) }

// CreateActor instantiates an actor under the default random placement
// policy (§3: Orleans's default) and returns its id.
func (c *Cluster) CreateActor(h Handler, state interface{}) ActorID {
	return c.CreateActorOn(graph.ServerID(c.rng.Intn(len(c.servers))), h, state)
}

// CreateActorOn instantiates an actor on a specific server (used by the
// oracle/local placement baselines and by tests).
func (c *Cluster) CreateActorOn(s graph.ServerID, h Handler, state interface{}) ActorID {
	id := c.nextActor
	c.nextActor++
	c.actors[id] = &actorRec{handler: h, state: state}
	c.assign.Place(id, s)
	return id
}

// DestroyActor deactivates an actor permanently; its monitored edges are
// forgotten (§4.3).
func (c *Cluster) DestroyActor(id ActorID) {
	if _, ok := c.actors[id]; !ok {
		return
	}
	if s, ok := c.assign.Server(id); ok {
		c.servers[s].monitor.ForgetVertex(id)
	}
	c.assign.Remove(id)
	delete(c.actors, id)
}

// NumActors reports live actors.
func (c *Cluster) NumActors() int { return len(c.actors) }

// ServerOf exposes actor placement (for tests and workload oracles).
func (c *Cluster) ServerOf(id ActorID) (graph.ServerID, bool) { return c.assign.Server(id) }

// ServerPopulation reports how many actors a server hosts.
func (c *Cluster) ServerPopulation(s graph.ServerID) int { return c.assign.Count(s) }

// ThreadAllocation reports the live per-stage thread counts of a server.
func (c *Cluster) ThreadAllocation(s graph.ServerID) [NumStages]int {
	return c.servers[s].threadAllocation()
}

// SetThreads pins a server's per-stage threads (used by the Fig. 5 sweep).
func (c *Cluster) SetThreads(s graph.ServerID, alloc [NumStages]int) {
	for i, n := range alloc {
		c.servers[s].stages[i].setThreads(n)
	}
}

func (c *Cluster) serverOf(id ActorID) (graph.ServerID, bool) {
	return c.assign.Server(id)
}

func (c *Cluster) actorState(id ActorID) interface{} {
	if rec := c.actors[id]; rec != nil {
		return rec.state
	}
	return nil
}

// ActorState returns the workload-defined state of an actor (nil when the
// actor does not exist).
func (c *Cluster) ActorState(id ActorID) interface{} { return c.actorState(id) }

// serviceDemand returns the mean CPU demand and blocking time of processing
// m at stage st.
func (c *Cluster) serviceDemand(st StageID, m *Message) (time.Duration, time.Duration) {
	switch st {
	case StageReceiver:
		return c.Cfg.DeserializeTime, 0
	case StageServerSender, StageClientSender:
		return c.Cfg.SerializeTime, 0
	default: // worker
		x := c.Cfg.WorkerTime
		if m.Kind == KindClientRequest {
			x += c.Cfg.ClientRequestExtra
		}
		return x, c.Cfg.WorkerBlocking
	}
}

// SubmitRequest injects one client request addressed to actor `to`; the
// cluster records its latency when the reply reaches the client.
func (c *Cluster) SubmitRequest(to ActorID, typ string, payload interface{}) {
	req := &Request{Start: c.K.Now()}
	c.Submitted++
	m := &Message{To: to, Kind: KindClientRequest, Type: typ, Payload: payload, Req: req, createdAt: c.K.Now()}
	c.K.After(networkHop, func() {
		c.accountNetwork(m)
		if s, ok := c.serverOf(to); ok {
			c.servers[s].stages[StageReceiver].enqueue(m)
		} else {
			c.reject(m)
		}
	})
}

// sendActorMessage routes an actor→actor call (Ctx.Send).
func (c *Cluster) sendActorMessage(from, to ActorID, typ string, payload interface{}, req *Request) {
	src, okS := c.serverOf(from)
	dst, okD := c.serverOf(to)
	m := &Message{From: from, To: to, Kind: KindActor, Type: typ, Payload: payload, Req: req, createdAt: c.K.Now()}
	if !okS || !okD {
		c.reject(m)
		return
	}
	c.totalWindow++
	c.servers[src].observeEdge(from, to)
	if src == dst {
		// LPC: deep-copied arguments, straight to the worker queue (Fig. 3
		// white path) — no serialization stages.
		m.Remote = false
		c.servers[dst].stages[StageWorker].enqueue(m)
		return
	}
	// RPC: serialize at the source, network, deserialize at the target.
	m.Remote = true
	c.remoteWindow++
	c.servers[dst].observeEdge(from, to)
	c.servers[src].stages[StageServerSender].enqueue(m)
}

// sendClientReply routes a reply to the external client (Ctx.ReplyToClient).
func (c *Cluster) sendClientReply(from ActorID, req *Request) {
	s, ok := c.serverOf(from)
	if !ok {
		if req != nil {
			req.done = true
		}
		return
	}
	m := &Message{From: from, Kind: KindClientReply, Req: req, createdAt: c.K.Now()}
	c.servers[s].stages[StageClientSender].enqueue(m)
}

// runHandler invokes the target actor's application logic.
func (c *Cluster) runHandler(s *server, m *Message) {
	rec := c.actors[m.To]
	if rec == nil || rec.handler == nil {
		c.reject(m)
		return
	}
	ctx := &Ctx{Cluster: c, Self: m.To, Now: c.K.Now()}
	rec.handler(ctx, m)
}

// reject terminates a message's client request (queue overflow, missing
// actor) — the saturation behavior of §6.1's throughput experiment.
func (c *Cluster) reject(m *Message) {
	if m.Req != nil && !m.Req.done {
		c.Rejected++
		m.Req.done = true
	}
}

func (c *Cluster) completeRequest(req *Request) {
	if req == nil || req.done {
		return
	}
	c.Completed++
	c.Latency.Record(time.Duration(c.K.Now() - req.Start))
	req.done = true
}

func (c *Cluster) recordActorDelivery(m *Message) {
	c.ActorCall.Record(time.Duration(c.K.Now() - m.createdAt))
}

// --- breakdown accounting (Fig. 4) ---

func (c *Cluster) accountQueueWait(st StageID, m *Message, wait time.Duration) {
	switch st {
	case StageReceiver:
		c.Breakdown.Add("Recv. queue", wait)
	case StageWorker:
		c.Breakdown.Add("Worker queue", wait)
	default:
		c.Breakdown.Add("Sender queue", wait)
	}
}

func (c *Cluster) accountProcessing(st StageID, m *Message, cpu, ready, blocked time.Duration) {
	switch st {
	case StageReceiver:
		c.Breakdown.Add("Recv. processing", cpu)
	case StageWorker:
		c.Breakdown.Add("Worker processing", cpu+blocked)
	default:
		c.Breakdown.Add("Sender processing", cpu)
	}
	c.Breakdown.Add("Other", ready)
}

func (c *Cluster) accountNetwork(m *Message) {
	c.Breakdown.Add("Network", networkHop)
}

// --- periodic stats ---

func (c *Cluster) sampleStats() {
	now := c.K.Now()
	var rf float64
	if c.totalWindow > 0 {
		rf = float64(c.remoteWindow) / float64(c.totalWindow)
	}
	c.RemoteSeries.Add(now, rf)
	c.remoteWindow, c.totalWindow = 0, 0

	perMin := float64(c.movesWindow) * float64(time.Minute) / float64(c.Cfg.StatsWindow)
	c.MoveSeries.Add(now, perMin)
	c.movesWindow = 0

	var util float64
	for _, s := range c.servers {
		util += s.utilizationSince(c.Cfg.StatsWindow)
	}
	c.CPUSeries.Add(now, util/float64(len(c.servers)))
}

// ResetMetrics clears measurement state after warm-up; controllers and
// placement keep their learned state.
func (c *Cluster) ResetMetrics() {
	c.Latency.Reset()
	c.ActorCall.Reset()
	c.Breakdown = newBreakdown()
	c.RemoteSeries = metrics.TimeSeries{Name: c.RemoteSeries.Name}
	c.MoveSeries = metrics.TimeSeries{Name: c.MoveSeries.Name}
	c.CPUSeries = metrics.TimeSeries{Name: c.CPUSeries.Name}
	c.Submitted, c.Completed, c.Rejected = 0, 0, 0
	c.remoteWindow, c.totalWindow, c.movesWindow = 0, 0, 0
	for _, s := range c.servers {
		s.cpuBusyWindow = 0
	}
}

// moved counts n migrations in the totals and the current stats window.
func (c *Cluster) moved(n int) {
	c.Moves += n
	c.movesWindow += n
}

// MoveActor relocates an actor explicitly (used by the §3 oracle-placement
// baseline and by tests). It moves like any exchange migration: the
// placement directory is updated and the actor's edge statistics travel with
// it; in-flight messages re-resolve the directory on arrival.
func (c *Cluster) MoveActor(v ActorID, to graph.ServerID) {
	from, ok := c.assign.Server(v)
	if !ok || from == to {
		return
	}
	c.part.Move(v, from, to)
	c.moved(1)
}

// MeanCPUUtilization reports the steady-state mean of the CPU series after
// the given warm-up cut.
func (c *Cluster) MeanCPUUtilization(after time.Duration) float64 {
	return c.CPUSeries.MeanAfter(after)
}

// String summarizes cluster counters.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{servers=%d actors=%d submitted=%d completed=%d rejected=%d moves=%d}",
		len(c.servers), len(c.actors), c.Submitted, c.Completed, c.Rejected, c.Moves)
}
