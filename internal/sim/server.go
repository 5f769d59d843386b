package sim

import (
	"time"

	"actop/internal/estimator"
	"actop/internal/graph"
	"actop/internal/partition"
	"actop/internal/queuing"
)

// server is one simulated machine: four SEDA stages, a finite-core CPU, a
// partition monitor and a thread-allocation estimator.
type server struct {
	c  *Cluster
	id graph.ServerID

	stages [NumStages]*stage

	monitor *partition.Monitor
	est     *estimator.Estimator

	cpuBusy       time.Duration // lifetime core-time integral
	cpuBusyWindow time.Duration

	monitorSkip int
}

func newServer(c *Cluster, id graph.ServerID) *server {
	s := &server{c: c, id: id}
	for i := range s.stages {
		s.stages[i] = &stage{srv: s, id: StageID(i), threads: c.Cfg.InitialThreads[i]}
	}
	s.monitor = c.part.Monitors[id]
	if c.Cfg.ThreadTuning {
		est, err := estimator.New([]estimator.StageSpec{
			{Name: StageNames[StageReceiver], NonBlocking: true},
			{Name: StageNames[StageWorker], NonBlocking: c.Cfg.WorkerBlocking == 0},
			{Name: StageNames[StageServerSender], NonBlocking: true},
			{Name: StageNames[StageClientSender], NonBlocking: true},
		})
		if err == nil {
			s.est = est
		}
	}
	return s
}

// observeEdge feeds the monitor, honoring the sampling rate.
func (s *server) observeEdge(from, to ActorID) {
	rate := s.c.Cfg.MonitorSampleRate
	if rate <= 1 {
		s.monitor.ObserveMessage(from, to, 1)
		return
	}
	s.monitorSkip++
	if s.monitorSkip >= rate {
		s.monitorSkip = 0
		s.monitor.ObserveMessage(from, to, uint64(rate))
	}
}

// complete advances a message to its next pipeline step after a stage
// finished processing it (the continuations of Fig. 3).
func (s *server) complete(st StageID, m *Message) {
	c := s.c
	switch st {
	case StageReceiver:
		// Deserialized: hand to application logic.
		s.stages[StageWorker].enqueue(m)
	case StageWorker:
		// Application logic ran: invoke the handler's side effects, then
		// deliver latency accounting for actor calls.
		if m.Kind == KindActor {
			c.recordActorDelivery(m)
		}
		c.runHandler(s, m)
	case StageServerSender:
		// Serialized RPC: cross the network to the destination server.
		if _, ok := c.serverOf(m.To); !ok {
			c.reject(m)
			return
		}
		c.K.After(networkHop, func() {
			// Re-resolve on arrival: the actor may have migrated while the
			// message was in flight.
			if cur, ok := c.serverOf(m.To); ok {
				c.servers[cur].stages[StageReceiver].enqueue(m)
			} else {
				c.reject(m)
			}
		})
	case StageClientSender:
		// Serialized reply: network back to the frontend.
		c.K.After(networkHop, func() {
			c.completeRequest(m.Req)
		})
	}
}

// threadAllocation snapshots the current per-stage thread counts.
func (s *server) threadAllocation() [NumStages]int {
	var out [NumStages]int
	for i, st := range s.stages {
		out[i] = st.threads
	}
	return out
}

// retune runs one §5 control cycle: estimate parameters over the elapsed
// period, solve (∗), install the integer allocation.
func (s *server) retune(period time.Duration) {
	if s.est == nil {
		return
	}
	stages := s.est.Estimate(period)
	m := &queuing.Model{Stages: stages, Processors: serverCores * threadBudgetFactor, Eta: modelEta}
	sol, err := queuing.Solve(m)
	if err != nil {
		return // infeasible or degenerate epoch: keep the current allocation
	}
	for i, n := range sol.Integer {
		s.stages[i].setThreads(n)
	}
	s.c.Retunes++
}
