package sim

import "time"

// stage is one SEDA stage of a simulated server: a FIFO event queue drained
// by a bounded pool of threads, with per-event instrumentation feeding the
// Fig. 4 breakdown and the §5.4 estimator.
type stage struct {
	srv *server
	id  StageID

	threads int
	busy    int

	queue []*Message
	head  int

	// instrumentation (lifetime totals)
	processed   uint64
	dropped     uint64
	queueWait   time.Duration
	procWall    time.Duration
	procCPU     time.Duration
	readyTime   time.Duration
	blockedTime time.Duration
}

func (st *stage) queueLen() int { return len(st.queue) - st.head }

// enqueue admits a message to the stage, starting service immediately when a
// thread is free. A full queue rejects the message's client request.
func (st *stage) enqueue(m *Message) {
	m.enqueued = st.srv.c.K.Now()
	if st.srv.c.Cfg.QueueCap > 0 && st.queueLen() >= st.srv.c.Cfg.QueueCap {
		st.dropped++
		st.srv.c.reject(m)
		return
	}
	if st.busy < st.threads {
		st.startService(m)
		return
	}
	st.queue = append(st.queue, m)
}

// dispatch starts service on queued messages while threads are free.
func (st *stage) dispatch() {
	for st.busy < st.threads && st.head < len(st.queue) {
		m := st.queue[st.head]
		st.queue[st.head] = nil
		st.head++
		st.startService(m)
	}
	// Compact the drained prefix occasionally.
	if st.head > 1024 && st.head*2 > len(st.queue) {
		n := copy(st.queue, st.queue[st.head:])
		st.queue = st.queue[:n]
		st.head = 0
	}
}

// startService models one thread processing one event:
//
//	xEff = Exp(mean demand) · (1 + csw·(threads beyond cores))  — CPU burned
//	f    = max(1, server CPU demand / cores)                     — contention
//	wall = xEff·f + w                                            — z of Fig. 9
//
// The ready time r = xEff·(f−1) is the "Other/OS queuing" component of the
// Fig. 4 breakdown; w is synchronous blocking (§5.2).
func (st *stage) startService(m *Message) {
	c := st.srv.c
	now := c.K.Now()
	wait := now - m.enqueued
	st.queueWait += wait
	c.accountQueueWait(st.id, m, wait)

	st.busy++
	x, w := c.serviceDemand(st.id, m)
	xEff := time.Duration(float64(c.rng.Exp(x)) * st.srv.overheadFactor())
	if xEff <= 0 {
		xEff = time.Nanosecond
	}
	f := st.srv.contentionFactor()
	ready := time.Duration(float64(xEff) * (f - 1))
	wall := time.Duration(float64(xEff)*f) + w

	st.srv.cpuBusy += xEff
	st.srv.cpuBusyWindow += xEff

	c.K.After(wall, func() {
		st.busy--
		st.processed++
		st.procWall += wall
		st.procCPU += xEff
		st.readyTime += ready
		st.blockedTime += w
		c.accountProcessing(st.id, m, xEff, ready, w)
		if st.srv.est != nil {
			st.srv.est.Record(int(st.id), wall, xEff)
		}
		st.dispatch()
		st.srv.complete(st.id, m)
	})
}

// setThreads resizes the pool. Growth drains the queue immediately; shrink
// lets running threads finish (busy may transiently exceed threads).
func (st *stage) setThreads(n int) {
	if n < 1 {
		n = 1
	}
	st.threads = n
	st.dispatch()
}

// overheadFactor is the context-switch inflation for the server's current
// total thread count.
func (s *server) overheadFactor() float64 {
	total := 0
	for _, st := range s.stages {
		total += st.threads
	}
	extra := total - serverCores
	if extra < 0 {
		extra = 0
	}
	return 1 + s.c.Cfg.ContextSwitchOverhead*float64(extra)
}

// contentionFactor is the processor-sharing slowdown: when the CPU demand of
// currently busy threads exceeds the core count, every on-CPU event
// stretches proportionally.
func (s *server) contentionFactor() float64 {
	var demand float64
	for id, st := range s.stages {
		demand += float64(st.busy) * s.stageBeta(StageID(id))
	}
	f := demand / float64(serverCores)
	if f < 1 {
		return 1
	}
	return f
}

// stageBeta is the average CPU fraction per busy thread of a stage.
func (s *server) stageBeta(id StageID) float64 {
	if id != StageWorker {
		return 1
	}
	x := s.c.Cfg.WorkerTime
	w := s.c.Cfg.WorkerBlocking
	if x+w <= 0 {
		return 1
	}
	return float64(x) / float64(x+w)
}

// utilizationSince reports mean CPU utilization over the window and resets
// the window integral.
func (s *server) utilizationSince(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	u := float64(s.cpuBusyWindow) / (float64(serverCores) * float64(window))
	s.cpuBusyWindow = 0
	return u
}
