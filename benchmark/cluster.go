package main

import (
	"fmt"
	"sync"
	"time"

	"actop/internal/actor"
	"actop/internal/core"
	"actop/internal/metrics"
	"actop/internal/partition"
	"actop/internal/transport"
)

// cluster is three actor nodes in this process, joined over loopback TCP:
// every cross-node leg pays the real codec, framing, socket and stage
// costs, and no byte leaves the host.
type cluster struct {
	w     *workload
	app   *app
	trs   []*transport.TCP
	nodes []*actor.System
	opts  []*core.Optimizer
	regs  []*metrics.Registry // per node; nil unless counting layers
}

// clusterOpts are the parts of a cluster's configuration that depend on
// what the run is for rather than on the workload.
type clusterOpts struct {
	seed     uint64
	period   time.Duration // exchange period and reject windows (partitioning workloads)
	registry bool          // give every node a metrics.Registry (layer counts)
	traced   bool          // runtime TraceSampleRate 1 and a span recorder
	spanCap  int           // recorder capacity when traced
}

func startCluster(w *workload, o clusterOpts) (*cluster, error) {
	c := &cluster{w: w, app: &app{nodes: make(map[transport.NodeID]uint8, nodes)}}
	peers := make([]transport.NodeID, nodes)
	for i := 0; i < nodes; i++ {
		tr, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("benchmark: listen: %w", err)
		}
		c.trs = append(c.trs, tr)
		peers[i] = tr.Node()
		c.app.nodes[tr.Node()] = uint8(i)
	}
	if o.traced {
		c.app.rec = newRecorder(o.spanCap)
	}
	for i, tr := range c.trs {
		cfg := actor.Config{
			Transport: tr, Peers: peers,
			Placement:            w.placement,
			Workers:              w.workers,
			LocCacheSize:         w.locCache,
			DisableThreadControl: !w.threadTuning,
			ExchangeRejectWindow: o.period,
			Seed:                 int64(o.seed),
		}
		if o.traced {
			cfg.TraceSampleRate = 1
			cfg.TraceRingSize = 1 << 16
		}
		if o.registry {
			reg := metrics.NewRegistry()
			c.regs = append(c.regs, reg)
			cfg.Metrics = reg
		}
		sys, err := actor.NewSystem(cfg)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("benchmark: node %d: %w", i, err)
		}
		c.app.register(sys)
		c.nodes = append(c.nodes, sys)
	}
	return c, nil
}

// startOptimizers attaches one core.Optimizer per node, with only the
// mechanism the workload exercises switched on. The call-tree workloads
// keep thread tuning off: with eight clients the controller shrinks the
// pools to 1/1/1 and every status times out (README, known defect).
func (c *cluster) startOptimizers(period time.Duration) {
	if !c.w.partitioning && !c.w.threadTuning {
		return
	}
	for _, sys := range c.nodes {
		o := core.DefaultOptions()
		o.Partitioning = c.w.partitioning
		o.PartitionPeriod = period
		o.RejectWindow = period
		o.PartitionOpts = partition.DefaultOptions()
		o.ThreadTuning = c.w.threadTuning
		o.ThreadPeriod = time.Second
		opt := core.NewOptimizer(sys, o)
		opt.Start()
		c.opts = append(c.opts, opt)
	}
}

func (c *cluster) stop() {
	for _, o := range c.opts {
		o.Stop()
	}
	for _, sys := range c.nodes {
		sys.Stop()
	}
	// A transport whose node never started still holds its listener.
	for _, tr := range c.trs[len(c.nodes):] {
		tr.Close()
	}
}

// populateWorkers is how many goroutines set a population up; the calls are
// independent, and eight keep three nodes busy without queueing.
const populateWorkers = 8

// populate activates the whole population: every presence record and
// console, every game with its member list, or every initial session. On a
// hostEntry workload each game's tree is created through its host node,
// members first, so PlaceLocal puts the whole tree there.
func (c *cluster) populate(topo *topology, keys keyTable, pad []byte) error {
	w := c.w
	units := w.games
	if w.sessions > 0 {
		units = w.sessions
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	for p := 0; p < populateWorkers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for u := p; u < units; u += populateWorkers {
				var err error
				if w.sessions > 0 {
					err = c.openSession(u, u%nodes, keys, pad)
				} else {
					err = c.populateGame(u, topo.members[u], keys, pad)
				}
				if err != nil {
					fail(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	return first
}

func (c *cluster) openSession(idx, node int, keys keyTable, pad []byte) error {
	var out ack
	return c.nodes[node].Call(actor.Ref{Type: kindSession, Key: keys.key(idx)}, mOpen, beatMsg{Pad: pad}, &out)
}

func (c *cluster) populateGame(g int, members []uint64, keys keyTable, pad []byte) error {
	entry := g % nodes
	if c.w.hostEntry {
		entry = hostNode(g)
	}
	sys := c.nodes[entry]
	var out ack
	for _, id := range members {
		if err := sys.Call(actor.Ref{Type: kindPresence, Key: keys.key(int(id))}, mOpen, beatMsg{Pad: pad}, &out); err != nil {
			return err
		}
	}
	if err := c.setMembers(g, members, entry, keys); err != nil {
		return err
	}
	// A console's first status activates it and walks its game's tree once.
	for i := 0; i < membersPerGame; i++ {
		var r roster
		if err := sys.Call(actor.Ref{Type: kindConsole, Key: keys.key(g*membersPerGame + i)}, mStatus, statusReq{}, &r); err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) setMembers(g int, members []uint64, node int, keys keyTable) error {
	var out ack
	msg := membersMsg{Members: append([]uint64(nil), members...)}
	return c.nodes[node].Call(actor.Ref{Type: kindGame, Key: keys.key(g)}, mSetMembers, msg, &out)
}
