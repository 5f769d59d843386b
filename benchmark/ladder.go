package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/graph"
	"actop/internal/hotspot"
	"actop/internal/metrics"
	"actop/internal/partition"
	"actop/internal/queuing"
	"actop/internal/sampling"
	"actop/internal/seda"
	"actop/internal/transport"
)

// The ladder: one probe per layer, fixed iteration counts, timed from
// outside through the layer's public API on the workload's own messages.
// The rungs follow ROADMAP aim 1 — codec → transport → seda stage → local
// call → remote call — so the gap between a wire send and a remote call
// can be attributed to named layers. The probes run before any cluster
// starts, on an otherwise idle process, so the allocation counts are the
// probed code's own.

// probe runs fn n times and reports the mean time and heap allocations of
// one run.
func probe(n int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// ladder runs every probe and returns the metrics by name.
func ladder(seed uint64, pad []byte) (map[string]float64, error) {
	m := make(map[string]float64)
	ladderCodec(m, pad)
	if err := ladderTransport(m, pad); err != nil {
		return nil, err
	}
	ladderSeda(m)
	if err := ladderActor(m, seed, pad); err != nil {
		return nil, err
	}
	ladderControl(m, seed)
	return m, nil
}

// ladderCodec times the three things the message plane does to a beat —
// the message every workload sends most.
func ladderCodec(m map[string]float64, pad []byte) {
	const n = 200000
	var msg interface{} = beatMsg{Seq: 1, Pad: pad} // boxed once, as a call's args are
	m["codec.marshal_ns"], m["codec.marshal_allocs"] = probe(n, func() {
		buf, _ := codec.MarshalAppend(codec.GetBuffer(), msg)
		codec.PutBuffer(buf)
	})
	data, _ := codec.Marshal(msg)
	m["codec.unmarshal_ns"], m["codec.unmarshal_allocs"] = probe(n, func() {
		var out beatMsg
		_ = codec.Unmarshal(data, &out)
	})
	m["codec.copy_ns"], m["codec.copy_allocs"] = probe(n, func() {
		sink = msg.(codec.Copier).CopyValue()
	})
}

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink interface{}

// beatEnvelope is a beat call as the actor layer hands it to the transport.
func beatEnvelope(payload []byte) *transport.Envelope {
	return &transport.Envelope{
		Kind: transport.KindCall, ID: 1,
		ActorType: kindPresence, ActorKey: "1234", Method: mBeat, Payload: payload,
	}
}

func ladderTransport(m map[string]float64, pad []byte) error {
	payload, _ := codec.Marshal(beatMsg{Seq: 1, Pad: pad})

	// Frame size: send one beat to a plain socket and read its length prefix.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("benchmark: ladder listen: %w", err)
	}
	defer l.Close()
	frame := make(chan float64, 1)
	go func() {
		var hdr [4]byte
		conn, err := l.Accept()
		if err != nil {
			frame <- 0
			return
		}
		defer conn.Close()
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			frame <- 0
			return
		}
		frame <- float64(len(hdr)) + float64(binary.BigEndian.Uint32(hdr[:]))
	}()
	src, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("benchmark: ladder listen: %w", err)
	}
	defer src.Close()
	if err := src.Send(transport.NodeID(l.Addr().String()), beatEnvelope(payload)); err != nil {
		return fmt.Errorf("benchmark: ladder frame probe: %w", err)
	}
	select {
	case m["codec.frame_bytes"] = <-frame:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("benchmark: ladder frame probe: nothing arrived")
	}

	// One-way blast a → b, then sequential ping-pong.
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("benchmark: ladder listen: %w", err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("benchmark: ladder listen: %w", err)
	}
	defer b.Close()
	const blast = 300000
	var delivered atomic.Int64
	all := make(chan struct{})
	pong := make(chan struct{}, 1)
	b.SetHandler(func(env *transport.Envelope) {
		if env.Kind == transport.KindControl { // ping: answer it
			_ = b.Send(env.From, &transport.Envelope{Kind: transport.KindReply, ID: env.ID})
			return
		}
		if delivered.Add(1) == blast {
			close(all)
		}
	})
	a.SetHandler(func(*transport.Envelope) { pong <- struct{}{} })
	env := beatEnvelope(payload)
	start := time.Now()
	m["transport.send_ns"], m["transport.send_allocs"] = probe(blast, func() { _ = a.Send(b.Node(), env) })
	select {
	case <-all:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("benchmark: ladder: %d of %d envelopes delivered", delivered.Load(), blast)
	}
	m["transport.msgs_per_s"] = blast / time.Since(start).Seconds()

	ping := &transport.Envelope{Kind: transport.KindControl, ID: 1}
	rtt, _ := probe(20000, func() {
		_ = a.Send(b.Node(), ping)
		<-pong
	})
	m["transport.rtt_us"] = rtt / 1e3
	return nil
}

// ladderSeda times one hand-off through a stage: submit, queue, worker,
// back.
func ladderSeda(m map[string]float64) {
	st := seda.NewStage("probe", 1024, 1)
	defer st.Close()
	ran := make(chan struct{}, 1)
	task := func() { ran <- struct{}{} }
	m["seda.hop_ns"], m["seda.submit_allocs"] = probe(200000, func() {
		_ = st.Submit(task)
		<-ran
	})
}

// ladderActor times calls through real nodes over loopback TCP: a
// co-located call (value path), a cross-node call (binary path), the first
// call to a new key (directory placement plus activation) and a migration.
func ladderActor(m map[string]float64, seed uint64, pad []byte) error {
	w := workload{name: "ladder", placement: actor.PlaceRandom, workers: 64}
	lc, err := startCluster(&w, clusterOpts{seed: seed})
	if err != nil {
		return err
	}
	defer lc.stop()
	a, b := lc.nodes[0], lc.nodes[1]

	// First calls: fresh keys, random placement, timed one by one.
	const opens = 2000
	keys := newKeyTable(opens)
	var callErr error
	call := func(sys *actor.System, key, method string) {
		var out ack
		if err := sys.Call(actor.Ref{Type: kindSession, Key: key}, method, beatMsg{Seq: 1, Pad: pad}, &out); err != nil && callErr == nil {
			callErr = err
		}
	}
	i := 0
	first, _ := probe(opens, func() { call(a, keys[i], mOpen); i++ })
	m["actor.first_call_us"] = first / 1e3

	// One record on node a and one across the wire, both called from a.
	var onA, onB []string
	for _, k := range keys {
		if a.HostsActor(actor.Ref{Type: kindSession, Key: k}) {
			onA = append(onA, k)
		} else if b.HostsActor(actor.Ref{Type: kindSession, Key: k}) {
			onB = append(onB, k)
		}
	}
	if len(onA) == 0 || len(onB) == 0 {
		return fmt.Errorf("benchmark: ladder: placement put %d records on node a and %d on node b", len(onA), len(onB))
	}
	m["actor.local_call_ns"], m["actor.local_call_allocs"] = probe(100000, func() { call(a, onA[0], mBeat) })
	remote, remoteAllocs := probe(20000, func() { call(a, onB[0], mBeat) })
	m["actor.remote_call_us"], m["actor.remote_call_allocs"] = remote/1e3, remoteAllocs

	// Migrations a → b of records that hold a counter and a pad.
	i = 1
	mig, _ := probe(min(len(onA)-1, 200), func() {
		if err := a.Migrate(actor.Ref{Type: kindSession, Key: onA[i]}, b.Node()); err != nil && callErr == nil {
			callErr = err
		}
		i++
	})
	m["actor.migrate_us"] = mig / 1e3
	return callErr
}

// ladderControl times the parts of the two control loops that run off the
// call path: the edge sketch, one exchange decision and the partition
// quality it reaches on a graph of the presence shape, the Theorem 2 solve,
// and the two observability recorders that sit on the call path.
func ladderControl(m map[string]float64, seed uint64) {
	ss := sampling.NewSpaceSaving[uint64](4096)
	var k uint64
	m["sampling.observe_ns"], _ = probe(1000000, func() { ss.Observe(k%8192, 1); k += 2654435761 })

	// The presence graph: each game talks to its eight members and to its
	// eight consoles, once per status.
	g := graph.New()
	vertex := func(kind string, i int) graph.Vertex { return actor.Ref{Type: kind, Key: fmt.Sprint(i)}.Vertex() }
	for gi := 0; gi < defaultGames; gi++ {
		for i := 0; i < membersPerGame; i++ {
			g.AddEdge(vertex(kindGame, gi), vertex(kindPresence, gi*membersPerGame+i), 1)
			g.AddEdge(vertex(kindConsole, gi*membersPerGame+i), vertex(kindGame, gi), 1)
		}
	}
	servers := []graph.ServerID{0, 1, 2}
	random := func() *graph.Assignment {
		r := subStream(seed, streamChurn, 1)
		a := graph.NewAssignment(servers...)
		for _, v := range g.Vertices() { // ascending, so the seed decides the assignment
			a.Place(v, servers[r.intn(len(servers))])
		}
		return a
	}
	opts := partition.DefaultOptions()
	assign := random()
	view := partition.GraphView{G: g}
	decide, _ := probe(5, func() {
		local := assign.VerticesOn(0)
		props := partition.SelectCandidates(opts, view, assign, 0, local, len(local))
		if len(props) == 0 {
			return
		}
		q := props[0].To
		qv := assign.VerticesOn(q)
		sink = partition.DecideExchange(opts, view, assign, partition.ExchangeRequest{
			From: 0, To: q, Candidates: props[0].Candidates, FromPopulation: props[0].FromPopulation,
		}, qv, len(qv))
	})
	m["partition.decide_ms"] = decide / 1e6
	eng := partition.NewEngine(opts, g, random(), int64(seed))
	eng.RunToConvergence(200)
	m["partition.engine_cut_fraction"] = graph.RemoteFraction(g, eng.Assign)
	ml := partition.MultilevelPartition(g, servers, partition.MultilevelOptions{ImbalanceTolerance: opts.ImbalanceTolerance})
	m["partition.multilevel_cut_fraction"] = graph.RemoteFraction(g, ml)

	model := queuing.Model{
		Processors: float64(runtime.NumCPU()) * 1.6, Eta: 100e-6,
		Stages: []queuing.Stage{
			{Name: "receiver", Lambda: 20000, ServiceRate: 100000, Beta: 1},
			{Name: "worker", Lambda: 20000, ServiceRate: 50000, Beta: 1},
			{Name: "sender", Lambda: 20000, ServiceRate: 100000, Beta: 1},
		},
	}
	m["queuing.solve_ns"], _ = probe(20000, func() { sink, _ = queuing.Solve(&model) })

	fam := metrics.NewRegistry().Summary("probe_seconds", "ladder probe", "method")
	m["metrics.record_ns"], _ = probe(1000000, func() { fam.Observe(37*time.Microsecond, mBeat) })

	prof := hotspot.New(512)
	var h uint64
	m["hotspot.observe_ns"], _ = probe(500000, func() {
		prof.ObserveTurns(h%4096, kindPresence, "1234", 16, 16000, 4000, 1024)
		h += 2654435761
	})
}
