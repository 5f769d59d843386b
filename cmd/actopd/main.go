// Command actopd runs one node of the ActOp actor runtime over TCP, with a
// built-in demo actor type ("kv": Get/Put/Del) so a multi-machine cluster
// can be driven by hand.
//
// Start a three-node cluster (any hosts; here one machine):
//
//	actopd -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	actopd -listen 127.0.0.1:7002 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	actopd -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//
// Exercise it with -call, a one-shot client that is not a member: it lists
// the servers in -peers but not its own -listen address, so it hosts no
// actor and owns no directory range (the paper's frontend):
//
//	actopd -listen 127.0.0.1:7101 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -call kv/user42 -method Put -value hello
//
// Give each client its own -listen address, and the servers'
// -heartbeat-interval so that it routes around a dead server in time.
//
// ActOp (partitioning + thread tuning) runs on every long-lived node;
// counters are logged once per -stats interval.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/core"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// kvActor is the built-in demo type: a tiny per-key store.
type kvActor struct{ Value string }

func (k *kvActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Put":
		var v string
		if err := codec.Unmarshal(args, &v); err != nil {
			return nil, err
		}
		k.Value = v
		return nil, nil
	case "Get":
		return codec.Marshal(k.Value)
	case "Del":
		k.Value = ""
		return nil, nil
	}
	return nil, fmt.Errorf("kv: unknown method %q", method)
}

func (k *kvActor) Snapshot() ([]byte, error) { return codec.Marshal(k.Value) }
func (k *kvActor) Restore(b []byte) error    { return codec.Unmarshal(b, &k.Value) }

// DurableActor opts kv into snapshot replication when the node runs with
// -durable-replicas > 0 (with 0 replicas the marker is inert).
func (k *kvActor) DurableActor() {}

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7001", "listen address (also the node id)")
		peersStr = flag.String("peers", "", "comma-separated server addresses (a server adds its own; a -call client is not one)")
		noActOp  = flag.Bool("no-actop", false, "disable the ActOp optimizer")
		noTune   = flag.Bool("no-thread-control", false, "keep partitioning but disable the live thread controller")
		tuneIvl  = flag.Duration("thread-interval", 0, "thread controller period (0 = optimizer default)")
		hbIvl    = flag.Duration("heartbeat-interval", time.Second, "failure detector ping period (and per-ping timeout)")
		suspect  = flag.Int("suspect-after", 2, "consecutive missed heartbeats before a peer is suspect")
		deadAft  = flag.Int("dead-after", 5, "consecutive missed heartbeats before a peer is declared dead")
		durRepl  = flag.Int("durable-replicas", 0, "peer replicas per durable actor snapshot (0 disables durability)")
		snapIvl  = flag.Duration("snapshot-interval", 0, "age after which a dirty durable actor captures at its next turn; an actor with no next turn is never captured (0 = runtime default)")
		debug    = flag.String("debug", "", "serve /debug/actop, /metrics + pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		sample   = flag.Float64("trace-sample", 0.01, "fraction of root calls traced for /debug/actop/traces (0 disables)")
		noHot    = flag.Bool("no-hotspots", false, "disable the per-actor hot-spot profiler")
		sloTgt   = flag.Duration("slo", 0, "p99 call-latency SLO; breaches trigger a flight dump (0 disables)")
		stats    = flag.Duration("stats", 10*time.Second, "stats logging period")
		call     = flag.String("call", "", "one-shot: call type/key instead of serving")
		method   = flag.String("method", "Get", "one-shot method")
		value    = flag.String("value", "", "one-shot Put value")
	)
	flag.Parse()

	tr, err := transport.ListenTCP(*listen)
	if err != nil {
		log.Fatal(err)
	}
	var peers []transport.NodeID
	for _, p := range strings.Split(*peersStr, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, transport.NodeID(p))
		}
	}
	if *call == "" {
		peers = append(peers, tr.Node())
	}
	seen := map[transport.NodeID]bool{}
	uniq := peers[:0]
	for _, p := range peers {
		if !seen[p] {
			seen[p] = true
			uniq = append(uniq, p)
		}
	}
	reg := metrics.NewRegistry()
	started := time.Now()
	uptime := reg.Gauge("actop_uptime_seconds", "Seconds since this node started.")
	reg.OnCollect(func(*metrics.Registry) { uptime.Set(time.Since(started).Seconds()) })
	metrics.RegisterRuntimeGauges(reg)
	sys, err := actor.NewSystem(actor.Config{
		Transport: tr, Peers: uniq, Seed: time.Now().UnixNano(),
		DisableThreadControl: *noTune,
		HeartbeatInterval:    *hbIvl,
		SuspectAfter:         *suspect,
		DeadAfter:            *deadAft,
		DurableReplicas:      *durRepl,
		SnapshotInterval:     *snapIvl,
		TraceSampleRate:      *sample,
		DisableHotspots:      *noHot,
		SLOTarget:            *sloTgt,
		Metrics:              reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.RegisterType("kv", func() actor.Actor { return &kvActor{} })
	defer sys.Stop()

	if *call != "" {
		parts := strings.SplitN(*call, "/", 2)
		if len(parts) != 2 {
			log.Fatalf("-call wants type/key, got %q", *call)
		}
		ref := actor.Ref{Type: parts[0], Key: parts[1]}
		switch *method {
		case "Put":
			if err := sys.Call(ref, "Put", *value, nil); err != nil {
				log.Fatal(err)
			}
			fmt.Println("ok")
		default:
			var out string
			if err := sys.Call(ref, *method, nil, &out); err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		}
		return
	}

	var opt *core.Optimizer
	if !*noActOp {
		opts := core.DefaultOptions()
		if *tuneIvl > 0 {
			opts.ThreadPeriod = *tuneIvl
		}
		opt = core.NewOptimizer(sys, opts)
		opt.Start()
		defer opt.Stop()
	}
	if *debug != "" {
		serveDebug(*debug, sys, opt, reg)
	}
	log.Printf("actopd serving on %s with %d peers (actop=%v)", tr.Node(), len(uniq), !*noActOp)

	tick := time.NewTicker(*stats)
	defer tick.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for {
		select {
		case <-tick.C:
			st := sys.Stats()
			recv, work, send := sys.Stages()
			log.Printf("activations=%d calls(l/r)=%d/%d migrations(in/out)=%d/%d threads=%d/%d/%d edges=%d",
				st.Activations, st.CallsLocal, st.CallsRemote,
				st.MigrationsIn, st.MigrationsOut,
				recv.Workers(), work.Workers(), send.Workers(), st.MonitoredEdges)
		case <-sig:
			log.Print("shutting down")
			return
		}
	}
}
