package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/transport"
)

// groupActor is a hub that members message; heavy hub↔member traffic should
// make the optimizer co-locate each group.
type groupActor struct{ Hits int }

func (g *groupActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Ping":
		g.Hits++
		return nil, nil
	case "CallHub":
		var hubKey string
		if err := codec.Unmarshal(args, &hubKey); err != nil {
			return nil, err
		}
		return nil, ctx.Call(actor.Ref{Type: "group", Key: hubKey}, "Ping", "x", nil)
	}
	return nil, fmt.Errorf("no method %q", method)
}

func (g *groupActor) Snapshot() ([]byte, error) { return codec.Marshal(g.Hits) }
func (g *groupActor) Restore(b []byte) error    { return codec.Unmarshal(b, &g.Hits) }

func newCluster(t *testing.T, n int) []*actor.System {
	t.Helper()
	net := transport.NewNetwork(0)
	peers := make([]transport.NodeID, n)
	trs := make([]transport.Transport, n)
	for i := range peers {
		peers[i] = transport.NodeID(fmt.Sprintf("node-%d", i))
		trs[i] = net.Join(peers[i])
	}
	out := make([]*actor.System, n)
	for i := range out {
		// Workers must exceed the number of concurrently *blocked* outbound
		// calls (ctx.Call holds its worker, like synchronous RPC threads):
		// 8 driver goroutines × 2 nested call levels ⇒ 16 is safe.
		sys, err := actor.NewSystem(actor.Config{
			Transport: trs[i], Peers: peers, Seed: int64(i + 1),
			Workers:              16,
			CallTimeout:          3 * time.Second,
			ExchangeRejectWindow: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		recv, _, send := sys.Stages()
		recv.SetWorkers(4)
		send.SetWorkers(4)
		sys.RegisterType("group", func() actor.Actor { return &groupActor{} })
		out[i] = sys
		t.Cleanup(sys.Stop)
	}
	return out
}

func TestOptimizerColocatesGroups(t *testing.T) {
	sys := newCluster(t, 2)

	// 8 groups of 4 members + hub. Activate hubs and members by traffic.
	const groups, members = 8, 4
	drive := func(rounds int) {
		var wg sync.WaitGroup
		for g := 0; g < groups; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				hub := fmt.Sprintf("hub-%d", g)
				for r := 0; r < rounds; r++ {
					for m := 0; m < members; m++ {
						ref := actor.Ref{Type: "group", Key: fmt.Sprintf("m-%d-%d", g, m)}
						_ = sys[g%2].Call(ref, "CallHub", hub, nil)
					}
				}
			}(g)
		}
		wg.Wait()
	}
	drive(20)

	// Count cross-node hub↔member splits before optimization.
	splits := func() int {
		n := 0
		for g := 0; g < groups; g++ {
			hub := actor.Ref{Type: "group", Key: fmt.Sprintf("hub-%d", g)}
			hubOn0 := sys[0].HostsActor(hub)
			for m := 0; m < members; m++ {
				ref := actor.Ref{Type: "group", Key: fmt.Sprintf("m-%d-%d", g, m)}
				if sys[0].HostsActor(ref) != hubOn0 {
					n++
				}
			}
		}
		return n
	}
	before := splits()
	if before == 0 {
		t.Skip("random placement happened to co-locate everything; nothing to optimize")
	}

	opts := DefaultOptions()
	opts.ThreadTuning = false
	opts.PartitionPeriod = 50 * time.Millisecond
	opts.RejectWindow = 100 * time.Millisecond
	opts.PartitionOpts.ImbalanceTolerance = 10
	optimizers := make([]*Optimizer, len(sys))
	for i, s := range sys {
		optimizers[i] = NewOptimizer(s, opts)
		optimizers[i].Start()
		defer optimizers[i].Stop()
	}

	deadline := time.After(15 * time.Second)
	for splits() > before/2 {
		select {
		case <-deadline:
			t.Fatalf("splits did not halve: %d → %d", before, splits())
		default:
			drive(2) // keep traffic flowing so monitors stay fresh
		}
	}
	var moved int
	for _, o := range optimizers {
		_, m, _ := o.Counters()
		moved += m
	}
	if moved == 0 {
		t.Error("optimizer reported no migrations despite improvement")
	}
}

func TestOptimizerRetuneResizesStages(t *testing.T) {
	sys := newCluster(t, 1)

	// Generate measurable single-node load.
	for i := 0; i < 500; i++ {
		ref := actor.Ref{Type: "group", Key: fmt.Sprintf("solo-%d", i%20)}
		if err := sys[0].Call(ref, "Ping", "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	opts := DefaultOptions()
	opts.Partitioning = false
	opts.ThreadPeriod = time.Second
	o := NewOptimizer(sys[0], opts)
	o.Retune()
	_, _, retunes := o.Counters()
	if retunes != 1 {
		t.Fatalf("retunes = %d", retunes)
	}
	recv, work, send := sys[0].Stages()
	for _, st := range []interface{ Workers() int }{recv, work, send} {
		if st.Workers() < 1 {
			t.Fatal("stage lost all workers")
		}
	}
}

func TestOptimizerMinSamplesGate(t *testing.T) {
	sys := newCluster(t, 1) // idle: its stages processed fewer than minSamples tasks
	opts := DefaultOptions()
	opts.Partitioning = false
	o := NewOptimizer(sys[0], opts)
	o.Retune()
	if _, _, retunes := o.Counters(); retunes != 0 {
		t.Fatal("retune should be gated by MinSamples")
	}
}

func TestOptimizerStartStopIdempotent(t *testing.T) {
	sys := newCluster(t, 1)
	o := NewOptimizer(sys[0], DefaultOptions())
	o.Start()
	o.Start()
	o.Stop()
	o.Stop()
	// Restartable.
	o.Start()
	o.Stop()
}

// TestRejectWindowFromNode: a zero RejectWindow takes the node's
// ExchangeRejectWindow, so both sides of an exchange cool down alike.
func TestRejectWindowFromNode(t *testing.T) {
	sys := newCluster(t, 1)
	if o, want := NewOptimizer(sys[0], DefaultOptions()), sys[0].Config().ExchangeRejectWindow; o.opts.RejectWindow != want {
		t.Fatalf("initiator window %v, node window %v", o.opts.RejectWindow, want)
	}
}

func TestOptionsDefaultsClamped(t *testing.T) {
	sys := newCluster(t, 1)
	o := NewOptimizer(sys[0], Options{PartitionPeriod: -time.Second})
	if o.opts.PartitionPeriod <= 0 || o.opts.ThreadPeriod <= 0 || o.opts.RejectWindow <= 0 {
		t.Fatalf("defaults missing: %+v", o.opts)
	}
	if st := o.ThreadStatus(); st.Processors <= 0 || st.Interval != o.opts.ThreadPeriod {
		t.Fatalf("controller not configured from the defaults: %+v", st)
	}
}
