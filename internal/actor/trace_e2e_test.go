package actor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"actop/internal/codec"
	"actop/internal/metrics"
	"actop/internal/trace"
	"actop/internal/transport"
)

// relayActor forwards each call to a counter actor — one extra traced hop,
// so a root call through it exercises ParentID linkage across nodes.
type relayActor struct{}

func (relayActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	var target string
	if err := codec.Unmarshal(args, &target); err != nil {
		return nil, err
	}
	var out int
	if err := ctx.Call(Ref{Type: "counter", Key: target}, "Add", 1, &out); err != nil {
		return nil, err
	}
	return codec.Marshal(out)
}

// newTracedCluster spins up n in-memory nodes with sampling at rate and the
// counter/relay types registered. Node i gets regs[i] when provided.
func newTracedCluster(t *testing.T, n int, rate float64, regs ...*metrics.Registry) []*System {
	t.Helper()
	net := transport.NewNetwork(0)
	peers := make([]transport.NodeID, n)
	trs := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		peers[i] = transport.NodeID(fmt.Sprintf("node-%d", i))
		trs[i] = net.Join(peers[i])
	}
	systems := make([]*System, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Transport: trs[i], Peers: peers,
			Placement: PlaceLocal, Seed: int64(7 + i),
			CallTimeout:     3 * time.Second,
			TraceSampleRate: rate,
		}
		if i < len(regs) {
			cfg.Metrics = regs[i]
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterType("counter", func() Actor { return &counterActor{} })
		sys.RegisterType("relay", func() Actor { return relayActor{} })
		systems[i] = sys
		t.Cleanup(sys.Stop)
	}
	return systems
}

// waitSpans polls a ring until pred finds a span or the deadline passes.
func waitSpans(t *testing.T, r *trace.Ring, what string, pred func(trace.Span) bool) trace.Span {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, sp := range r.Snapshot(0) {
			if pred(sp) {
				return sp
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no span matching %q in ring (have %d)", what, len(r.Snapshot(0)))
	return trace.Span{}
}

// TestTraceEndToEndThreeNodes drives a two-hop call chain across three nodes
// (node-0 → relay on node-1 → counter on node-2) with sampling at 1.0 and
// checks the whole decomposition story: paired client/server spans, nested
// ParentID linkage, populated components that sum to the measured total,
// cluster assembly from the root node, and the per-method registry series.
func TestTraceEndToEndThreeNodes(t *testing.T) {
	reg := metrics.NewRegistry()
	relayReg := metrics.NewRegistry()
	sys := newTracedCluster(t, 3, 1.0, reg, relayReg)

	// Pin the topology with PlaceLocal priming calls: relay/r activates on
	// node-1, counter/c on node-2.
	var primed int
	if err := sys[2].Call(Ref{Type: "counter", Key: "c"}, "Add", 0, &primed); err != nil {
		t.Fatal(err)
	}
	var relayOut int
	if err := sys[1].Call(Ref{Type: "relay", Key: "r"}, "Relay", "c", &relayOut); err != nil {
		t.Fatal(err)
	}
	if !sys[1].HostsActor(Ref{Type: "relay", Key: "r"}) || !sys[2].HostsActor(Ref{Type: "counter", Key: "c"}) {
		t.Fatal("PlaceLocal priming did not pin the topology")
	}

	// The traced call of interest: remote root hop plus a nested remote hop.
	var out int
	if err := sys[0].Call(Ref{Type: "relay", Key: "r"}, "Relay", "c", &out); err != nil {
		t.Fatal(err)
	}
	if out != 2 {
		t.Fatalf("relay result = %d, want 2", out)
	}

	// Root client span lands in node-0's ring synchronously with the call.
	root := waitSpans(t, sys[0].TraceRing(), "root client span", func(sp trace.Span) bool {
		return sp.Kind == "client" && sp.Method == "Relay" && sp.Node == "node-0"
	})
	if root.TraceID == 0 || root.SpanID == 0 {
		t.Fatalf("root span ids not assigned: %+v", root)
	}
	if root.ParentID != 0 {
		t.Fatalf("root span has a parent: %d", root.ParentID)
	}
	if root.Total <= 0 {
		t.Fatalf("root total not measured: %v", root.Total)
	}
	// Client components must close exactly on the measured total: Network is
	// the residual, so sum == total unless clamping fired (sum > total).
	if sum := root.ComponentSum(); sum != root.Total && sum < root.Total {
		t.Fatalf("client components do not close: sum %v vs total %v", sum, root.Total)
	}
	if root.Network <= 0 {
		t.Fatalf("remote client span has no network residual: %+v", root)
	}

	// The relay's server span pairs with the root by SpanID (published
	// asynchronously by the reply send task).
	server := waitSpans(t, sys[1].TraceRing(), "relay server span", func(sp trace.Span) bool {
		return sp.Kind == "server" && sp.SpanID == root.SpanID
	})
	if server.TraceID != root.TraceID {
		t.Fatalf("server span trace id %d != root %d", server.TraceID, root.TraceID)
	}
	if server.Node != "node-1" || server.Method != "Relay" {
		t.Fatalf("server span misplaced: %+v", server)
	}
	// The relay turn blocks on a real nested remote call, so its execution
	// time is solidly nonzero, and the client span carries the same value
	// via the reply's hop-timing record.
	if server.Exec <= 0 {
		t.Fatalf("relay server exec not measured: %+v", server)
	}
	if root.Exec != server.Exec || root.WorkQueue != server.WorkQueue || root.RecvQueue != server.RecvQueue {
		t.Fatalf("reply did not carry callee timings: root{exec %v wq %v rq %v} server{exec %v wq %v rq %v}",
			root.Exec, root.WorkQueue, root.RecvQueue, server.Exec, server.WorkQueue, server.RecvQueue)
	}

	// The nested hop: a client span on node-1 whose parent is the relay's
	// span, paired with a server span on node-2.
	nested := waitSpans(t, sys[1].TraceRing(), "nested client span", func(sp trace.Span) bool {
		return sp.Kind == "client" && sp.Method == "Add" && sp.TraceID == root.TraceID
	})
	if nested.ParentID != root.SpanID {
		t.Fatalf("nested span parent %d, want relay span %d", nested.ParentID, root.SpanID)
	}
	nestedSrv := waitSpans(t, sys[2].TraceRing(), "nested server span", func(sp trace.Span) bool {
		return sp.Kind == "server" && sp.SpanID == nested.SpanID
	})
	if nestedSrv.Node != "node-2" || nestedSrv.Actor != "counter/c" {
		t.Fatalf("nested server span misplaced: %+v", nestedSrv)
	}

	// Cluster assembly from the root node: one tree, root paired both sides,
	// exactly one child (the nested Add).
	trees := sys[0].ClusterTrace(root.TraceID)
	if len(trees) != 1 {
		t.Fatalf("assembled %d roots, want 1", len(trees))
	}
	tree := trees[0]
	if tree.Client == nil || tree.Server == nil || tree.SpanID != root.SpanID {
		t.Fatalf("root tree node incomplete: %+v", tree)
	}
	if len(tree.Children) != 1 || tree.Children[0].SpanID != nested.SpanID {
		t.Fatalf("root tree children wrong: %+v", tree.Children)
	}
	if tree.Children[0].Server == nil {
		t.Fatal("nested call missing its server view")
	}

	// Per-method latency series reach the registry on node-0.
	var b strings.Builder
	reg.Write(&b)
	text := b.String()
	for _, want := range []string{
		`actop_call_duration_seconds{method="Relay",quantile="0.99"}`,
		`actop_call_component_seconds{method="Relay",component="network",quantile="0.5"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("registry output missing %s", want)
		}
	}

	// The callee side exposes served-call latency on its own registry.
	b.Reset()
	relayReg.Write(&b)
	if !strings.Contains(b.String(), `actop_served_call_duration_seconds{method="Relay",quantile="0.99"}`) {
		t.Errorf("relay node registry missing served-call series:\n%s", b.String())
	}
}

// TestTraceDisabledRecordsNothing checks the default (rate 0) configuration
// records no spans and attaches no trace section to envelopes.
func TestTraceDisabledRecordsNothing(t *testing.T) {
	sys := newTracedCluster(t, 2, 0, nil)
	var out int
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := sys[0].Call(Ref{Type: "counter", Key: key}, "Add", 1, &out); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	for i, s := range sys {
		if n := s.TraceRing().Recorded(); n != 0 {
			t.Fatalf("node %d recorded %d spans with tracing off", i, n)
		}
	}
}

// TestTraceLocalSpan checks a sampled co-located call produces a single
// "local" span with mailbox and execution components.
func TestTraceLocalSpan(t *testing.T) {
	sys := newTracedCluster(t, 1, 1.0, nil)
	var out int
	if err := sys[0].Call(Ref{Type: "counter", Key: "x"}, "Add", 3, &out); err != nil {
		t.Fatal(err)
	}
	sp := waitSpans(t, sys[0].TraceRing(), "local span", func(sp trace.Span) bool {
		return sp.Kind == "local" && sp.Method == "Add"
	})
	if sp.Total <= 0 {
		t.Fatalf("local span total not measured: %+v", sp)
	}
	if sp.Network != 0 || sp.RecvQueue != 0 {
		t.Fatalf("local span has remote components: %+v", sp)
	}
}

// TestTraceDedupAnnotation drives a duplicated traced envelope through a
// call delivery and checks the duplicate's server span and reply record carry
// the dedup-hit flag.
func TestTraceDedupAnnotation(t *testing.T) {
	sys := newTracedCluster(t, 2, 1.0, nil)
	ref := Ref{Type: "counter", Key: "dup"}
	var out int
	if err := sys[1].Call(ref, "Add", 1, &out); err != nil {
		t.Fatal(err)
	}
	args, err := codec.Marshal(5)
	if err != nil {
		t.Fatal(err)
	}
	env := &transport.Envelope{
		Kind: transport.KindCall, ID: 777777, From: sys[0].Node(),
		ActorType: ref.Type, ActorKey: ref.Key, Method: "Add", Payload: args,
		Trace: &transport.Trace{TraceID: 99, SpanID: 1001},
	}
	sys[1].newServerCall(env).handle(0)
	// Wait for the original turn to resolve so the duplicate finds a prior
	// reply in the dedup window (an in-flight duplicate is simply dropped).
	waitSpans(t, sys[1].TraceRing(), "original server span", func(sp trace.Span) bool {
		return sp.Kind == "server" && sp.TraceID == 99 && !sp.DedupHit
	})
	dup := *env
	dup.Trace = &transport.Trace{TraceID: 99, SpanID: 1001}
	sys[1].newServerCall(&dup).handle(0)

	waitSpans(t, sys[1].TraceRing(), "dedup-hit server span", func(sp trace.Span) bool {
		return sp.Kind == "server" && sp.TraceID == 99 && sp.DedupHit
	})
}
