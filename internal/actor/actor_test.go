package actor

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actop/internal/codec"
	"actop/internal/transport"
)

// counterActor is a minimal migratable actor.
type counterActor struct{ N int }

func (c *counterActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Add":
		var d int
		if err := codec.Unmarshal(args, &d); err != nil {
			return nil, err
		}
		c.N += d
		return codec.Marshal(c.N)
	case "Get":
		return codec.Marshal(c.N)
	case "Fail":
		return nil, errors.New("boom")
	case "WhereAmI":
		return codec.Marshal(string(ctx.Node()))
	}
	return nil, fmt.Errorf("no method %q", method)
}

func (c *counterActor) Snapshot() ([]byte, error) { return codec.Marshal(c.N) }
func (c *counterActor) Restore(b []byte) error    { return codec.Unmarshal(b, &c.N) }

// newCluster spins up n in-memory nodes with the counter type registered;
// tweaks adjust each node's Config before it starts.
func newCluster(t *testing.T, n int, placement PlacementPolicy, tweaks ...func(*Config)) []*System {
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
			Placement: placement, Seed: int64(42 + i),
			CallTimeout: 3 * time.Second,
		}
		for _, tweak := range tweaks {
			tweak(&cfg)
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterType("counter", func() Actor { return &counterActor{} })
		systems[i] = sys
		t.Cleanup(sys.Stop)
	}
	return systems
}

func TestCallActivatesOnDemand(t *testing.T) {
	sys := newCluster(t, 3, PlaceRandom)
	ref := Ref{Type: "counter", Key: "a"}
	var out int
	if err := sys[0].Call(ref, "Add", 5, &out); err != nil {
		t.Fatal(err)
	}
	if out != 5 {
		t.Fatalf("out = %d", out)
	}
	// Second call from a different node hits the same activation.
	if err := sys[1].Call(ref, "Add", 2, &out); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("state not shared: %d", out)
	}
	// Exactly one node hosts it.
	hosts := 0
	for _, s := range sys {
		if s.HostsActor(ref) {
			hosts++
		}
	}
	if hosts != 1 {
		t.Fatalf("hosted on %d nodes", hosts)
	}
}

func TestUnknownTypeAndMethodErrors(t *testing.T) {
	sys := newCluster(t, 1, PlaceRandom)
	if err := sys[0].Call(Ref{Type: "ghost", Key: "x"}, "Do", nil, nil); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v", err)
	}
	err := sys[0].Call(Ref{Type: "counter", Key: "x"}, "Nope", nil, nil)
	if err == nil {
		t.Fatal("expected method error")
	}
}

func TestActorErrorPropagates(t *testing.T) {
	sys := newCluster(t, 2, PlaceRandom)
	err := sys[0].Call(Ref{Type: "counter", Key: "f"}, "Fail", nil, nil)
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalPlacementPolicy(t *testing.T) {
	sys := newCluster(t, 3, PlaceLocal)
	ref := Ref{Type: "counter", Key: "local-1"}
	if err := sys[2].Call(ref, "Add", 1, nil); err != nil {
		t.Fatal(err)
	}
	if !sys[2].HostsActor(ref) {
		t.Fatal("local placement should host on the first caller")
	}
}

func TestSingleThreadedTurns(t *testing.T) {
	sys := newCluster(t, 1, PlaceRandom)
	ref := Ref{Type: "counter", Key: "turns"}
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sys[0].Call(ref, "Add", 1, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var out int
	if err := sys[0].Call(ref, "Get", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out != 200 {
		t.Fatalf("lost increments: %d/200 (mailbox not single-threaded?)", out)
	}
}

func TestMigrationPreservesStateAndRouting(t *testing.T) {
	sys := newCluster(t, 3, PlaceRandom)
	ref := Ref{Type: "counter", Key: "mig"}
	if err := sys[0].Call(ref, "Add", 10, nil); err != nil {
		t.Fatal(err)
	}
	var host *System
	for _, s := range sys {
		if s.HostsActor(ref) {
			host = s
		}
	}
	var target *System
	for _, s := range sys {
		if s != host {
			target = s
			break
		}
	}
	if err := host.Migrate(ref, target.Node()); err != nil {
		t.Fatal(err)
	}
	if host.HostsActor(ref) || !target.HostsActor(ref) {
		t.Fatal("migration did not move the activation")
	}
	// State survived; calls from every node still land.
	for i, s := range sys {
		var out int
		if err := s.Call(ref, "Get", nil, &out); err != nil {
			t.Fatalf("node %d call after migration: %v", i, err)
		}
		if out != 10 {
			t.Fatalf("state lost: %d", out)
		}
	}
	var where string
	if err := sys[0].Call(ref, "WhereAmI", nil, &where); err != nil {
		t.Fatal(err)
	}
	if where != string(target.Node()) {
		t.Fatalf("actor executes on %s, want %s", where, target.Node())
	}
	if target.Stats().MigrationsIn != 1 || host.Stats().MigrationsOut != 1 {
		t.Fatal("migration counters wrong")
	}
}

func TestMigrationUnderLoad(t *testing.T) {
	sys := newCluster(t, 3, PlaceRandom)
	ref := Ref{Type: "counter", Key: "hot"}
	if err := sys[0].Call(ref, "Add", 0, nil); err != nil {
		t.Fatal(err)
	}
	var host, target *System
	for _, s := range sys {
		if s.HostsActor(ref) {
			host = s
		}
	}
	for _, s := range sys {
		if s != host {
			target = s
			break
		}
	}
	stop := make(chan struct{})
	var calls, failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := sys[g%3].Call(ref, "Add", 1, nil); err != nil {
					failures.Add(1)
				} else {
					calls.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	if err := host.Migrate(ref, target.Node()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	var out int
	if err := sys[0].Call(ref, "Get", nil, &out); err != nil {
		t.Fatal(err)
	}
	if failures.Load() > 0 {
		t.Fatalf("%d calls failed across migration", failures.Load())
	}
	if int64(out) != calls.Load() {
		t.Fatalf("increments lost across migration: state %d vs %d successful calls", out, calls.Load())
	}
}

func TestDeactivateReinstatesFresh(t *testing.T) {
	sys := newCluster(t, 2, PlaceRandom)
	ref := Ref{Type: "counter", Key: "d"}
	if err := sys[0].Call(ref, "Add", 9, nil); err != nil {
		t.Fatal(err)
	}
	var host *System
	for _, s := range sys {
		if s.HostsActor(ref) {
			host = s
		}
	}
	if err := host.Deactivate(ref); err != nil {
		t.Fatal(err)
	}
	var out int
	if err := sys[0].Call(ref, "Get", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out != 0 {
		t.Fatalf("deactivated actor kept state: %d", out)
	}
	if err := host.Deactivate(Ref{Type: "counter", Key: "never"}); err == nil {
		t.Fatal("deactivating a non-resident actor should error")
	}
}

// chainActor calls the next actor in a chain, exercising ctx.Call edges.
type chainActor struct{}

func (chainActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	var depth int
	if err := codec.Unmarshal(args, &depth); err != nil {
		return nil, err
	}
	if depth <= 0 {
		return codec.Marshal("done")
	}
	next := Ref{Type: "chain", Key: fmt.Sprintf("c%d", depth-1)}
	var out string
	if err := ctx.Call(next, "Go", depth-1, &out); err != nil {
		return nil, err
	}
	return codec.Marshal(out)
}

func TestActorToActorCallsAndMonitor(t *testing.T) {
	sys := newCluster(t, 2, PlaceRandom)
	for _, s := range sys {
		s.RegisterType("chain", func() Actor { return chainActor{} })
	}
	var out string
	if err := sys[0].Call(Ref{Type: "chain", Key: "c3"}, "Go", 3, &out); err != nil {
		t.Fatal(err)
	}
	if out != "done" {
		t.Fatalf("out = %q", out)
	}
	// The runtime observed actor→actor edges on some node.
	total := 0
	for _, s := range sys {
		total += s.Stats().MonitoredEdges
	}
	if total == 0 {
		t.Fatal("no communication edges monitored")
	}
}

func TestStatsCounters(t *testing.T) {
	sys := newCluster(t, 2, PlaceRandom)
	for i := 0; i < 10; i++ {
		ref := Ref{Type: "counter", Key: fmt.Sprintf("s%d", i)}
		if err := sys[0].Call(ref, "Add", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	st0, st1 := sys[0].Stats(), sys[1].Stats()
	if st0.Activations+st1.Activations != 10 {
		t.Fatalf("activations %d+%d", st0.Activations, st1.Activations)
	}
	if st0.CallsLocal+st0.CallsRemote != 10 {
		t.Fatalf("calls %d+%d", st0.CallsLocal, st0.CallsRemote)
	}
}

func TestStopRejectsCalls(t *testing.T) {
	sys := newCluster(t, 1, PlaceRandom)
	sys[0].Stop()
	if err := sys[0].Call(Ref{Type: "counter", Key: "x"}, "Get", nil, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
	sys[0].Stop() // idempotent
}

func TestRefVertexStable(t *testing.T) {
	a := Ref{Type: "player", Key: "1"}
	b := Ref{Type: "player", Key: "1"}
	cdiff := Ref{Type: "player", Key: "2"}
	if a.Vertex() != b.Vertex() {
		t.Fatal("vertex not deterministic")
	}
	if a.Vertex() == cdiff.Vertex() {
		t.Fatal("vertex collision on trivial keys")
	}
	if a.String() != "player/1" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("nil transport should error")
	}
}

// A node whose Peers leave it out is a client: its calls reach actors on
// the members, and it ends hosting nothing and owning no directory record,
// whichever placement the members run (PlaceLocal is offered the client's
// id as the caller's suggestion and must not take it).
func TestClientHostsNothing(t *testing.T) {
	for _, placement := range []PlacementPolicy{PlaceRandom, PlaceLocal} {
		t.Run(map[PlacementPolicy]string{PlaceRandom: "random", PlaceLocal: "local"}[placement], func(t *testing.T) {
			net := transport.NewNetwork(0)
			members := []transport.NodeID{"node-0", "node-1", "node-2"}
			start := func(id transport.NodeID, seed int64) *System {
				s, err := NewSystem(Config{
					Transport: net.Join(id), Peers: members,
					Placement: placement, Seed: seed, CallTimeout: 3 * time.Second,
				})
				if err != nil {
					t.Fatal(err)
				}
				s.RegisterType("counter", func() Actor { return &counterActor{} })
				t.Cleanup(s.Stop)
				return s
			}
			for i, m := range members {
				start(m, int64(i+1))
			}
			client := start("node-9", 9)
			const keys, rounds = 60, 4
			for r := 1; r <= rounds; r++ {
				for k := 0; k < keys; k++ {
					var n int
					if err := client.Call(Ref{Type: "counter", Key: fmt.Sprint(k)}, "Add", 1, &n); err != nil {
						t.Fatal(err)
					}
					if n != r {
						t.Fatalf("key %d after %d adds reads %d", k, r, n)
					}
				}
			}
			acts, dirs := 0, 0
			for i := range client.state {
				sh := &client.state[i]
				sh.mu.RLock()
				acts, dirs = acts+sh.acts, dirs+sh.dirs
				sh.mu.RUnlock()
			}
			if acts != 0 || dirs != 0 {
				t.Fatalf("client holds %d activations and %d directory records after %d calls", acts, dirs, keys*rounds)
			}
		})
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	// The same runtime over real sockets.
	t1, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []transport.NodeID{t1.Node(), t2.Node()}
	mk := func(tr transport.Transport) *System {
		s, err := NewSystem(Config{Transport: tr, Peers: peers, Seed: 1, CallTimeout: 3 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterType("counter", func() Actor { return &counterActor{} })
		t.Cleanup(s.Stop)
		return s
	}
	s1, s2 := mk(t1), mk(t2)
	ref := Ref{Type: "counter", Key: "tcp"}
	var out int
	if err := s1.Call(ref, "Add", 3, &out); err != nil {
		t.Fatal(err)
	}
	if err := s2.Call(ref, "Add", 4, &out); err != nil {
		t.Fatal(err)
	}
	if out != 7 {
		t.Fatalf("out = %d", out)
	}
}

func TestLocationCacheBounded(t *testing.T) {
	sys := newCluster(t, 1, PlaceRandom)
	s := sys[0]
	// Flood the cache past its bound; entries must be evicted one at a time
	// rather than letting the cache grow without limit (§4.3: old entries
	// are evicted for low space overhead).
	for i := 0; i < (1<<17)+10; i++ {
		s.cachePut(Ref{Type: "counter", Key: fmt.Sprintf("k%d", i)}, s.Node())
	}
	n := s.locCacheLen()
	if n > (1<<17)+1 {
		t.Fatalf("location cache unbounded: %d entries", n)
	}
	// Still correct after the reset.
	ref := Ref{Type: "counter", Key: "after-reset"}
	if err := s.Call(ref, "Add", 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefVertexCollisionFreeAtScale(t *testing.T) {
	seen := make(map[uint64]string, 200_000)
	for i := 0; i < 100_000; i++ {
		for _, typ := range []string{"player", "game"} {
			r := Ref{Type: typ, Key: fmt.Sprintf("%d", i)}
			v := uint64(r.Vertex())
			if prev, ok := seen[v]; ok {
				t.Fatalf("vertex collision: %s vs %s", prev, r)
			}
			seen[v] = r.String()
		}
	}
}
