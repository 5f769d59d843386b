package actor

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"actop/internal/partition"
	"actop/internal/transport"
)

// slowActor blocks each turn briefly so queues build.
type slowActor struct{}

func (slowActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	time.Sleep(2 * time.Millisecond)
	return nil, nil
}

func TestOverloadBackpressure(t *testing.T) {
	net := transport.NewNetwork(0)
	peers := []transport.NodeID{"n0"}
	sys, err := NewSystem(Config{
		Transport: net.Join("n0"), Peers: peers,
		Workers: 1, QueueCap: 4, CallTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	sys.RegisterType("slow", func() Actor { return slowActor{} })

	var overloaded, timeouts int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref := Ref{Type: "slow", Key: fmt.Sprintf("s%d", i%4)}
			err := sys.Call(ref, "Go", nil, nil)
			mu.Lock()
			defer mu.Unlock()
			if errors.Is(err, ErrOverloaded) {
				overloaded++
			} else if errors.Is(err, ErrTimeout) {
				timeouts++
			}
		}(i)
	}
	wg.Wait()
	if overloaded+timeouts == 0 {
		t.Fatal("expected backpressure under 200 concurrent calls on a 1-worker, 4-slot node")
	}
}

// TestOverloadRejectionReachesCaller fills a TCP callee's receive queue (its
// one receive worker is parked in an actor factory) and expects every call it
// then refuses to fail fast with ErrOverloaded. The refused request's
// envelope is released on the spot, so the rejection must be addressed from
// what was read before the release: built from the recycled envelope it goes
// to nobody, and the caller sits out its timeout instead.
func TestOverloadRejectionReachesCaller(t *testing.T) {
	sys := newEchoPair(t, true, Config{Seed: 1, CallTimeout: 2 * time.Second}, func(i int, c *Config) {
		if i == 1 {
			c.QueueCap = 2
		}
	})
	recv, _, _ := sys[1].Stages()
	resize(recv, 1)
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) }) // before the nodes stop: Stop waits for the parked worker
	for _, s := range sys {
		s.RegisterType("gated", func() Actor { <-gate; return echoActor{} })
	}
	call := func(i int) error {
		ref := Ref{Type: "gated", Key: fmt.Sprint(i)}
		sys[0].cachePut(ref, sys[1].Node()) // route across the wire; the callee's first delivery activates
		return sys[0].Call(ref, "Echo", echoMsg{Key: ref.Key}, nil)
	}
	// One delivery parks the worker in the factory, two more fill the queue.
	admitted := make(chan error, 3)
	for i := 0; i < 3; i++ {
		i := i
		go func() { admitted <- call(i) }()
	}
	for deadline := time.Now().Add(time.Second); recv.QueueLen() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("receive queue holds %d deliveries, want 2 behind the parked worker", recv.QueueLen())
		}
	}
	for i := 3; i < 8; i++ {
		begin := time.Now()
		if err := call(i); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("refused call %d: %v after %v, want ErrOverloaded", i, err, time.Since(begin))
		}
	}
}

func TestRedirectAfterMigrationFromThirdNode(t *testing.T) {
	sys := newCluster(t, 3, PlaceRandom)
	ref := Ref{Type: "counter", Key: "third"}
	if err := sys[0].Call(ref, "Add", 1, nil); err != nil {
		t.Fatal(err)
	}
	// Warm every node's cache.
	for _, s := range sys {
		if err := s.Call(ref, "Get", nil, nil); err != nil {
			t.Fatal(err)
		}
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
	if err := host.Migrate(ref, target.Node()); err != nil {
		t.Fatal(err)
	}
	// A third node with a stale cache must chase the redirect and succeed.
	var third *System
	for _, s := range sys {
		if s != host && s != target {
			third = s
		}
	}
	var out int
	if err := third.Call(ref, "Get", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out != 1 {
		t.Fatalf("out = %d", out)
	}
}

func TestExchangeRoundMovesHotPairs(t *testing.T) {
	net := transport.NewNetwork(0)
	peers := []transport.NodeID{"x0", "x1"}
	var sys []*System
	for i, p := range peers {
		s, err := NewSystem(Config{
			Transport: net.Join(p), Peers: peers, Seed: int64(i + 5),
			CallTimeout:          3 * time.Second,
			ExchangeRejectWindow: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterType("counter", func() Actor { return &counterActor{} })
		sys = append(sys, s)
		t.Cleanup(s.Stop)
	}
	for _, s := range sys {
		s.RegisterType("chain", func() Actor { return chainActor{} })
	}
	// split counts the pairs (c2k+1, c2k) that sys[0] hosts one half of.
	// A chain call at depth 1 goes to c0, so the hot graph is a star: c0's
	// pair is split while c1 and c0 live apart, and every other pair while
	// its caller lives on x0 (c2k is never called).
	split := func() int {
		n := 0
		for k := 0; k < 6; k++ {
			a := Ref{Type: "chain", Key: fmt.Sprintf("c%d", 2*k+1)}
			b := Ref{Type: "chain", Key: fmt.Sprintf("c%d", 2*k)}
			if sys[0].HostsActor(a) != sys[0].HostsActor(b) {
				n++
			}
		}
		return n
	}
	// Drive hot edges: each c2k+1 calls c0.
	for r := 0; r < 30; r++ {
		for k := 0; k < 6; k++ {
			var out string
			if err := sys[0].Call(Ref{Type: "chain", Key: fmt.Sprintf("c%d", 2*k+1)}, "Go", 1, &out); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Placement is a function of the ref, so the start is fixed: it must
	// leave pairs to join, or the bound below holds with nothing moving.
	initial := split()
	if initial < 3 {
		t.Fatalf("placement splits only %d/6 hot pairs: nothing for the exchange to do", initial)
	}
	opts := partition.DefaultOptions()
	opts.ImbalanceTolerance = 8
	total := 0
	for round := 0; round < 6; round++ {
		for _, s := range sys {
			moved, err := s.ExchangeRound(opts, time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			total += moved
		}
		// Keep traffic flowing so monitors track the new placement.
		for k := 0; k < 6; k++ {
			_ = sys[0].Call(Ref{Type: "chain", Key: fmt.Sprintf("c%d", 2*k+1)}, "Go", 1, nil)
		}
	}
	final := split()
	t.Logf("%d/6 hot pairs split at the start, %d/6 after %d moves", initial, final, total)
	if final > 2 {
		t.Errorf("%d/6 hot pairs split at the start, %d/6 still split after exchanges (moved %d)",
			initial, final, total)
	}
}
