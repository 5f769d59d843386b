package actor

import (
	"fmt"
	"testing"
	"time"

	"actop/internal/codec"
	"actop/internal/partition"
	"actop/internal/transport"
)

// hubActor fans one call out to the leaves named in its argument, one after
// the other: a call tree whose leaves are pure callees, like the presence
// records of a game. It holds no state, so a member swap is just another
// argument.
type hubActor struct{}

func (hubActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	var leaves []string
	if err := codec.Unmarshal(args, &leaves); err != nil {
		return nil, err
	}
	for _, k := range leaves {
		if err := ctx.Call(Ref{Type: "leaf", Key: k}, "Add", 1, nil); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

const (
	convTrees     = 24
	convFanOut    = 8
	convNodes     = 3
	convFanPerRnd = 40 // fans per tree between two exchange rounds
)

// convCluster is a seeded 3-node in-memory cluster of hub/leaf trees whose
// exchange rounds the test drives by hand.
type convCluster struct {
	t      *testing.T
	sys    []*System
	opts   partition.Options
	leaves [][]string // tree → its leaves' keys
}

func newConvCluster(t *testing.T, seed int64) *convCluster {
	t.Helper()
	net := transport.NewNetwork(0)
	peers := make([]transport.NodeID, convNodes)
	for i := range peers {
		peers[i] = transport.NodeID(fmt.Sprintf("conv-%d", i))
	}
	c := &convCluster{t: t, opts: partition.DefaultOptions(), leaves: make([][]string, convTrees)}
	for i, p := range peers {
		s, err := NewSystem(Config{
			Transport: net.Join(p), Peers: peers, Seed: seed + int64(i),
			CallTimeout:          3 * time.Second,
			ExchangeRejectWindow: time.Nanosecond, // rounds are sequential here: never cooling
		})
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterType("hub", func() Actor { return hubActor{} })
		s.RegisterType("leaf", func() Actor { return &counterActor{} })
		c.sys = append(c.sys, s)
		t.Cleanup(s.Stop)
	}
	for tr := range c.leaves {
		for i := 0; i < convFanOut; i++ {
			c.leaves[tr] = append(c.leaves[tr], fmt.Sprintf("%d.%d", tr, i))
		}
	}
	return c
}

// fan sends n fans down every tree, one call at a time, entering through
// the trees' nodes in rotation.
func (c *convCluster) fan(n int) {
	c.t.Helper()
	for i := 0; i < n; i++ {
		for tr, leaves := range c.leaves {
			hub := Ref{Type: "hub", Key: fmt.Sprint(tr)}
			if err := c.sys[(tr+i)%convNodes].Call(hub, "Fan", leaves, nil); err != nil {
				c.t.Fatal(err)
			}
		}
	}
}

// round is one statistics epoch: traffic, then one initiator round per
// node. Counter-moves run behind the exchange reply, so the round ends when
// every move an exchange agreed on has been carried out (or, for one that
// failed, after a grace period).
func (c *convCluster) round() {
	c.t.Helper()
	c.fan(convFanPerRnd)
	for _, s := range c.sys {
		before := c.migrations()
		moved, err := s.ExchangeRound(c.opts, time.Nanosecond)
		if err != nil {
			c.t.Fatal(err)
		}
		for deadline := time.Now().Add(2 * time.Second); c.migrations() < before+uint64(moved) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
}

func (c *convCluster) migrations() uint64 {
	var n uint64
	for _, s := range c.sys {
		n += s.Stats().MigrationsOut
	}
	return n
}

// host is the index of the node hosting ref.
func (c *convCluster) host(ref Ref) int {
	c.t.Helper()
	for i, s := range c.sys {
		if s.HostsActor(ref) {
			return i
		}
	}
	c.t.Fatalf("%s is hosted nowhere", ref)
	return -1
}

// remoteLegs is the fraction of hub→leaf legs that cross nodes.
func (c *convCluster) remoteLegs() float64 {
	remote, total := 0, 0
	for tr, leaves := range c.leaves {
		h := c.host(Ref{Type: "hub", Key: fmt.Sprint(tr)})
		for _, k := range leaves {
			total++
			if c.host(Ref{Type: "leaf", Key: k}) != h {
				remote++
			}
		}
	}
	return float64(remote) / float64(total)
}

// TestConvergeCallTreesCoLocate is the invariant "a vertex's home node sees
// every edge incident to it" at work: under random placement two thirds of
// the legs cross nodes, and Algorithm 1 must bring the trees together —
// which takes moving leaves, actors that never call anyone. With monitoring
// on the caller's side only, a leaf has no edge in its home node's monitor
// and is never offered: hubs move to the plurality of their leaves and the
// fraction stalls near one half.
func TestConvergeCallTreesCoLocate(t *testing.T) {
	const rounds, want = 6, 0.15
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			c := newConvCluster(t, seed)
			c.fan(1) // activates everything, wherever the directory puts it
			home := map[string]int{}
			for _, leaves := range c.leaves {
				for _, k := range leaves {
					home[k] = c.host(Ref{Type: "leaf", Key: k})
				}
			}
			start := c.remoteLegs()
			if start < 0.5 {
				t.Fatalf("random placement left only %.2f of the legs remote", start)
			}
			frac := start
			for r := 0; r < rounds && frac >= want; r++ {
				c.round()
				frac = c.remoteLegs()
				t.Logf("round %d: remote leg fraction %.3f", r+1, frac)
			}
			if frac >= want {
				t.Errorf("remote leg fraction %.3f after %d rounds (start %.3f), want < %.2f", frac, rounds, start, want)
			}
			moved := 0
			for k, n := range home {
				if c.host(Ref{Type: "leaf", Key: k}) != n {
					moved++
				}
			}
			if moved == 0 {
				t.Error("no pure callee migrated")
			}
		})
	}
}

// TestConvergeFollowsMemberSwap: the monitor forgets. Two converged trees
// on different nodes trade a leaf each after a long stable stretch; the
// edge to the old hub stops being fed and halves every epoch, so within
// three epochs the new hub's edge outweighs it and the leaf follows its new
// caller. Without decay the stale edge carries the whole stable stretch and
// wins for as many epochs again.
func TestConvergeFollowsMemberSwap(t *testing.T) {
	c := newConvCluster(t, 1)
	c.fan(1)
	for r := 0; r < 10; r++ { // converge, then a long stable stretch
		c.round()
	}
	if frac := c.remoteLegs(); frac >= 0.15 {
		t.Fatalf("trees did not converge first: %.3f", frac)
	}
	// Two trees that ended up on different nodes.
	a, b := 0, -1
	hostOf := func(tr int) int { return c.host(Ref{Type: "hub", Key: fmt.Sprint(tr)}) }
	for tr := 1; tr < convTrees; tr++ {
		if hostOf(tr) != hostOf(a) {
			b = tr
			break
		}
	}
	if b < 0 {
		t.Fatal("every tree converged onto one node")
	}
	x, y := c.leaves[a][0], c.leaves[b][0]
	c.leaves[a][0], c.leaves[b][0] = y, x
	for r := 0; r < 3; r++ {
		c.round()
	}
	if got, want := c.host(Ref{Type: "leaf", Key: x}), hostOf(b); got != want {
		t.Errorf("leaf %s is on node %d, its new hub on node %d", x, got, want)
	}
	if got, want := c.host(Ref{Type: "leaf", Key: y}), hostOf(a); got != want {
		t.Errorf("leaf %s is on node %d, its new hub on node %d", y, got, want)
	}
}
