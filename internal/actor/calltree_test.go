package actor

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// callTrees is a set of §6.1-shaped call trees — converge_test.go's hubActor
// fanning out to leaves — driven by concurrent drivers. Driver d owns the
// trees ≡ d mod drivers, so the per-tree bookkeeping needs no lock.
type callTrees struct {
	leaves [][]string // tree → its leaves' keys
	gen    []int      // tree → its hub's generation
	fans   []int      // tree → fans its hub answered
}

func newCallTrees(trees, fanOut int) *callTrees {
	c := &callTrees{leaves: make([][]string, trees), gen: make([]int, trees), fans: make([]int, trees)}
	for tr := range c.leaves {
		for i := 0; i < fanOut; i++ {
			c.leaves[tr] = append(c.leaves[tr], fmt.Sprintf("%d.%d", tr, i))
		}
	}
	return c
}

// newSharedCallTrees builds trees whose leaves overlap: tree tr fans out to
// leaves tr … tr+fanOut-1 of one ring of trees leaves, so every leaf takes
// legs from fanOut hubs that different drivers run at once, the way a lobby
// roster is written by every player routed to it.
func newSharedCallTrees(trees, fanOut int) *callTrees {
	c := &callTrees{leaves: make([][]string, trees), gen: make([]int, trees), fans: make([]int, trees)}
	for tr := range c.leaves {
		for i := 0; i < fanOut; i++ {
			c.leaves[tr] = append(c.leaves[tr], fmt.Sprintf("s%d", (tr+i)%trees))
		}
	}
	return c
}

// callTreeWorkers sizes each node's worker pool above the number of
// drivers: a hub's turn holds its worker while it waits on its leaves, so a
// node whose every worker held a hub would have none left to run the leaf
// turns those hubs wait on.
func callTreeWorkers(c *Config) { c.Workers = 16 }

// registerCallTrees registers the hub type and the given leaf type on every
// node.
func registerCallTrees(systems []*System, leaf func() Actor) {
	for _, s := range systems {
		s.RegisterType("hub", func() Actor { return hubActor{} })
		s.RegisterType("leaf", leaf)
	}
}

// hub is the tree's current hub: a churned tree answers to a fresh key, so
// its old hub goes cold the way a finished game session does.
func (c *callTrees) hub(tr int) Ref {
	return Ref{Type: "hub", Key: fmt.Sprintf("%d.g%d", tr, c.gen[tr])}
}

// churned is the number of hub moves so far.
func (c *callTrees) churned() int {
	n := 0
	for _, g := range c.gen {
		n += g
	}
	return n
}

// drive sends rounds fans down every tree from drivers goroutines, driver d
// entering through entry(d). churn, when set, decides before each fan whether
// the tree first moves onto a fresh hub key. drive returns once every call
// has answered, with the number that failed and the first error.
func (c *callTrees) drive(drivers, rounds int, entry func(d int) *System, churn func(round, tr int) bool) (int, error) {
	failed := make([]int, drivers)
	first := make([]error, drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			sys := entry(d)
			for r := 0; r < rounds; r++ {
				for tr := d; tr < len(c.leaves); tr += drivers {
					if churn != nil && churn(r, tr) {
						c.gen[tr]++
					}
					if err := sys.Call(c.hub(tr), "Fan", c.leaves[tr], nil); err != nil {
						failed[d]++
						if first[d] == nil {
							first[d] = err
						}
						continue
					}
					c.fans[tr]++
				}
			}
		}(d)
	}
	wg.Wait()
	n := 0
	var err error
	for d := range failed {
		n += failed[d]
		if err == nil {
			err = first[d]
		}
	}
	return n, err
}

// miscount is a leaf whose count differs from the fans its trees received.
type miscount struct {
	key       string
	got, want int
}

// audit asks every leaf, through via, for its count and returns those that
// differ from the fans of the trees holding them: a short count is a lost
// leg, a long one a leg executed twice.
func (c *callTrees) audit(t *testing.T, via []*System) []miscount {
	t.Helper()
	want := map[string]int{}
	var keys []string
	for tr, leaves := range c.leaves {
		for _, k := range leaves {
			if _, ok := want[k]; !ok {
				keys = append(keys, k)
			}
			want[k] += c.fans[tr]
		}
	}
	var off []miscount
	for i, k := range keys {
		var got int
		if err := via[i%len(via)].Call(Ref{Type: "leaf", Key: k}, "Get", nil, &got); err != nil {
			t.Errorf("audit leaf %s: %v", k, err)
			continue
		}
		if got != want[k] {
			off = append(off, miscount{k, got, want[k]})
		}
	}
	return off
}

// auditExact fails t for every leaf that did not execute each leg addressed
// to it exactly once.
func (c *callTrees) auditExact(t *testing.T, via []*System) {
	t.Helper()
	for _, m := range c.audit(t, via) {
		t.Errorf("leaf %s counted %d legs, its trees were fanned %d times", m.key, m.got, m.want)
	}
}

// TestCallTreesExactlyOnceAcrossNodes drives call trees from eight
// concurrent drivers over a five-node cluster under random placement, with
// trees moving onto fresh hub keys through the second half of the run: every
// call must answer, and every leaf must have executed each leg addressed to
// it exactly once. Each driver enters through one fixed node, so the legs
// cross nodes only because placement spread the trees — a placement that
// kept activations where they were first called leaves every call local and
// fails here.
func TestCallTreesExactlyOnceAcrossNodes(t *testing.T) {
	sys := newCluster(t, 5, PlaceRandom, callTreeWorkers)
	registerCallTrees(sys, func() Actor { return &counterActor{} })
	trees := newCallTrees(24, 4)
	const rounds = 20
	failed, err := trees.drive(8, rounds,
		func(d int) *System { return sys[d%len(sys)] },
		func(r, tr int) bool { return r >= rounds/2 && (r+tr)%4 == 0 })
	if failed != 0 {
		t.Fatalf("%d fans failed, first: %v", failed, err)
	}
	// Placement is read before the audit, whose reads cross nodes anyway.
	hosting := 0
	var remote uint64
	for _, s := range sys {
		st := s.Stats()
		if st.Activations > 0 {
			hosting++
		}
		remote += st.CallsRemote
	}
	if hosting < 2 {
		t.Errorf("activations concentrated on %d node(s); placement not exercised", hosting)
	}
	if remote == 0 {
		t.Error("no remote calls: the call trees never left their entry node")
	}
	if trees.churned() == 0 {
		t.Error("run moved no tree onto a fresh hub")
	}
	trees.auditExact(t, sys)
}

// TestCallTreesChurnKeepsServing moves every tree of a two-node cluster onto
// a fresh hub key every other round, the way finished game sessions give way
// to new ones: each fresh incarnation must answer its first call, and the
// leaves, which outlive the hubs, must still count every leg exactly once.
func TestCallTreesChurnKeepsServing(t *testing.T) {
	sys := newCluster(t, 2, PlaceRandom, callTreeWorkers)
	registerCallTrees(sys, func() Actor { return &counterActor{} })
	trees := newCallTrees(16, 4)
	failed, err := trees.drive(4, 20,
		func(d int) *System { return sys[d%len(sys)] },
		func(r, tr int) bool { return r > 0 && (r+tr)%2 == 0 })
	if failed != 0 {
		t.Fatalf("churn lost %d fans, first: %v", failed, err)
	}
	for tr, g := range trees.gen {
		if g == 0 {
			t.Errorf("tree %d never moved onto a fresh hub", tr)
		}
	}
	trees.auditExact(t, sys)
}

// killMidCallTrees drives trees over a three-node cluster holding replicas
// durable copies of each leaf, hard-kills node 2 at the quiesce point between
// two phases of concurrent fans — its dirty leaves flushed to their replicas
// first, so the cut is exact — and sends the second phase through the
// survivors only. It returns the survivors and the number of leaves the
// victim hosted.
func killMidCallTrees(t *testing.T, replicas int, trees *callTrees) ([]*System, int) {
	t.Helper()
	sys, flakies := newDurableCluster(t, 3, replicas, callTreeWorkers)
	registerCallTrees(sys, func() Actor { return &durableCounter{} })
	const victim = 2
	victimID := sys[victim].Node()
	survivors := sys[:victim]

	failed, err := trees.drive(6, 8, func(d int) *System { return sys[d%len(sys)] }, nil)
	if failed != 0 {
		t.Fatalf("before the kill: %d fans failed, first: %v", failed, err)
	}
	onVictim := 0
	seen := map[string]bool{}
	for _, leaves := range trees.leaves {
		for _, k := range leaves {
			if !seen[k] && sys[victim].HostsActor(Ref{Type: "leaf", Key: k}) {
				onVictim++
			}
			seen[k] = true
		}
	}
	if onVictim == 0 {
		t.Fatalf("no leaf lives on %s: none of the leaf keys has it as directory owner", victimID)
	}

	// drive has quiesced the traffic: flush the victim's dirty leaves to
	// their replicas, then pull the plug.
	sys[victim].SyncSnapshots()
	flakies[victim].Kill()
	for _, s := range survivors {
		waitPeerState(t, s, victimID, PeerDead, 5*time.Second)
	}

	failed, err = trees.drive(6, 8, func(d int) *System { return survivors[d%len(survivors)] }, nil)
	if failed != 0 {
		t.Fatalf("after the kill: %d fans failed, first: %v", failed, err)
	}
	return survivors, onVictim
}

// recoveredWithState sums the snapshots the survivors re-activated from.
func recoveredWithState(survivors []*System) uint64 {
	var n uint64
	for _, s := range survivors {
		n += s.Durables().RecoveredWithState
	}
	return n
}

// TestChaosKillDurableCallTrees hard-kills a node between two phases of
// concurrent call-tree traffic with durability on, each tree fanning out to
// leaves of its own like an ingest aggregator over its devices: the victim's
// leaves re-activate on the survivors from their replicated snapshots, and
// every leaf still counts exactly the fans its tree received across both
// phases.
func TestChaosKillDurableCallTrees(t *testing.T) {
	trees := newCallTrees(12, 4)
	survivors, onVictim := killMidCallTrees(t, 1, trees)
	trees.auditExact(t, survivors)
	if recoveredWithState(survivors) == 0 {
		t.Errorf("%d leaves were on the victim, but no survivor recovered a snapshot", onVictim)
	}
}

// TestChaosKillDurableSharedLeaves runs the same kill over trees whose leaves
// overlap, so a recovered leaf must carry the legs of every hub that wrote
// to it before the kill, on whichever node each ran, and go on taking theirs
// concurrently afterwards.
func TestChaosKillDurableSharedLeaves(t *testing.T) {
	trees := newSharedCallTrees(12, 4)
	survivors, onVictim := killMidCallTrees(t, 1, trees)
	trees.auditExact(t, survivors)
	if recoveredWithState(survivors) == 0 {
		t.Errorf("%d leaves were on the victim, but no survivor recovered a snapshot", onVictim)
	}
}

// TestChaosKillCallTreesWithoutDurabilityLosesState is the control for the
// two kill tests: the identical kill with no durable replicas still serves
// every fan through failover, but the victim's leaves come back empty, so the
// audit finds legs lost and none executed twice.
func TestChaosKillCallTreesWithoutDurabilityLosesState(t *testing.T) {
	trees := newCallTrees(12, 4)
	survivors, onVictim := killMidCallTrees(t, 0, trees)
	off := trees.audit(t, survivors)
	for _, m := range off {
		if m.got > m.want {
			t.Errorf("leaf %s counted %d legs, more than the %d its tree was fanned", m.key, m.got, m.want)
		}
	}
	if len(off) == 0 {
		t.Errorf("%d leaves were on the victim, yet every count survived with durability off", onVictim)
	}
	if n := recoveredWithState(survivors); n != 0 {
		t.Errorf("survivors recovered %d snapshots with durability off", n)
	}
}
