package actor

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actop/internal/codec"
	"actop/internal/transport"
)

// newFaultyCluster builds an n-node in-memory cluster where every node's
// transport is wrapped in a Flaky, so tests can partition, kill, and revive
// individual nodes at runtime. The detector runs fast (interval 50ms) to
// keep failure tests short.
func newFaultyCluster(t *testing.T, n int, placement PlacementPolicy, tweak func(*Config)) ([]*System, []*transport.Flaky) {
	t.Helper()
	net := transport.NewNetwork(0)
	peers := make([]transport.NodeID, n)
	flakies := make([]*transport.Flaky, n)
	for i := 0; i < n; i++ {
		peers[i] = transport.NodeID(fmt.Sprintf("fn-%d", i))
		flakies[i] = transport.NewFlaky(net.Join(peers[i]), int64(1000+i))
	}
	systems := make([]*System, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Transport: flakies[i], Peers: peers,
			Placement: placement, Seed: int64(7 + i),
			CallTimeout:       4 * time.Second,
			HeartbeatInterval: 50 * time.Millisecond,
			SuspectAfter:      2,
			DeadAfter:         5,
			RetryBackoff:      5 * time.Millisecond,
		}
		if tweak != nil {
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
	return systems, flakies
}

// waitPeerState polls until observer sees peer in want, or fails the test.
func waitPeerState(t *testing.T, observer *System, peer transport.NodeID, want PeerState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if observer.PeerStateOf(peer) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never saw %s reach %s (is %s)", observer.Node(), peer, want, observer.PeerStateOf(peer))
}

// TestKillNodeFailover is the acceptance scenario: a 3-node cluster loses a
// node mid-traffic. Calls to actors that lived on the victim must succeed —
// re-activated on survivors — within twice the detection threshold, with no
// duplicated turn from the retries, and shutting everything down afterwards
// must leak no goroutines.
func TestKillNodeFailover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sys, flakies := newFaultyCluster(t, 3, PlaceRandom, nil)
	victim := 2
	victimID := sys[victim].Node()

	// Spread actors across the cluster and record who hosts what. Every
	// actor gets one Add(1) so post-kill values prove exactly-once effects.
	const actors = 12
	hosts := make(map[string]transport.NodeID, actors)
	for k := 0; k < actors; k++ {
		ref := Ref{Type: "counter", Key: fmt.Sprintf("fo-%d", k)}
		if err := sys[0].Call(ref, "Add", 1, nil); err != nil {
			t.Fatalf("warmup %s: %v", ref, err)
		}
		var where string
		if err := sys[0].Call(ref, "WhereAmI", nil, &where); err != nil {
			t.Fatalf("locate %s: %v", ref, err)
		}
		hosts[ref.Key] = transport.NodeID(where)
	}
	onVictim := 0
	for _, h := range hosts {
		if h == victimID {
			onVictim++
		}
	}
	if onVictim == 0 {
		t.Fatalf("random placement put no actor on %s; adjust seeds", victimID)
	}

	// Kill the victim: its process keeps running but no traffic flows.
	flakies[victim].Kill()

	// Detection threshold: the first ping to go unanswered leaves within one
	// heartbeat interval of the kill, and each of DeadAfter misses takes one
	// interval to time out — DeadAfter+1 intervals, plus one of slack
	// (TestDeadVerdictWithinBound holds the detector to the tighter bound).
	cfg := sys[0].Config()
	detection := time.Duration(cfg.DeadAfter+2) * cfg.HeartbeatInterval
	allowed := 2 * detection

	for k := 0; k < actors; k++ {
		ref := Ref{Type: "counter", Key: fmt.Sprintf("fo-%d", k)}
		start := time.Now()
		var got int
		if err := sys[0].Call(ref, "Add", 1, &got); err != nil {
			t.Fatalf("post-kill call %s (hosted on %s): %v", ref, hosts[ref.Key], err)
		}
		elapsed := time.Since(start)
		if hosts[ref.Key] == victimID {
			if elapsed > allowed {
				t.Errorf("failover call %s took %v, want <= %v", ref, elapsed, allowed)
			}
			// State died with the node; a fresh activation counted exactly
			// this one Add. 2 would mean a retry double-executed the turn.
			if got != 1 {
				t.Errorf("%s after failover = %d, want 1 (exactly-once)", ref, got)
			}
			var where string
			if err := sys[0].Call(ref, "WhereAmI", nil, &where); err != nil {
				t.Fatalf("re-locate %s: %v", ref, err)
			}
			if transport.NodeID(where) == victimID {
				t.Errorf("%s still reports dead host %s", ref, where)
			}
		} else if got != 2 {
			// Survivor-hosted actors keep their history: warmup + this Add.
			t.Errorf("%s on survivor = %d, want 2 (exactly-once)", ref, got)
		}
	}
	if sys[0].PeerStateOf(victimID) != PeerDead {
		t.Errorf("victim state on caller = %s, want dead", sys[0].PeerStateOf(victimID))
	}
	if f := sys[0].Failures(); f.Deaths == 0 || f.Retries == 0 {
		t.Errorf("failure counters did not move: %+v", f)
	}

	// The cluster debug fan-outs skip the dead peer: a silent one would
	// hold each for a full CallTimeout. The other survivor still answers.
	waitPeerState(t, sys[1], victimID, PeerDead, allowed)
	hot := ""
	for k, h := range hosts {
		if h == sys[1].Node() {
			hot = k
		}
	}
	if hot == "" {
		t.Fatalf("random placement put no actor on %s; adjust seeds", sys[1].Node())
	}
	for i := 0; i < 40; i++ {
		if err := sys[0].Call(Ref{Type: "counter", Key: hot}, "Add", 1, nil); err != nil {
			t.Fatalf("warm %s: %v", hot, err)
		}
	}
	start := time.Now()
	table := sys[0].ClusterHotspots(10)
	sys[0].ClusterSpans(1)
	if elapsed := time.Since(start); elapsed > cfg.CallTimeout/4 {
		t.Errorf("cluster hotspots and spans took %v with %s dead, want under %v", elapsed, victimID, cfg.CallTimeout/4)
	}
	var fromSurvivor bool
	for _, e := range table {
		fromSurvivor = fromSurvivor || e.Node == string(sys[1].Node())
	}
	if !fromSurvivor {
		t.Errorf("cluster hotspots lack %s's rows: %+v", sys[1].Node(), table)
	}

	// No goroutine leaks: stop everything (Cleanup order would do it too,
	// but we must measure while the test still runs).
	for _, s := range sys {
		s.Stop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked after Stop: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestDeadVerdictWithinBound pins the detector's documented bound: a peer
// that falls silent is dead DeadAfter+1 heartbeat intervals after the kill at
// the latest — one interval until the first ping that goes unanswered, then
// one per miss — so the observer's PeerDead transition must arrive within
// DeadAfter+1.5 intervals. A detector that skips a tick while a timed-out
// ping is still in flight spends two intervals per miss and fails here.
// A dead node's directory ranges spread evenly over the survivors: over
// 10 000 refs each survivor owns its share to within 3 points. Node ids
// that differ only in their last byte are the common case (host:port, a
// numbered name), and unfinalized FNV-1a split them 30/24/46 %.
func TestDeadOwnerRangesSpreadEvenly(t *testing.T) {
	for _, tc := range []struct {
		victim    transport.NodeID
		survivors []transport.NodeID
	}{
		{"node-3", []transport.NodeID{"node-0", "node-1", "node-2"}},
		{"127.0.0.1:17001", []transport.NodeID{"127.0.0.1:17002", "127.0.0.1:17003"}},
	} {
		peers := append([]transport.NodeID{tc.victim}, tc.survivors...)
		s, err := NewSystem(Config{
			Transport: transport.NewNetwork(0).Join(tc.survivors[0]), Peers: peers,
			HeartbeatInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.cfg.DeadAfter; i++ {
			s.heartbeatResult(tc.victim, false)
		}
		if st := s.PeerStateOf(tc.victim); st != PeerDead {
			t.Fatalf("victim is %v after %d misses", st, s.cfg.DeadAfter)
		}
		const refs = 10_000
		owned := map[transport.NodeID]int{}
		for i, n := 0, 0; n < refs; i++ {
			ref := Ref{Type: "kv", Key: fmt.Sprintf("k%d", i)}
			if s.peers[uint64(ref.Vertex())%uint64(len(s.peers))] != tc.victim {
				continue
			}
			owned[s.directoryOwner(ref)]++
			n++
		}
		s.Stop()
		want := 100.0 / float64(len(tc.survivors))
		for _, p := range tc.survivors {
			if got := 100 * float64(owned[p]) / refs; got < want-3 || got > want+3 {
				t.Errorf("%s owns %.1f %% of %s's ranges, want %.1f ± 3 (split %v)", p, got, tc.victim, want, owned)
			}
		}
	}
}

func TestDeadVerdictWithinBound(t *testing.T) {
	sys, flakies := newFaultyCluster(t, 2, PlaceRandom, nil)
	observer, victim := sys[0], sys[1].Node()
	cfg := observer.Config()
	dead := make(chan time.Time, 1)
	observer.OnMembershipChange(func(p transport.NodeID, st PeerState) {
		if p == victim && st == PeerDead {
			select {
			case dead <- time.Now():
			default:
			}
		}
	})
	// A few heartbeats succeed first, so the kill lands mid-rhythm.
	time.Sleep(3 * cfg.HeartbeatInterval)
	if st := observer.PeerStateOf(victim); st != PeerAlive {
		t.Fatalf("victim is %s before the kill", st)
	}
	killed := time.Now()
	flakies[1].Kill()
	bound := time.Duration(2*cfg.DeadAfter+3) * cfg.HeartbeatInterval / 2
	select {
	case at := <-dead:
		if took := at.Sub(killed); took > bound {
			t.Fatalf("dead verdict %v after the kill, want within %v (DeadAfter %d, interval %v)",
				took, bound, cfg.DeadAfter, cfg.HeartbeatInterval)
		}
	case <-time.After(4 * bound):
		t.Fatalf("no dead verdict within %v of the kill", 4*bound)
	}
}

// TestRetryDoesNotDoubleExecute pins the reply-dedup window: when every
// reply from the callee is lost, the caller's retries re-deliver the same
// call id and the callee must execute the turn exactly once.
func TestRetryDoesNotDoubleExecute(t *testing.T) {
	sys, flakies := newFaultyCluster(t, 2, PlaceLocal, func(c *Config) {
		c.CallTimeout = 700 * time.Millisecond
		c.DeadAfter = 1000 // keep the victim suspect, never dead
	})
	// Home the directory entry on node 0 so the caller's lookup never
	// crosses the lossy link; host the activation on node 1 (PlaceLocal).
	var ref Ref
	for k := 0; ; k++ {
		ref = Ref{Type: "counter", Key: fmt.Sprintf("dd-%d", k)}
		if sys[0].directoryOwner(ref) == sys[0].Node() {
			break
		}
	}
	if err := sys[1].Call(ref, "Add", 0, nil); err != nil {
		t.Fatal(err)
	}
	if !sys[1].HostsActor(ref) {
		t.Fatalf("%s not hosted on %s", ref, sys[1].Node())
	}

	// All of node 1's outbound vanishes: calls arrive, replies are lost.
	flakies[1].SetDrop(1.0)
	err := sys[0].Call(ref, "Add", 1, nil)
	if err == nil {
		t.Fatal("call succeeded with all replies dropped")
	}
	flakies[1].SetDrop(0)

	var got int
	if cerr := sys[0].Call(ref, "Get", nil, &got); cerr != nil {
		t.Fatal(cerr)
	}
	if got != 1 {
		t.Fatalf("counter = %d after retried Add(1), want exactly 1", got)
	}
	if f := sys[0].Failures(); f.Retries == 0 {
		t.Errorf("caller recorded no retries: %+v", f)
	}
	if f := sys[1].Failures(); f.DedupHits == 0 {
		t.Errorf("callee recorded no dedup hits: %+v", f)
	}
}

// TestDuplicateDeliveryDedup drives a call delivery directly with a duplicated
// envelope — the wire-level shape of a retry — and checks the turn runs
// once. The duplicate arrives while the turn runs, or after its reply went
// out (a retry after a lost reply) to a turn that returned an error reading
// like a routing dead end: the text a turn propagates when one of its own
// calls hits one on another node. A turn's outcome is recorded whatever its
// text says.
func TestDuplicateDeliveryDedup(t *testing.T) {
	for _, tc := range []struct {
		name       string
		turnErr    error
		afterReply bool
	}{
		{name: "in-flight"},
		{name: "after-reply-routing-text", turnErr: errors.New("actor: cannot route leaf/1"), afterReply: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, _ := newFaultyCluster(t, 2, PlaceLocal, nil)
			var execs atomic.Int64
			for _, s := range sys {
				s.RegisterType("exec", func() Actor {
					return execCountActor{execs: &execs, err: tc.turnErr}
				})
			}
			ref := Ref{Type: "exec", Key: "once"}
			if err := sys[1].Call(ref, "Hit", nil, nil); err != nil && tc.turnErr == nil {
				t.Fatal(err)
			}
			execs.Store(0)

			const id = 424242
			env := &transport.Envelope{
				Kind: transport.KindCall, ID: id, From: sys[0].Node(),
				ActorType: ref.Type, ActorKey: ref.Key, Method: "Hit",
			}
			dup := *env
			// awaitReply waits for the reply sys[1] sends sys[0] for id.
			awaitReply := func(w *callWaiter) {
				t.Helper()
				out, err := sys[0].await(w, 2*time.Second)
				if err != nil {
					t.Fatalf("no reply to the delivery: %v", err)
				}
				if _, errStr := detachReply(out.reply); errStr != tc.turnErr.Error() {
					t.Fatalf("reply error %q, want the turn's %q", errStr, tc.turnErr)
				}
			}
			var first, replay *callWaiter
			if tc.afterReply {
				first = sys[0].waiter(id)
			}
			sys[1].newServerCall(env).handle(0)
			if tc.afterReply {
				awaitReply(first)
				replay = sys[0].waiter(id)
			}
			sys[1].newServerCall(&dup).handle(0)
			if tc.afterReply {
				awaitReply(replay)
			}

			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) && execs.Load() == 0 {
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond) // would catch a late double execution
			if n := execs.Load(); n != 1 {
				t.Fatalf("duplicate delivery executed the turn %d times, want 1", n)
			}
			if f := sys[1].Failures(); f.DedupHits == 0 {
				t.Errorf("no dedup hit recorded: %+v", f)
			}
		})
	}
}

// execCountActor counts how many turns actually ran; each returns err.
type execCountActor struct {
	execs *atomic.Int64
	err   error
}

func (e execCountActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	e.execs.Add(1)
	return nil, e.err
}

// TestPanicIsolation checks a panicking actor method is converted into an
// error reply and a fresh activation, not a crashed node.
func TestPanicIsolation(t *testing.T) {
	sys := newCluster(t, 1, PlaceRandom)[0]
	sys.RegisterType("panicky", func() Actor { return &panickyActor{} })
	ref := Ref{Type: "panicky", Key: "p"}
	if err := sys.Call(ref, "Add", nil, nil); err != nil {
		t.Fatal(err)
	}
	err := sys.Call(ref, "Boom", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking method returned %v, want a panic error", err)
	}
	// The node survived and the faulty instance was retired: state resets.
	var got int
	if err := sys.Call(ref, "Get", nil, &got); err != nil {
		t.Fatalf("call after panic: %v", err)
	}
	if got != 0 {
		t.Fatalf("state after panic = %d, want 0 (fresh instance)", got)
	}
	if f := sys.Failures(); f.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", f.Panics)
	}
}

type panickyActor struct{ n int }

func (p *panickyActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Add":
		p.n++
		return nil, nil
	case "Get":
		return codec.Marshal(p.n)
	case "Boom":
		panic("kaboom")
	}
	return nil, fmt.Errorf("no method %q", method)
}

// TestMembershipTransitions walks the detector through
// alive→suspect→dead→alive and checks watcher notifications and counters.
func TestMembershipTransitions(t *testing.T) {
	sys, flakies := newFaultyCluster(t, 2, PlaceRandom, func(c *Config) {
		c.HeartbeatInterval = 30 * time.Millisecond
		c.DeadAfter = 4
	})
	peer := sys[1].Node()
	var mu sync.Mutex
	var seen []PeerState
	sys[0].OnMembershipChange(func(n transport.NodeID, st PeerState) {
		if n == peer {
			mu.Lock()
			seen = append(seen, st)
			mu.Unlock()
		}
	})

	flakies[1].Kill()
	waitPeerState(t, sys[0], peer, PeerDead, 5*time.Second)
	flakies[1].Revive()
	waitPeerState(t, sys[0], peer, PeerAlive, 5*time.Second)

	mu.Lock()
	got := append([]PeerState(nil), seen...)
	mu.Unlock()
	want := []PeerState{PeerSuspect, PeerDead, PeerAlive}
	if len(got) < len(want) {
		t.Fatalf("transitions = %v, want at least %v", got, want)
	}
	for i, st := range want {
		if got[i] != st {
			t.Fatalf("transition %d = %s, want %s (all: %v)", i, got[i], st, got)
		}
	}
	f := sys[0].Failures()
	if f.Suspects == 0 || f.Deaths == 0 || f.Revivals == 0 {
		t.Errorf("counters = %+v, want suspects/deaths/revivals all > 0", f)
	}
	if st := sys[0].Membership()[peer]; st != PeerAlive {
		t.Errorf("membership[%s] = %s, want alive", peer, st)
	}
}

// TestStopTerminatesBackgroundWork stops a node while its retry and orphan
// cleanup loops are live against a dead peer; Stop must return promptly and
// take the background goroutines with it.
func TestStopTerminatesBackgroundWork(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sys, flakies := newFaultyCluster(t, 2, PlaceLocal, func(c *Config) {
		c.CallTimeout = 300 * time.Millisecond
	})
	ref := Ref{Type: "counter", Key: "bg"}
	if err := sys[0].Call(ref, "Add", 1, nil); err != nil {
		t.Fatal(err)
	}
	flakies[1].Kill()
	// A migration into the (not yet detected) dead peer fails and leaves a
	// background orphan-drop loop retrying against it.
	if err := sys[0].Migrate(ref, sys[1].Node()); err == nil {
		t.Fatal("migrate into a killed node succeeded")
	}
	// A call retry loop in flight too.
	go func() { _ = sys[0].Call(Ref{Type: "counter", Key: "bg2"}, "Add", 1, nil) }()
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	sys[0].Stop()
	sys[1].Stop()
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("Stop took %v", took)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
