package actor

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"actop/internal/codec"
	"actop/internal/transport"
)

// Warm-call allocation counts, pinned exactly: one more allocation on
// either path fails the test. The seed commit measured 13 and 35 here
// (a timer, one or two channels and two to four closures per call). What is
// left locally: boxing the argument copy and the result copy, and the drain
// batch's Context; remotely gob and the in-memory transport dominate.
const (
	localValueCallAllocs = 3
	memRemoteCallAllocs  = 38
)

// warmAllocs reports the allocations of one call to fn once everything fn
// touches is warm (activation, mailbox capacity, waiter and buffer pools).
func warmAllocs(t *testing.T, fn func()) float64 {
	t.Helper()
	for i := 0; i < 200; i++ {
		fn()
	}
	return testing.AllocsPerRun(500, fn)
}

func TestWaiterLocalValueCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	sys := newValNode(t)
	ref := Ref{Type: "val", Key: "pinned"}
	got := warmAllocs(t, func() {
		var r valReply
		if err := sys.Call(ref, "AddVal", valArgs{N: 1}, &r); err != nil {
			t.Fatal(err)
		}
	})
	if got != localValueCallAllocs {
		t.Fatalf("warm local value call: %.1f allocs, pinned at %d", got, localValueCallAllocs)
	}
}

func TestWaiterRemoteCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	sys := newCluster(t, 2, PlaceRandom)
	ref := Ref{Type: "counter", Key: "pinned"}
	if err := sys[1].Call(ref, "Get", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !sys[1].HostsActor(ref) {
		if err := sys[0].Migrate(ref, sys[1].Node()); err != nil {
			t.Fatal(err)
		}
	}
	got := warmAllocs(t, func() {
		var n int
		if err := sys[0].Call(ref, "Get", nil, &n); err != nil {
			t.Fatal(err)
		}
	})
	if got != memRemoteCallAllocs {
		t.Fatalf("warm in-memory remote call: %.1f allocs, pinned at %d", got, memRemoteCallAllocs)
	}
}

// TestWaiterLocalValueCallsHoldNoTimers is the heap guard: a burst of local
// value calls under the default five-second CallTimeout must not leave a
// timer per call behind. The seed commit armed a time.After per call, which
// this module's go 1.22 timer semantics keep alive until it fires: ≈60 MiB
// after 200 K calls.
func TestWaiterLocalValueCallsHoldNoTimers(t *testing.T) {
	sys := newValNodeTimeout(t, 5*time.Second)
	ref := Ref{Type: "val", Key: "heap"}
	call := func() {
		var r valReply
		if err := sys.Call(ref, "AddVal", valArgs{N: 1}, &r); err != nil {
			t.Fatal(err)
		}
	}
	call()
	before := liveHeap()
	for i := 0; i < 200000; i++ {
		call()
	}
	grown := int64(liveHeap()) - int64(before)
	t.Logf("live heap grew %.1f MiB over 200 K local value calls", float64(grown)/(1<<20))
	if grown > 8<<20 {
		t.Fatalf("live heap grew %.1f MiB over 200 K local value calls, want < 8 MiB", float64(grown)/(1<<20))
	}
}

// liveHeap forces a collection and reports the bytes it found reachable.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// stuckActor parks its turn until the test lets go, standing in for a turn
// stuck in a nested call to a dead peer.
type stuckActor struct{ entered, release chan struct{} }

func (a *stuckActor) Receive(*Context, string, []byte) ([]byte, error) { return nil, nil }

func (a *stuckActor) ReceiveValue(*Context, string, interface{}) (interface{}, error) {
	close(a.entered)
	<-a.release
	return nil, nil
}

// TestLocalValueCallReleasedByStop: a local value call blocked on a stuck
// turn must see Stop, not sit out the rest of its five-second CallTimeout.
func TestLocalValueCallReleasedByStop(t *testing.T) {
	sys := newValNodeTimeout(t, 5*time.Second)
	stuck := &stuckActor{entered: make(chan struct{}), release: make(chan struct{})}
	sys.RegisterType("stuck", func() Actor { return stuck })
	callErr := make(chan error, 1)
	go func() { callErr <- sys.Call(Ref{Type: "stuck", Key: "k"}, "Park", valArgs{}, nil) }()
	<-stuck.entered

	stopped := make(chan struct{})
	begin := time.Now()
	go func() { sys.Stop(); close(stopped) }() // waits for the parked turn's worker
	select {
	case err := <-callErr:
		if !errors.Is(err, ErrStopped) {
			t.Errorf("blocked call returned %v, want ErrStopped", err)
		}
		if d := time.Since(begin); d > 100*time.Millisecond {
			t.Errorf("blocked call outlived Stop by %v, want < 100ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Error("blocked local value call ignored Stop")
	}
	close(stuck.release)
	<-stopped
}

// TestWaiterTimedOutIsAbandoned: a waiter whose wait timed out must never
// come back out of the pool — its outcome may still be on the way.
func TestWaiterTimedOutIsAbandoned(t *testing.T) {
	sys := newValNode(t)
	lost := sys.waiter(0)
	if _, err := sys.await(lost, time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("await = %v, want ErrTimeout", err)
	}
	lost.complete(nil, "late", nil) // the turn finishes after its caller left
	for i := 0; i < 64; i++ {
		w := sys.waiter(0)
		if w == lost {
			t.Fatal("a timed-out waiter was handed to another call")
		}
		if len(w.ch) != 0 || len(w.timer.C) != 0 {
			t.Fatal("pool handed out a waiter with a pending outcome or tick")
		}
		defer callWaiters.Put(w)
	}
}

// TestWaiterNoTimeAfterInRuntime scans the package's non-test sources:
// time.After arms a timer nothing can stop, which under go 1.22 timer
// semantics stays live until it fires whatever the select chose.
func TestWaiterNoTimeAfterInRuntime(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if code, _, _ := strings.Cut(line, "//"); strings.Contains(code, "time.After(") {
				t.Errorf("%s:%d: time.After in runtime code; use a waiter or NewTimer+Stop", f, i+1)
			}
		}
	}
}

// echoMsg names the call it belongs to; echoActor returns it unchanged
// through both receive paths, after a pause the caller asked for.
type echoMsg struct {
	Key         string
	Caller, Seq int
	Pause       time.Duration
}

func (m echoMsg) CopyValue() interface{} { return m }

type echoActor struct{}

func (echoActor) Receive(_ *Context, _ string, args []byte) ([]byte, error) {
	var m echoMsg
	if err := codec.Unmarshal(args, &m); err != nil {
		return nil, err
	}
	time.Sleep(m.Pause)
	return codec.Marshal(m)
}

func (echoActor) ReceiveValue(_ *Context, _ string, args interface{}) (interface{}, error) {
	m := args.(echoMsg)
	time.Sleep(m.Pause)
	return m, nil
}

// dupReplies sends every reply twice through the transport it wraps.
type dupReplies struct{ transport.Transport }

func (d dupReplies) Send(to transport.NodeID, env *transport.Envelope) error {
	if env.Kind == transport.KindReply {
		_ = d.Transport.Send(to, env)
	}
	return d.Transport.Send(to, env)
}

// TestWaiterOwnershipStress hammers the pooled waiters from one node with
// local value calls and remote calls whose replies come back duplicated
// and, for a seeded share, later than an attempt waits; some turns outlast
// the whole call budget, so waiters time out on both paths while others
// are recycled at full rate. Whatever a caller receives must be the echo
// of its own call: a reply that reached a recycled waiter would carry
// another call's (key, caller, seq).
func TestWaiterOwnershipStress(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { waiterOwnershipStress(t, seed) })
	}
}

func waiterOwnershipStress(t *testing.T, seed int64) {
	const (
		callTimeout = 80 * time.Millisecond
		callers     = 8
		callsEach   = 120
		keys        = 6
	)
	net := transport.NewNetwork(0)
	peers := []transport.NodeID{"w0", "w1"}
	fl := transport.NewFlaky(net.Join("w1"), seed)
	// A fifth of w1's sends (replies, mostly) arrive after the attempt
	// that asked has given up: attempts wait 2×HeartbeatInterval.
	fl.SetDelay(0.2, 30*time.Millisecond)
	trs := []transport.Transport{net.Join("w0"), dupReplies{fl}}
	sys := make([]*System, len(peers))
	for i := range peers {
		s, err := NewSystem(Config{
			Transport: trs[i], Peers: peers, Seed: seed, Placement: PlaceLocal,
			CallTimeout: callTimeout, RetryBackoff: time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond, DeadAfter: 1 << 20,
			Workers: 2 * callers,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterType("echo", func() Actor { return echoActor{} })
		t.Cleanup(s.Stop)
		sys[i] = s
	}
	// PlaceLocal: the first caller hosts. L* live with the callers, R* across.
	for k := 0; k < keys; k++ {
		for i, prefix := range []string{"L", "R"} {
			ref := Ref{Type: "echo", Key: fmt.Sprintf("%s%d", prefix, k)}
			if err := sys[i].Call(ref, "Echo", echoMsg{Key: ref.Key}, nil); err != nil {
				t.Fatalf("placing %s: %v", ref, err)
			}
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	answered, timedOut := 0, 0
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 | int64(c)))
			for i := 0; i < callsEach; i++ {
				msg := echoMsg{Key: fmt.Sprintf("%c%d", "LR"[rng.Intn(2)], rng.Intn(keys)), Caller: c, Seq: i}
				if rng.Intn(30) == 0 {
					msg.Pause = callTimeout + callTimeout/2 // this call, and those queued behind it, time out
				}
				var got echoMsg
				err := sys[0].Call(Ref{Type: "echo", Key: msg.Key}, "Echo", msg, &got)
				mu.Lock()
				switch {
				case err == nil && got != msg:
					t.Errorf("seed %d: call %+v received the reply to %+v", seed, msg, got)
				case err == nil:
					answered++
				case errors.Is(err, ErrTimeout):
					timedOut++
				default:
					t.Errorf("seed %d: call %+v: %v", seed, msg, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	retries := sys[0].Failures().Retries
	t.Logf("seed %d: %d answered, %d timed out, %d attempts retried", seed, answered, timedOut, retries)
	if answered == 0 || timedOut == 0 || retries == 0 {
		t.Fatalf("seed %d: the stress missed a path: %d answered, %d timed out, %d retried", seed, answered, timedOut, retries)
	}
}
