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
	"actop/internal/seda"
	"actop/internal/transport"
)

// Warm-call allocation counts, pinned exactly: one more allocation on any
// path fails the test. The seed commit measured 13 and 35 on the first two
// (a timer, one or two channels and two to four closures per call). What is
// left locally is the actor's own: boxing the result it returns — a
// reference-free argument or result is handed over, not copied. Over the
// in-memory fabric gob and the fabric's own envelope copy and goroutine
// dominate. Over TCP with a message that encodes itself — the path the
// ledger measures — the one allocation is the actor's: the reply buffer it
// gives away. The runtime's share of a warm remote call is zero.
const (
	localValueCallAllocs = 1
	memRemoteCallAllocs  = 33
	tcpRemoteCallAllocs  = 1
)

// warmAllocs reports the allocations of one call to fn once everything fn
// touches is warm (activation, mailbox, waiter and buffer pools).
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

// TestWaiterLocalValueCallAllocsManyKeys spreads the pinned call over four
// times more co-located actors than the hot-spot sketch tracks, so that
// every profile fold evicts: a call must allocate what it does on one
// always-resident key.
func TestWaiterLocalValueCallAllocsManyKeys(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	sys := newValNode(t)
	refs := make([]Ref, 4*hotspotK)
	for i := range refs {
		refs[i] = Ref{Type: "val", Key: fmt.Sprintf("spread-%d", i)}
	}
	i := 0
	over := func(refs []Ref) float64 {
		return warmAllocs(t, func() {
			var r valReply
			// 1000: every reply is past the runtime's preallocated small
			// integers from an actor's first turn on, so boxing it costs
			// the same on a fresh actor as on a long-running one.
			if err := sys.Call(refs[i%len(refs)], "AddVal", valArgs{N: 1000}, &r); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	// Seven turns each: the sketch is full of first turns, and the turn
	// measured below is an actor's eighth — the one that folds, and evicts.
	for turn := 1; turn < profSample; turn++ {
		for _, ref := range refs {
			if err := sys.Call(ref, "AddVal", valArgs{N: 1000}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	many, one := over(refs), over(refs[:1])
	if many != one {
		t.Fatalf("warm local value call: %.1f allocs over %d keys, %.1f over one", many, len(refs), one)
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

// newEchoPair starts two nodes with the echo type registered, over loopback
// TCP or the in-memory fabric; tune, when set, adjusts node i's config (its
// transport included) before the node starts.
func newEchoPair(t *testing.T, tcp bool, cfg Config, tune func(i int, c *Config)) []*System {
	t.Helper()
	trs := make([]transport.Transport, 2)
	net := transport.NewNetwork(0)
	for i := range trs {
		if tcp {
			tr, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			trs[i] = tr
		} else {
			trs[i] = net.Join(transport.NodeID(fmt.Sprintf("w%d", i)))
		}
	}
	cfg.Peers = []transport.NodeID{trs[0].Node(), trs[1].Node()}
	cfg.Placement = PlaceLocal
	sys := make([]*System, len(trs))
	for i, tr := range trs {
		c := cfg
		c.Transport = tr
		if tune != nil {
			tune(i, &c)
		}
		s, err := NewSystem(c)
		if err != nil {
			t.Fatal(err)
		}
		s.RegisterType("echo", func() Actor { return echoActor{} })
		t.Cleanup(s.Stop)
		sys[i] = s
	}
	return sys
}

// resize sets st's pool to n workers and waits until a shrink's wake-ups
// are taken, so the next task meets the new pool.
func resize(st *seda.Stage, n int) {
	st.SetWorkers(n)
	for st.QueueLen() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// leanMsg is a message that encodes itself and decodes into storage it
// already has, and leanActor an actor that keeps the last one: between them
// a warm call allocates once, for the reply buffer Receive gives away.
type leanMsg struct {
	Seq uint64
	Pad []byte
}

func (m leanMsg) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendBytes(codec.AppendUvarint(dst, m.Seq), m.Pad), nil
}

func (m *leanMsg) UnmarshalBinary(data []byte) error {
	var err error
	if m.Seq, data, err = codec.ReadUvarint(data); err != nil {
		return err
	}
	pad, _, err := codec.ReadBytes(data)
	m.Pad = append(m.Pad[:0], pad...)
	return err
}

type leanActor struct{ last leanMsg }

func (a *leanActor) Receive(_ *Context, _ string, args []byte) ([]byte, error) {
	if err := codec.Unmarshal(args, &a.last); err != nil {
		return nil, err
	}
	return codec.Marshal(binCount(a.last.Seq))
}

// TestWaiterTCPRemoteCallAllocs pins the path the ledger's remote-call rung
// measures: a warm call over loopback TCP whose messages encode themselves.
// Every per-call object of the runtime — both envelopes and payload buffers
// of each direction, the client call record, the dedup slot, the turn's
// Context — comes from a pool or lives in one that does.
func TestWaiterTCPRemoteCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	sys := newEchoPair(t, true, Config{Seed: 1, CallTimeout: 3 * time.Second}, nil)
	for _, s := range sys {
		s.RegisterType("lean", func() Actor { return &leanActor{} })
	}
	ref := Ref{Type: "lean", Key: "pinned"}
	var args interface{} = leanMsg{Seq: 7, Pad: make([]byte, 64)} // boxed once, as the ledger's probe does
	got := new(binCount)
	call := func() {
		if err := sys[0].Call(ref, "Put", args, got); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys[1].Call(ref, "Put", args, nil); err != nil { // PlaceLocal: the first caller hosts
		t.Fatal(err)
	}
	// Warm every slot of the callee's dedup window, not just the pools: a
	// slot's first reply sizes the capacity its later ones reuse.
	for i := 0; i < dedupWindow; i++ {
		call()
	}
	if n := warmAllocs(t, call); n != tcpRemoteCallAllocs {
		t.Fatalf("warm TCP remote call: %.1f allocs, pinned at %d", n, tcpRemoteCallAllocs)
	}
	if *got != 7 || !sys[1].HostsActor(ref) {
		t.Fatalf("reply %d (want 7), hosted across the wire: %v", *got, sys[1].HostsActor(ref))
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

// echoMsg names the call it belongs to and carries a pad derived from that
// name; echoActor returns it unchanged through both receive paths, after a
// pause the caller asked for. It encodes itself, so over TCP every byte of
// it passes through the pooled envelopes and buffers.
type echoMsg struct {
	Key         string
	Caller, Seq int
	Pause       time.Duration
	Pad         string
}

// echoPad is the pad of call (caller, seq): its length and every byte
// depend on both, so bytes of another call's buffer cannot pass for it.
func echoPad(caller, seq int) string {
	pad := make([]byte, 1+(caller*31+seq*7)%90)
	for i := range pad {
		pad[i] = byte(caller*131 + seq*17 + i)
	}
	return string(pad)
}

func (m echoMsg) CopyValue() interface{} { return m }

func (m echoMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendString(dst, m.Key)
	dst = codec.AppendVarint(dst, int64(m.Caller))
	dst = codec.AppendVarint(dst, int64(m.Seq))
	dst = codec.AppendVarint(dst, int64(m.Pause))
	return codec.AppendString(dst, m.Pad), nil
}

func (m *echoMsg) UnmarshalBinary(data []byte) error {
	var caller, seq, pause int64
	var err error
	if m.Key, data, err = codec.ReadString(data); err != nil {
		return err
	}
	if caller, data, err = codec.ReadVarint(data); err != nil {
		return err
	}
	if seq, data, err = codec.ReadVarint(data); err != nil {
		return err
	}
	if pause, data, err = codec.ReadVarint(data); err != nil {
		return err
	}
	m.Caller, m.Seq, m.Pause = int(caller), int(seq), time.Duration(pause)
	m.Pad, _, err = codec.ReadString(data)
	return err
}

type echoActor struct{}

// Receive reads args again after the pause: the buffer is the request's
// pooled payload, and must still be this call's when the turn ends.
func (echoActor) Receive(_ *Context, _ string, args []byte) ([]byte, error) {
	var m echoMsg
	if err := codec.Unmarshal(args, &m); err != nil {
		return nil, err
	}
	time.Sleep(m.Pause)
	if err := codec.Unmarshal(args, &m); err != nil {
		return nil, err
	}
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

// TestWaiterOwnershipStress hammers the pooled call objects from one node —
// waiters, client call records, and over TCP the envelopes and payload
// buffers of both directions — with local value calls and remote calls
// whose replies come back duplicated and, for a seeded share, later than an
// attempt waits; some turns outlast the whole call budget, so waiters time
// out on both paths while others are recycled at full rate. Whatever a
// caller receives must be the echo of its own call, pad included: a reply
// that reached a recycled waiter, or bytes read from a recycled envelope or
// buffer, would carry another call's.
func TestWaiterOwnershipStress(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Run("mem", func(t *testing.T) { waiterOwnershipStress(t, false, seed) })
			t.Run("tcp", func(t *testing.T) { waiterOwnershipStress(t, true, seed) })
		})
	}
}

func waiterOwnershipStress(t *testing.T, tcp bool, seed int64) {
	const (
		callTimeout = 80 * time.Millisecond
		callers     = 8
		callsEach   = 120
		keys        = 6
	)
	var fl *transport.Flaky
	sys := newEchoPair(t, tcp, Config{
		Seed: seed, CallTimeout: callTimeout, RetryBackoff: time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond, DeadAfter: 1 << 20,
		Workers: 2 * callers,
	}, func(i int, c *Config) {
		if i == 1 {
			fl = transport.NewFlaky(c.Transport, seed)
			c.Transport = dupReplies{fl}
		}
	})
	// PlaceLocal: the first caller hosts. L* live with the callers, R* across.
	for k := 0; k < keys; k++ {
		for i, prefix := range []string{"L", "R"} {
			ref := Ref{Type: "echo", Key: fmt.Sprintf("%s%d", prefix, k)}
			if err := sys[i].Call(ref, "Echo", echoMsg{Key: ref.Key}, nil); err != nil {
				t.Fatalf("placing %s: %v", ref, err)
			}
		}
	}
	// From here a fifth of the callee's sends (replies, mostly) arrive after
	// the attempt that asked has given up: attempts wait 2×HeartbeatInterval.
	fl.SetDelay(0.2, 30*time.Millisecond)

	var wg sync.WaitGroup
	var mu sync.Mutex
	answered, timedOut := 0, 0
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 | int64(c)))
			for i := 0; i < callsEach; i++ {
				msg := echoMsg{Key: fmt.Sprintf("%c%d", "LR"[rng.Intn(2)], rng.Intn(keys)), Caller: c, Seq: i, Pad: echoPad(c, i)}
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

// gatedSends holds every Send while its gate is shut.
type gatedSends struct {
	transport.Transport
	mu   sync.Mutex
	gate chan struct{} // nil when open
}

func (g *gatedSends) shut() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedSends) open() {
	g.mu.Lock()
	close(g.gate)
	g.gate = nil
	g.mu.Unlock()
}

func (g *gatedSends) Send(to transport.NodeID, env *transport.Envelope) error {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return g.Transport.Send(to, env)
}

// TestWaiterAttemptOutlivedByQueuedSend: an attempt times out while its
// send task still waits behind a stalled sender, so the task runs — and
// returns its client call record to the pool — after its caller has moved
// on to the next attempt. The caller must leave that record alone (it is
// the send worker's from the submit on): every stale request goes out as
// the call it was, and the calls that follow echo their own bytes.
func TestWaiterAttemptOutlivedByQueuedSend(t *testing.T) {
	for _, fabric := range []string{"mem", "tcp"} {
		fabric := fabric
		t.Run(fabric, func(t *testing.T) {
			var gated *gatedSends
			sys := newEchoPair(t, fabric == "tcp", Config{
				Seed: 1, CallTimeout: 2 * time.Second, RetryBackoff: time.Millisecond,
				HeartbeatInterval: 10 * time.Millisecond, DeadAfter: 1 << 20,
			}, func(i int, c *Config) {
				if i == 0 {
					gated = &gatedSends{Transport: c.Transport}
					c.Transport = gated
				}
			})
			for _, s := range sys {
				_, _, send := s.Stages()
				resize(send, 1)
			}
			ref := Ref{Type: "echo", Key: "far"}
			if err := sys[1].Call(ref, "Echo", echoMsg{Key: ref.Key}, nil); err != nil {
				t.Fatal(err)
			}
			echo := func(caller, seq int) error {
				msg := echoMsg{Key: ref.Key, Caller: caller, Seq: seq, Pad: echoPad(caller, seq)}
				var got echoMsg
				if err := sys[0].Call(ref, "Echo", msg, &got); err != nil {
					return err
				}
				if got != msg {
					return fmt.Errorf("call %+v received the reply to %+v", msg, got)
				}
				return nil
			}
			if err := echo(0, 0); err != nil { // routes warm: what follows is one send task per attempt
				t.Fatal(err)
			}
			// The lone send worker stalls in the first call's Send; the second
			// call's attempts (20 ms each) time out with their tasks queued.
			gated.shut()
			errs := make(chan error, 2)
			for c := 1; c <= 2; c++ {
				c := c
				go func() { errs <- echo(c, 0) }()
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(70 * time.Millisecond)
			before := sys[0].Failures().Retries
			gated.open()
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
			if before == 0 {
				t.Fatal("no attempt timed out behind the stalled sender")
			}
			for seq := 1; seq <= 200; seq++ {
				if err := echo(3, seq); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// unencodable is an argument whose encoding fails.
type unencodable struct{}

func (unencodable) AppendBinary([]byte) ([]byte, error) { return nil, errors.New("no wire form") }

// TestWaiterEncodeFailureIsAccounted: a sampled call whose argument cannot
// be encoded ends like every other call, with a span that records why.
func TestWaiterEncodeFailureIsAccounted(t *testing.T) {
	sys := newEchoPair(t, false, Config{Seed: 1, CallTimeout: time.Second, TraceSampleRate: 1}, nil)
	err := sys[0].Call(Ref{Type: "echo", Key: "k"}, "Echo", unencodable{}, nil)
	if err == nil || !strings.Contains(err.Error(), "no wire form") {
		t.Fatalf("call = %v, want the encode error", err)
	}
	for _, sp := range sys[0].TraceRing().Snapshot(0) {
		if sp.Method == "Echo" && strings.Contains(sp.Err, "no wire form") {
			return
		}
	}
	t.Fatalf("no span records the failed call: %+v", sys[0].TraceRing().Snapshot(0))
}
