package transport

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPCloseUnderLoad hammers a receiver with concurrent senders and
// closes it mid-flood. Close's contract: when it returns, no handler
// invocation is in flight and none will start. The in-flight gauge must
// read zero right after Close, and the closed flag set immediately after
// Close returns must never be observed by a handler entry. Run with -race
// (the Makefile check target does) to shake out shutdown races.
func TestTCPCloseUnderLoad(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var (
		inFlight     atomic.Int64
		delivered    atomic.Int64
		closeDone    atomic.Bool
		startedAfter atomic.Int64
	)
	b.SetHandler(func(env *Envelope) {
		if closeDone.Load() {
			startedAfter.Add(1)
		}
		inFlight.Add(1)
		time.Sleep(100 * time.Microsecond) // widen the race window
		delivered.Add(1)
		inFlight.Add(-1)
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, 128)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected once b goes down; keep flooding.
				_ = a.Send(b.Node(), &Envelope{ID: i, Payload: payload})
			}
		}()
	}

	// Let traffic establish, then close under load.
	waitFor(t, func() bool { return delivered.Load() > 50 }, "no traffic before close")
	b.Close()
	closeDone.Store(true)
	if n := inFlight.Load(); n != 0 {
		t.Errorf("%d handler invocations in flight after Close returned", n)
	}
	close(stop)
	wg.Wait()
	// Give any straggling (buggy) dispatch a chance to fire before asserting.
	time.Sleep(10 * time.Millisecond)
	if n := startedAfter.Load(); n != 0 {
		t.Errorf("%d handler invocations started after Close returned", n)
	}
}

// TestTCPUnreachableError pins the Send error semantics: a dial failure is
// ErrUnreachable (the address is known but not answering), NOT
// ErrUnknownNode (which the in-memory transport reserves for addresses that
// were never part of the network).
func TestTCPUnreachableError(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	serr := a.Send("127.0.0.1:1", &Envelope{})
	if serr == nil {
		t.Fatal("expected dial error")
	}
	if !errors.Is(serr, ErrUnreachable) {
		t.Fatalf("dial failure = %v, want ErrUnreachable", serr)
	}
	if errors.Is(serr, ErrUnknownNode) {
		t.Fatalf("dial failure reported as ErrUnknownNode: %v", serr)
	}
	// A dial failure must not leave a half-built peer behind.
	a.mu.Lock()
	n := len(a.peers)
	a.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d peers cached after failed dial", n)
	}
}

// TestTCPWriterRedial kills the receiver and restarts it on the same
// address: the established connection dies, and the Send whose write fails
// must redial once and retransmit, so traffic flows again without the
// caller doing anything special — and without an error, since the peer is
// back by then.
func TestTCPWriterRedial(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := string(b.Node())

	var before atomic.Int64
	b.SetHandler(func(env *Envelope) { before.Add(1) })
	if err := a.Send(b.Node(), &Envelope{ID: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return before.Load() == 1 }, "no delivery before restart")

	b.Close()
	b2, err := ListenTCP(addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer b2.Close()
	var after atomic.Int64
	b2.SetHandler(func(env *Envelope) { after.Add(1) })

	// The first write after the restart may land in the dead socket's
	// kernel buffer; keep sending until one arrives through a redialed
	// connection.
	deadline := time.After(5 * time.Second)
	for after.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no delivery after peer restart: the sender never redialed")
		default:
		}
		if err := a.Send(b2.Node(), &Envelope{ID: 2}); err != nil {
			t.Fatalf("send across the restart: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One redial, not one per send: the peer kept its slot with the new socket.
	a.mu.Lock()
	n := len(a.peers)
	a.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d peers after the redial, want 1", n)
	}
}

// TestTCPConcurrentSendersOrdered: senders write on their own goroutines
// under the peer's write mutex, sharing flushes. Nothing may be lost, and
// one sender's envelopes must arrive in the order it sent them.
func TestTCPConcurrentSendersOrdered(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const senders, each = 8, 2000
	var (
		mu       sync.Mutex
		next     [senders]uint64 // next sequence number expected per sender
		got      int
		disorder int
	)
	b.SetHandler(func(env *Envelope) {
		mu.Lock()
		defer mu.Unlock()
		g := int(env.ID >> 32)
		if seq := env.ID & 0xffffffff; seq != next[g] {
			disorder++
		}
		next[g]++
		got++
	})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := a.Send(b.Node(), &Envelope{ID: uint64(g)<<32 | uint64(i), Payload: []byte{byte(g)}}); err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return got == senders*each }, "envelopes lost")
	if disorder != 0 {
		t.Fatalf("%d envelopes arrived out of their sender's order", disorder)
	}
}

// goroutinesIn counts the live goroutines with fn on their stack.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, fn) {
			n++
		}
	}
	return n
}

// TestTCPGoroutinesPerConnection: a connection has one goroutine, its
// reader. Sending starts none, and the handler runs on the reader.
func TestTCPGoroutinesPerConnection(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	onReader := make(chan bool, 1)
	b.SetHandler(func(env *Envelope) {
		buf := make([]byte, 1<<14)
		onReader <- strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*TCP).readLoop")
	})
	if err := a.Send(b.Node(), &Envelope{ID: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-onReader:
		if !ok {
			t.Error("handler did not run on the connection's read loop")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no delivery")
	}
	if n := goroutinesIn("(*TCP).readLoop"); n != 1 {
		t.Errorf("%d read loops for one connection", n)
	}
	// Two accept loops and the reader: no writer, no dispatcher.
	if n := goroutinesIn("transport.(*TCP)."); n != 3 {
		t.Errorf("%d transport goroutines for two nodes and one connection, want 3", n)
	}
}

// TestTCPCloseReleasesBlockedSend: a receiver that stops reading fills the
// socket, and Send blocks in its write — the backpressure. Close must
// release it.
func TestTCPCloseReleasesBlockedSend(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	b.SetHandler(func(env *Envelope) { <-release }) // the read loop stalls on the first envelope
	defer func() {
		close(release)
		b.Close()
	}()

	var sent atomic.Int64
	result := make(chan error, 1)
	go func() {
		payload := make([]byte, 64<<10)
		for {
			if err := a.Send(b.Node(), &Envelope{Payload: payload}); err != nil {
				result <- err
				return
			}
			sent.Add(1)
		}
	}()
	// Blocked means: progress stopped for a while, well after it started.
	waitFor(t, func() bool {
		n := sent.Load()
		time.Sleep(50 * time.Millisecond)
		return n > 0 && sent.Load() == n
	}, "sender never blocked on the full socket")
	a.Close()
	select {
	case err := <-result:
		if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrUnreachable) {
			t.Fatalf("released Send returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not release the blocked Send")
	}
}
