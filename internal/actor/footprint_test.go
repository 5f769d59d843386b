package actor

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// What a node keeps resident per ref, per activation and per recent remote
// call bounds how many actors it can hold (DESIGN.md "Scale: the sharded
// state plane"). These guards fail when a field goes back to a wide
// encoding — a node id as a string instead of a node-table index, a
// time.Time in an activation — or when an idle activation keeps its mailbox.

// TestFootprintSizes pins the resident structs at their sizes: a
// state-table entry, an activation and a reply-dedup slot. A field added to
// one of them has to move this pin, in the open.
func TestFootprintSizes(t *testing.T) {
	for _, c := range []struct {
		name     string
		got, max uintptr
	}{
		{"refEntry", unsafe.Sizeof(refEntry{}), 72},
		{"activation", unsafe.Sizeof(activation{}), 128},
		{"dedupSlot", unsafe.Sizeof(dedupSlot{}), 56},
	} {
		if c.got > c.max {
			t.Errorf("%s is %d bytes, budget %d", c.name, c.got, c.max)
		}
	}
	// A lookup reads ref, act, route and the chain link: they stay in the
	// entry's first 56 bytes (see refEntry).
	var e refEntry
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"ref", unsafe.Offsetof(e.ref), unsafe.Sizeof(e.ref)},
		{"act", unsafe.Offsetof(e.act), unsafe.Sizeof(e.act)},
		{"route", unsafe.Offsetof(e.route), unsafe.Sizeof(e.route)},
		{"next", unsafe.Offsetof(e.next), unsafe.Sizeof(e.next)},
	} {
		if end := f.off + f.size; end > 56 {
			t.Errorf("refEntry.%s ends at byte %d, past the lookup's 56", f.name, end)
		}
	}
}

// idleActor has no fields: an activation of it costs the runtime's share
// alone.
type idleActor struct{}

func (idleActor) Receive(*Context, string, []byte) ([]byte, error) { return nil, nil }

// TestFootprintIdleMailbox: once a call has returned, its callee holds no
// mailbox — on a local byte call, a local value call and a remote delivery.
// The drain pops the call's invocation before its turn runs, and that pop
// empties the mailbox and hands it back to the node's pool.
func TestFootprintIdleMailbox(t *testing.T) {
	check := func(s *System, ref Ref, how string) {
		t.Helper()
		a := s.localActivation(refHash(ref), ref)
		if a == nil {
			t.Fatalf("%s: %s not active on %s", how, ref, s.Node())
		}
		a.mu.Lock()
		held := a.mbox != nil
		a.mu.Unlock()
		if held {
			t.Errorf("%s: idle activation %s still holds a mailbox", how, ref)
		}
	}

	sys := newValNode(t)
	sys.RegisterType("idle", func() Actor { return idleActor{} })
	idle := Ref{Type: "idle", Key: "a"}
	for i := 0; i < 3; i++ {
		if err := sys.Call(idle, "Touch", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	check(sys, idle, "local byte call")
	val := Ref{Type: "val", Key: "a"}
	for i := 0; i < 3; i++ {
		var r valReply
		if err := sys.Call(val, "AddVal", valArgs{N: 1}, &r); err != nil {
			t.Fatal(err)
		}
	}
	check(sys, val, "local value call")

	pair := newEchoPair(t, false, Config{}, nil)
	echo := Ref{Type: "echo", Key: "a"}
	var m echoMsg
	if err := pair[1].Call(echo, "Echo", echoMsg{}, &m); err != nil { // placed on pair[1]
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := pair[0].Call(echo, "Echo", echoMsg{}, &m); err != nil {
			t.Fatal(err)
		}
	}
	if n := pair[1].Stats().CallsRemote; n != 0 {
		t.Fatalf("callee made %d remote calls, want none", n)
	}
	if n := pair[0].Stats().CallsRemote; n == 0 {
		t.Fatal("the calls from pair[0] were not remote")
	}
	check(pair[1], echo, "remote delivery")
}

// residentActors is how many activations TestFootprintBytesPerActivation
// makes on one node.
const residentActors = 20_000

// bytesPerActivationBudget is ~20 % above the measured runtime bytes per
// idle activation (336 B, go1.24, linux/amd64): its activation, its
// state-table entry and index slot, and its drain closure. With node ids
// as strings in the entry, the durable fields in every activation and a
// mailbox array kept by each idle one, the same test read 521 B.
const bytesPerActivationBudget = 400

// TestFootprintBytesPerActivation measures what one idle activation keeps
// resident on a node: residentActors zero-field actors activated by one call
// each, the heap collected before and after, the difference over their
// number. The keys are built before the first reading, so the caller's
// strings are not counted.
func TestFootprintBytesPerActivation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations and its sync.Pool drops move the heap")
	}
	sys := newShardTestSystem(t, 0, nil)
	sys.RegisterType("idle", func() Actor { return idleActor{} })
	refs := make([]Ref, residentActors)
	for i := range refs {
		refs[i] = Ref{Type: "idle", Key: fmt.Sprintf("idle-%d", i)}
	}
	before := liveHeapBytes()
	for _, ref := range refs {
		if err := sys.Call(ref, "Touch", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeapBytes()
	if n := sys.activationsLen(); n != residentActors {
		t.Fatalf("%d activations, want %d", n, residentActors)
	}
	per := float64(after-before) / residentActors
	t.Logf("%.0f resident bytes per idle activation (budget %d)", per, bytesPerActivationBudget)
	if per > bytesPerActivationBudget {
		t.Errorf("an idle activation keeps %.0f bytes resident, budget %d", per, bytesPerActivationBudget)
	}
	runtime.KeepAlive(refs)
}

// liveHeapBytes is the heap in use after a collection.
func liveHeapBytes() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
