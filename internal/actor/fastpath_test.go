package actor

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"actop/internal/codec"
	"actop/internal/transport"
)

// opaqueArgs cannot be serialized at all — gob rejects func fields — so a
// call that succeeds with it proves the zero-copy value path ran end to
// end with no serialization anywhere.
type opaqueArgs struct {
	N   int
	Inc func(int) int
}

func (a opaqueArgs) CopyValue() interface{} { return a } // Inc is immutable; N is a value

// plainArgs takes the encoded path: no CopyValue, so the runtime falls back
// to marshal/unmarshal even for a local callee.
type plainArgs struct{ N int }

// valArgs rides the value path like opaqueArgs, without a closure per call.
type valArgs struct{ N int }

func (a valArgs) CopyValue() interface{} { return a }

// valReply crosses back by value through CopyValue + Assign.
type valReply struct{ N int }

func (r valReply) CopyValue() interface{} { return r }

// valActor implements both receive paths with identical semantics, as the
// ValueReceiver contract requires.
type valActor struct{ total int }

func (v *valActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "AddPlain":
		var a plainArgs
		if err := codec.Unmarshal(args, &a); err != nil {
			return nil, err
		}
		v.total += a.N
		return codec.Marshal(valReply{N: v.total})
	}
	return nil, fmt.Errorf("no method %q", method)
}

func (v *valActor) ReceiveValue(ctx *Context, method string, args interface{}) (interface{}, error) {
	switch method {
	case "AddOpaque":
		a := args.(opaqueArgs)
		v.total += a.Inc(a.N)
		return valReply{N: v.total}, nil
	case "AddPlain":
		v.total += args.(plainArgs).N
		return valReply{N: v.total}, nil
	case "AddVal":
		v.total += args.(valArgs).N
		return valReply{N: v.total}, nil
	}
	return nil, fmt.Errorf("no method %q", method)
}

func newValNode(t testing.TB) *System {
	t.Helper()
	return newValNodeTimeout(t, 3*time.Second)
}

func newValNodeTimeout(t testing.TB, callTimeout time.Duration) *System {
	t.Helper()
	net := transport.NewNetwork(0)
	tr := net.Join("solo")
	sys, err := NewSystem(Config{
		Transport: tr, Peers: []transport.NodeID{"solo"},
		CallTimeout: callTimeout, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterType("val", func() Actor { return &valActor{} })
	t.Cleanup(sys.Stop)
	return sys
}

// TestLocalValueCallZeroSerialization drives a local call whose arguments
// are unserializable (a func field): only the CopyValue path can deliver
// them, so success is proof that no serialization happened in either
// direction.
func TestLocalValueCallZeroSerialization(t *testing.T) {
	sys := newValNode(t)
	ref := Ref{Type: "val", Key: "k"}
	args := opaqueArgs{N: 20, Inc: func(n int) int { return n + 1 }}
	var reply valReply
	if err := sys.Call(ref, "AddOpaque", args, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.N != 21 {
		t.Fatalf("reply = %+v, want N=21", reply)
	}
	if err := sys.Call(ref, "AddOpaque", args, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.N != 42 {
		t.Fatalf("second reply = %+v, want N=42 (state lost?)", reply)
	}
	if st := sys.Stats(); st.CallsLocal != 2 || st.CallsRemote != 0 {
		t.Fatalf("stats = %+v, want 2 local / 0 remote", st)
	}
}

// TestLocalValueCallFewerAllocs compares the same local invocation through
// the value path (Copier args) and the encoded path (plain args): the value
// path must allocate well under half of what the serializing path does.
func TestLocalValueCallFewerAllocs(t *testing.T) {
	sys := newValNode(t)
	ref := Ref{Type: "val", Key: "allocs"}
	var reply valReply
	// Warm up: activate the actor and populate caches outside the count.
	if err := sys.Call(ref, "AddPlain", plainArgs{N: 0}, &reply); err != nil {
		t.Fatal(err)
	}

	fast := testing.AllocsPerRun(200, func() {
		var r valReply
		if err := sys.Call(ref, "AddOpaque", opaqueArgs{N: 1, Inc: func(n int) int { return n }}, &r); err != nil {
			t.Fatal(err)
		}
	})
	slow := testing.AllocsPerRun(200, func() {
		var r valReply
		if err := sys.Call(ref, "AddPlain", plainArgs{N: 1}, &r); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("value path %.1f allocs/op, encoded path %.1f allocs/op", fast, slow)
	if fast*2 > slow {
		t.Fatalf("value path allocates %.1f/op vs %.1f/op encoded — expected at least a 2x gap", fast, slow)
	}
}

// TestLocalValueCallIsolation checks the two copy points of the fast path:
// the callee sees an isolated argument copy, and the caller's reply cannot
// be mutated by the actor afterwards.
func TestLocalValueCallIsolation(t *testing.T) {
	net := transport.NewNetwork(0)
	tr := net.Join("solo")
	sys, err := NewSystem(Config{
		Transport: tr, Peers: []transport.NodeID{"solo"},
		CallTimeout: 3 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterType("mut", func() Actor { return &mutActor{} })
	t.Cleanup(sys.Stop)
	ref := Ref{Type: "mut", Key: "k"}

	args := sliceArgs{Vals: []int{1, 2, 3}}
	var reply sliceArgs
	if err := sys.Call(ref, "Mutate", args, &reply); err != nil {
		t.Fatal(err)
	}
	if args.Vals[0] != 1 {
		t.Fatalf("actor mutated the caller's args: %v", args.Vals)
	}
	if reply.Vals[0] != 100 {
		t.Fatalf("reply = %v, want actor's mutation visible", reply.Vals)
	}
	// The actor retained its slice; a second call mutates it again. If the
	// reply aliased actor state, the caller's first reply would change too.
	snapshot := reply.Vals[1]
	if err := sys.Call(ref, "Mutate", args, &sliceArgs{}); err != nil {
		t.Fatal(err)
	}
	if reply.Vals[1] != snapshot {
		t.Fatalf("reply aliases actor state: %v", reply.Vals)
	}
}

type sliceArgs struct{ Vals []int }

func (s sliceArgs) CopyValue() interface{} {
	if len(s.Vals) == 0 {
		s.Vals = nil
		return s
	}
	s.Vals = append([]int(nil), s.Vals...)
	return s
}

// mutActor mutates both its argument and its retained state slice.
type mutActor struct{ kept []int }

func (m *mutActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	return nil, fmt.Errorf("mutActor is value-only in this test")
}

func (m *mutActor) ReceiveValue(ctx *Context, method string, args interface{}) (interface{}, error) {
	a := args.(sliceArgs)
	a.Vals[0] = 100 // must not be visible to the caller
	m.kept = a.Vals
	m.kept[1]++
	return sliceArgs{Vals: m.kept}, nil
}

// countedFlat is reference-free (codec.RefFree): the runtime hands it over
// and must not call its CopyValue, which counts.
type countedFlat struct {
	N int
	S string
}

var flatCopies atomic.Int64

func (c countedFlat) CopyValue() interface{} { flatCopies.Add(1); return c }

// countedPtr is the same kind of struct travelling as a pointer: the callee
// could write through it, so it is copied like anything else.
type countedPtr struct{ N int }

var ptrCopies atomic.Int64

func (p *countedPtr) CopyValue() interface{} { ptrCopies.Add(1); c := *p; return &c }

// handActor writes through whatever it is given and returns what it keeps.
type handActor struct{ kept *countedPtr }

func (h *handActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	return nil, fmt.Errorf("handActor is value-only in this test")
}

func (h *handActor) ReceiveValue(ctx *Context, method string, args interface{}) (interface{}, error) {
	switch method {
	case "Flat":
		a := args.(countedFlat)
		a.N++ // its own copy of the value: boxing made it
		a.S += "!"
		return a, nil
	case "Ptr":
		h.kept = args.(*countedPtr)
		h.kept.N = 100 // must not be visible to the caller
		return h.kept, nil
	}
	return nil, fmt.Errorf("no method %q", method)
}

// TestHandOverCopiesOnlyWhatCanAlias pins the hand-over rule on the live
// runtime: a reference-free value crosses in both directions without its
// CopyValue being called, and a pointer to the same kind of struct is still
// copied in both (TestLocalValueCallIsolation, above, holds the same for a
// value that carries a slice).
func TestHandOverCopiesOnlyWhatCanAlias(t *testing.T) {
	sys := newValNode(t)
	sys.RegisterType("hand", func() Actor { return &handActor{} })
	ref := Ref{Type: "hand", Key: "k"}

	flat0 := flatCopies.Load()
	in := countedFlat{N: 1, S: "s"}
	var out countedFlat
	if err := sys.Call(ref, "Flat", in, &out); err != nil {
		t.Fatal(err)
	}
	if in != (countedFlat{N: 1, S: "s"}) || out != (countedFlat{N: 2, S: "s!"}) {
		t.Fatalf("in = %+v, out = %+v", in, out)
	}
	if n := flatCopies.Load() - flat0; n != 0 {
		t.Fatalf("CopyValue called %d time(s) on a reference-free argument and result, want 0", n)
	}

	ptr0 := ptrCopies.Load()
	pin := &countedPtr{N: 1}
	var pout countedPtr
	if err := sys.Call(ref, "Ptr", pin, &pout); err != nil {
		t.Fatal(err)
	}
	if pin.N != 1 {
		t.Fatalf("actor wrote through the caller's pointer: %+v", pin)
	}
	if pout.N != 100 {
		t.Fatalf("reply = %+v, want the actor's write visible", pout)
	}
	if n := ptrCopies.Load() - ptr0; n != 2 {
		t.Fatalf("CopyValue called %d time(s) on a pointer argument and result, want 2", n)
	}
	if st := sys.Stats(); st.CallsLocal != 2 || st.CallsRemote != 0 {
		t.Fatalf("stats = %+v, want 2 local value calls", st)
	}
}

// TestLocalValueCallRacingMigration drives the window in which a value call
// has resolved a co-located activation and a migration retires it before
// the call enqueues: the invocation must chase the actor as bytes, handed
// over or not, and arrive through Receive on the new host.
func TestLocalValueCallRacingMigration(t *testing.T) {
	sys := newCluster(t, 2, PlaceLocal)
	for _, s := range sys {
		s.RegisterType("val", func() Actor { return &valActor{} })
	}
	ref := Ref{Type: "val", Key: "mover"}
	if err := sys[0].Call(ref, "AddVal", valArgs{N: 0}, nil); err != nil {
		t.Fatal(err)
	}
	from, to := sys[0], sys[1]
	if to.HostsActor(ref) {
		from, to = to, from
	}
	act := from.localActivation(refHash(ref), ref)
	if act == nil {
		t.Fatalf("no activation of %s on %s", ref, from.Node())
	}
	if err := from.Migrate(ref, to.Node()); err != nil {
		t.Fatal(err)
	}
	// plainArgs is reference-free, so argsVal is the caller's own boxed
	// value, as callLocalValue hands it over.
	out, err := from.runLocal(act, invocation{method: "AddPlain", argsVal: plainArgs{N: 5}, isVal: true}, nil, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out.val != nil || out.data == nil {
		t.Fatalf("outcome = %+v, want an encoded reply: the invocation was not forwarded as bytes", out)
	}
	var reply valReply
	if err := codec.Unmarshal(out.data, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.N != 5 || !to.HostsActor(ref) {
		t.Fatalf("reply = %+v, hosted on %s: %v", reply, to.Node(), to.HostsActor(ref))
	}
}
