package actor

import (
	"fmt"
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
