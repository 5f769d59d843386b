package actor

import (
	"fmt"
	"sync"
	"testing"

	"actop/internal/transport"
)

// wireTap is a Transport that records the kind, id and verb of every
// envelope its node sends.
type wireTap struct {
	transport.Transport
	mu   sync.Mutex
	sent []transport.Envelope
}

func (w *wireTap) Send(to transport.NodeID, env *transport.Envelope) error {
	w.mu.Lock()
	w.sent = append(w.sent, transport.Envelope{Kind: env.Kind, ID: env.ID, Method: env.Method})
	w.mu.Unlock()
	return w.Transport.Send(to, env)
}

// tapAll returns a Config tweak that puts a wireTap in front of each node's
// transport, and the taps it made, in node order.
func tapAll() (func(*Config), *[]*wireTap) {
	taps := new([]*wireTap)
	return func(c *Config) {
		tap := &wireTap{Transport: c.Transport}
		c.Transport = tap
		*taps = append(*taps, tap)
	}, taps
}

// sentEnvelopes is every envelope the taps recorded.
func sentEnvelopes(taps []*wireTap) []transport.Envelope {
	var out []transport.Envelope
	for _, tap := range taps {
		tap.mu.Lock()
		out = append(out, tap.sent...)
		tap.mu.Unlock()
	}
	return out
}

// TestPlacementIsPureFunctionOfRef: under PlaceRandom a ref's host depends
// on the ref and the membership alone, never on a node's seed or on which
// node called first. Two clusters with the same node ids and different
// seeds host each of 1 000 refs on the same node, and that node is the
// ref's directory owner.
func TestPlacementIsPureFunctionOfRef(t *testing.T) {
	a := newCluster(t, 3, PlaceRandom)
	b := newCluster(t, 3, PlaceRandom, func(c *Config) { c.Seed = 1000 - c.Seed })
	hostIn := func(sys []*System, ref Ref) int {
		t.Helper()
		for i, s := range sys {
			if s.HostsActor(ref) {
				return i
			}
		}
		t.Fatalf("%s hosted nowhere", ref)
		return -1
	}
	perNode := make([]int, 3)
	for k := 0; k < 1000; k++ {
		ref := Ref{Type: "counter", Key: fmt.Sprint("p", k)}
		// Different first callers in the two clusters.
		if err := a[k%3].Call(ref, "Add", 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := b[(k+1)%3].Call(ref, "Add", 1, nil); err != nil {
			t.Fatal(err)
		}
		ha, hb := hostIn(a, ref), hostIn(b, ref)
		if ha != hb {
			t.Fatalf("%s hosted on %s in one cluster and on %s in the other", ref, a[ha].Node(), b[hb].Node())
		}
		if owner := a[0].directoryOwner(ref); a[ha].Node() != owner {
			t.Fatalf("%s hosted on %s, its directory owner is %s", ref, a[ha].Node(), owner)
		}
		perNode[ha]++
	}
	for i, n := range perNode {
		if n < 280 || n > 390 {
			t.Errorf("%s hosts %d of 1000 refs, want about a third (%v)", a[i].Node(), n, perNode)
		}
	}
}

// TestFirstCallCrossesWireOnce: a first call under PlaceRandom from a node
// that does not own the ref's directory record is one call envelope and one
// reply, with no directory lookup before it.
func TestFirstCallCrossesWireOnce(t *testing.T) {
	tap, taps := tapAll()
	sys := newCluster(t, 3, PlaceRandom, tap)
	var ref Ref
	for k := 0; ; k++ {
		ref = Ref{Type: "counter", Key: fmt.Sprint("w", k)}
		if sys[0].directoryOwner(ref) != sys[0].Node() {
			break
		}
	}
	if err := sys[0].Call(ref, "Add", 1, nil); err != nil {
		t.Fatal(err)
	}
	calls := map[uint64]bool{}
	var replies int
	var control []string
	env := sentEnvelopes(*taps)
	for _, e := range env {
		if e.Kind == transport.KindCall {
			calls[e.ID] = true
		}
	}
	for _, e := range env {
		switch {
		case e.Kind == transport.KindReply && calls[e.ID]:
			replies++
		case e.Kind == transport.KindControl && e.Method != ctlPing:
			control = append(control, e.Method)
		}
	}
	if len(calls) != 1 || replies != 1 || len(control) != 0 {
		t.Fatalf("first call to %s sent %d calls, %d replies and control verbs %v; want 1, 1 and none",
			ref, len(calls), replies, control)
	}
	if !sys[1].HostsActor(ref) && !sys[2].HostsActor(ref) {
		t.Fatalf("%s is not hosted off the caller", ref)
	}
	if got := sys[0].locDirect.Load(); got != 1 {
		t.Fatalf("caller counted %d direct resolutions, want 1", got)
	}
}
