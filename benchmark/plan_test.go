package main

import (
	"reflect"
	"testing"

	"actop/internal/codec"
)

func drawOps(w *workload, seed uint64, client, n int) []op {
	g := newOpGen(w, seed, client)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func drawChurn(w *workload, seed uint64, ticks int) ([][]swap, [][]uint64) {
	topo := newTopology(w, seed)
	var out [][]swap
	for i := 0; i < ticks; i++ {
		out = append(out, topo.tick())
	}
	return out, topo.members
}

// TestSameSeedSameInputs: the op sequence of every client and the churn
// schedule are functions of the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		w := w
		for client := 0; client < w.clients; client++ {
			a, b := drawOps(&w, 42, client, 5000), drawOps(&w, 42, client, 5000)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: same seed, different op sequences", w.name, client)
			}
			if other := drawOps(&w, 43, client, 5000); reflect.DeepEqual(a, other) {
				t.Errorf("%s client %d: seeds 42 and 43 give one sequence", w.name, client)
			}
		}
		if reflect.DeepEqual(drawOps(&w, 42, 0, 5000), drawOps(&w, 42, 1, 5000)) {
			t.Errorf("%s: clients 0 and 1 draw the same sequence", w.name)
		}
		if w.games == 0 {
			continue
		}
		s1, m1 := drawChurn(&w, 42, 50)
		s2, m2 := drawChurn(&w, 42, 50)
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(m1, m2) {
			t.Errorf("%s: same seed, different churn", w.name)
		}
		if s3, _ := drawChurn(&w, 43, 50); reflect.DeepEqual(s1, s3) {
			t.Errorf("%s: seeds 42 and 43 give one churn schedule", w.name)
		}
	}
}

// TestOpStreamShape checks the generated traffic against the workload's
// definition: the mix, the target ranges, the entry nodes, and for sessions
// the disjoint per-client live sets.
func TestOpStreamShape(t *testing.T) {
	const n = 40000
	for _, w := range workloads {
		w := w
		var counts [opKinds]int
		opened := map[int]bool{}
		for client := 0; client < w.clients; client++ {
			g := newOpGen(&w, 7, client)
			for i := 0; i < n; i++ {
				o := g.next()
				counts[o.kind]++
				if o.node < 0 || o.node >= nodes {
					t.Fatalf("%s: op enters through node %d", w.name, o.node)
				}
				switch {
				case w.sessions > 0:
					if o.target%w.clients != client {
						t.Fatalf("%s: client %d touched session %d, which is client %d's", w.name, client, o.target, o.target%w.clients)
					}
					local := o.target / w.clients
					if o.kind == opOpen {
						if opened[o.target] || local < w.sessions/w.clients {
							t.Fatalf("%s: open of session %d, which already exists", w.name, o.target)
						}
						opened[o.target] = true
					} else if local < g.lo || local >= g.hi {
						t.Fatalf("%s: beat to session %d outside the live set [%d,%d)", w.name, local, g.lo, g.hi)
					}
				default:
					if o.target < 0 || o.target >= w.games*membersPerGame {
						t.Fatalf("%s: target %d out of range", w.name, o.target)
					}
					if w.hostEntry && o.node != hostNode(o.target/membersPerGame) {
						t.Fatalf("%s: op on game %d enters through node %d", w.name, o.target/membersPerGame, o.node)
					}
				}
			}
		}
		total := float64(n * w.clients)
		for k, want := range [opKinds]float64{opBeat: 1 - w.statusShare - w.openShare, opStatus: w.statusShare, opOpen: w.openShare} {
			if got := float64(counts[k]) / total; got < want-0.01 || got > want+0.01 {
				t.Errorf("%s: %s share %.3f, want %.3f", w.name, opNames[k], got, want)
			}
		}
	}
}

// TestChurnKeepsMembership: swaps trade members between two different
// games, so every presence record stays in exactly one game of eight.
func TestChurnKeepsMembership(t *testing.T) {
	w, _ := workloadByName("presence_converge")
	swaps, members := drawChurn(&w, 3, 200)
	for _, tick := range swaps {
		if len(tick) != churnPairsPerTick {
			t.Fatalf("tick with %d swaps, want %d", len(tick), churnPairsPerTick)
		}
		for _, s := range tick {
			if s.a == s.b {
				t.Fatalf("swap of game %d with itself", s.a)
			}
		}
	}
	seen := make(map[uint64]int)
	for g, ms := range members {
		if len(ms) != membersPerGame {
			t.Fatalf("game %d has %d members", g, len(ms))
		}
		for _, id := range ms {
			seen[id]++
		}
	}
	if len(seen) != w.games*membersPerGame {
		t.Fatalf("%d distinct members, want %d", len(seen), w.games*membersPerGame)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("presence %d is in %d games", id, n)
		}
	}
}

// TestMessagesRoundTrip: the binary path and the value path must carry the
// same message, or Receive and ReceiveValue stop being one actor.
func TestMessagesRoundTrip(t *testing.T) {
	msgs := []interface{}{
		beatMsg{Span: 9, Seq: 7, Pad: []byte{1, 2, 3}},
		ack{N: 1 << 40},
		statusReq{Span: 12345},
		member{ID: 2047, Beats: 99},
		roster{Members: []member{{ID: 1, Beats: 2}, {ID: 3, Beats: 4}}},
		membersMsg{Members: []uint64{5, 6, 7, 8}},
	}
	for _, m := range msgs {
		data, err := codec.Marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if data[0] != 'B' {
			t.Errorf("%T took the gob fallback", m)
		}
		back := reflect.New(reflect.TypeOf(m))
		if err := codec.Unmarshal(data, back.Interface()); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got := back.Elem().Interface(); !reflect.DeepEqual(got, m) {
			t.Errorf("%T: decoded %+v, want %+v", m, got, m)
		}
		if got := m.(codec.Copier).CopyValue(); !reflect.DeepEqual(got, m) {
			t.Errorf("%T: copied %+v, want %+v", m, got, m)
		}
		for cut := 0; cut < len(data)-1; cut++ { // truncations fail cleanly or decode short
			_ = codec.Unmarshal(data[:cut+1], reflect.New(reflect.TypeOf(m)).Interface())
		}
	}
	// A copy shares no memory with its source.
	src := beatMsg{Pad: []byte{1}}
	cp := src.CopyValue().(beatMsg)
	cp.Pad[0] = 2
	if src.Pad[0] != 1 {
		t.Error("CopyValue aliases the pad")
	}
	// A forged length cannot make a decoder allocate the claim.
	var r roster
	if err := r.UnmarshalBinary([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Error("roster decoded a 4-billion-member claim from five bytes")
	}
}
