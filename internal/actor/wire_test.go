package actor

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"actop/internal/codec"
	"actop/internal/graph"
	"actop/internal/partition"
	"actop/internal/transport"
)

// wireCodec is what every control payload type implements.
type wireCodec interface {
	codec.Marshaler
	codec.Unmarshaler
}

// wireCase is one control payload value and a fresh decode target of its
// type.
type wireCase struct {
	name  string
	value codec.Marshaler
	fresh func() wireCodec
}

func sampleCandidates() []partition.Candidate {
	return []partition.Candidate{
		{V: 7, HomeWeight: 8, TargetWeight: 40.5, Edges: []partition.Edge{{U: 1, W: 8}, {U: 42, W: 24.25}, {U: 1 << 63, W: 16}}},
		{V: 1<<64 - 1, HomeWeight: 0, TargetWeight: 8},
	}
}

func wireCases() []wireCase {
	return []wireCase{
		{"dirRequest/lookup", dirRequest{Type: "session", Key: "k-17", Suggest: "node-2", Place: true},
			func() wireCodec { return new(dirRequest) }},
		{"dirRequest/update", dirRequest{Type: "session", Key: "", NewNode: "127.0.0.1:7702", Epoch: 1<<64 - 1},
			func() wireCodec { return new(dirRequest) }},
		{"dirRequest/zero", dirRequest{}, func() wireCodec { return new(dirRequest) }},
		{"wireNode", wireNode("127.0.0.1:7701"), func() wireCodec { return new(wireNode) }},
		{"wireNode/empty", wireNode(""), func() wireCodec { return new(wireNode) }},
		{"migratePayload/put", migratePayload{Type: "game", Key: "g/3", ID: "node-0#99", Epoch: 4, SnapSeq: 12, HasState: true, State: []byte{0, 1, 2, 0xff}},
			func() wireCodec { return new(migratePayload) }},
		{"migratePayload/drop", migratePayload{Type: "game", Key: "g/3", ID: "node-0#99"},
			func() wireCodec { return new(migratePayload) }},
		{"exchangeWire", exchangeWire{
			Req:  partition.ExchangeRequest{From: 2, FromPopulation: 683, Candidates: sampleCandidates()},
			Opts: partition.Options{CandidateSetSize: 64, ImbalanceTolerance: 16, MinScore: 1e-9},
		}, func() wireCodec { return new(exchangeWire) }},
		{"exchangeWire/empty", exchangeWire{}, func() wireCodec { return new(exchangeWire) }},
		{"exchangeWire/many", manyCandidates(), func() wireCodec { return new(exchangeWire) }},
		{"exchangeReply", exchangeReply{Accepted: []graph.Vertex{1, 1 << 40}, Counter: []graph.Vertex{9}},
			func() wireCodec { return new(exchangeReply) }},
		{"exchangeReply/rejected", exchangeReply{Rejected: true}, func() wireCodec { return new(exchangeReply) }},
	}
}

func encodeWire(t testing.TB, v codec.Marshaler) []byte {
	t.Helper()
	b, err := v.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireRoundTrip: every control payload decodes to what was encoded,
// through the codec's tagged entry points as the runtime uses them, and is
// never gob.
func TestWireRoundTrip(t *testing.T) {
	for _, c := range wireCases() {
		before := codec.GobOps()
		data, err := codec.Marshal(c.value)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := c.fresh()
		if err := codec.Unmarshal(data, got); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if decoded := reflect.ValueOf(got).Elem().Interface(); !reflect.DeepEqual(decoded, c.value) {
			t.Errorf("%s: decoded %+v, encoded %+v", c.name, decoded, c.value)
		}
		if n := codec.GobOps() - before; n != 0 {
			t.Errorf("%s: %d gob operations", c.name, n)
		}
	}
}

// TestWireTruncated: every proper prefix of an encoding, and the encoding
// with a byte appended, is an error — never a panic, never a silent partial
// value. wireNode is exempt: any bytes are a name.
func TestWireTruncated(t *testing.T) {
	for _, c := range wireCases() {
		if _, ok := c.value.(wireNode); ok {
			continue
		}
		full := encodeWire(t, c.value)
		for n := 0; n < len(full); n++ {
			if err := c.fresh().UnmarshalBinary(full[:n]); err == nil {
				t.Errorf("%s: %d of %d bytes decoded without error", c.name, n, len(full))
			}
		}
		if err := c.fresh().UnmarshalBinary(append(full[:len(full):len(full)], 0)); err == nil {
			t.Errorf("%s: a trailing byte decoded without error", c.name)
		}
	}
}

// TestWireCountCannotSizeAllocation: an element count larger than the
// payload could hold is refused before anything is allocated for it.
func TestWireCountCannotSizeAllocation(t *testing.T) {
	huge := codec.AppendUvarint(nil, 1<<40)
	reply := append([]byte{0}, huge...)
	if err := new(exchangeReply).UnmarshalBinary(reply); err == nil {
		t.Error("exchangeReply accepted a count of 2^40 in a 7-byte payload")
	}
	wire := encodeWire(t, exchangeWire{})
	wire = append(wire[:len(wire)-1], huge...) // the candidate count is the last field
	if err := new(exchangeWire).UnmarshalBinary(wire); err == nil {
		t.Error("exchangeWire accepted a count of 2^40 candidates")
	}
}

// TestWireExchangeDeterministic: an exchange frame is a pure function of its
// content, decode then encode gives it back byte for byte, and a frame whose
// edges are out of order is refused — the receiver binary-searches them.
func TestWireExchangeDeterministic(t *testing.T) {
	const edges = 200
	build := func() exchangeWire {
		es := make([]partition.Edge, edges)
		for i := range es {
			es[i] = partition.Edge{U: graph.Vertex(rand.New(rand.NewSource(int64(i))).Uint64()), W: float64(8 * (i + 1))}
		}
		sort.Slice(es, func(i, j int) bool { return es[i].U < es[j].U })
		return exchangeWire{Req: partition.ExchangeRequest{From: 1, FromPopulation: 9,
			Candidates: []partition.Candidate{{V: 5, HomeWeight: 1, TargetWeight: 2, Edges: es}}}}
	}
	want := encodeWire(t, build())
	if got := encodeWire(t, build()); !bytes.Equal(got, want) {
		t.Fatal("one content, two frames")
	}
	var back exchangeWire
	if err := back.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeWire(t, back), want) {
		t.Fatal("decode then encode changed the frame")
	}
	for _, swap := range [][2]int{{0, 1}, {edges - 2, edges - 1}} {
		w := build()
		es := w.Req.Candidates[0].Edges
		es[swap[0]], es[swap[1]] = es[swap[1]], es[swap[0]]
		if err := new(exchangeWire).UnmarshalBinary(encodeWire(t, w)); err == nil {
			t.Errorf("edges %d and %d swapped: decoded without error", swap[0], swap[1])
		}
	}
	w := build()
	w.Req.Candidates[0].Edges[1].U = w.Req.Candidates[0].Edges[0].U
	if err := new(exchangeWire).UnmarshalBinary(encodeWire(t, w)); err == nil {
		t.Error("a repeated edge decoded without error")
	}
}

// manyCandidates is an exchange frame as large as the runtime sends: k = 64
// candidates of up to 24 edges, all decoded into one slab.
func manyCandidates() exchangeWire {
	rng := rand.New(rand.NewSource(31))
	cands := make([]partition.Candidate, 64)
	for i := range cands {
		es := make([]partition.Edge, rng.Intn(25))
		u := graph.Vertex(0)
		for j := range es {
			u += graph.Vertex(1 + rng.Intn(1<<20))
			es[j] = partition.Edge{U: u, W: float64(8 * (1 + rng.Intn(64)))}
		}
		cands[i] = partition.Candidate{V: graph.Vertex(rng.Uint64()), HomeWeight: float64(rng.Intn(100)),
			TargetWeight: float64(rng.Intn(200)), Edges: es}
		if len(es) == 0 {
			cands[i].Edges = nil
		}
	}
	return exchangeWire{Req: partition.ExchangeRequest{From: 1, FromPopulation: 1450, Candidates: cands},
		Opts: partition.DefaultOptions()}
}

// FuzzControlCodecs feeds arbitrary bytes to every control decoder: no
// panic, and whatever decodes must survive an encode/decode round trip
// unchanged. The corpus is every sample encoding.
func FuzzControlCodecs(f *testing.F) {
	for _, c := range wireCases() {
		f.Add(encodeWire(f, c.value))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() wireCodec{
			func() wireCodec { return new(dirRequest) },
			func() wireCodec { return new(wireNode) },
			func() wireCodec { return new(migratePayload) },
			func() wireCodec { return new(exchangeWire) },
			func() wireCodec { return new(exchangeReply) },
		} {
			v := fresh()
			if v.UnmarshalBinary(data) != nil {
				continue
			}
			again := fresh()
			if err := again.UnmarshalBinary(encodeWire(t, v)); err != nil {
				t.Fatalf("%T: re-decode: %v", v, err)
			}
			if !reflect.DeepEqual(v, again) && !hasNaN(v) {
				t.Fatalf("%T: %+v re-decoded as %+v", v, v, again)
			}
		}
	})
}

// hasNaN reports a NaN weight, which DeepEqual never finds equal to itself.
func hasNaN(v interface{}) bool {
	w, ok := v.(*exchangeWire)
	if !ok {
		return false
	}
	nan := func(f float64) bool { return f != f }
	if nan(w.Opts.MinScore) {
		return true
	}
	for _, c := range w.Req.Candidates {
		if nan(c.HomeWeight) || nan(c.TargetWeight) {
			return true
		}
		for _, e := range c.Edges {
			if nan(e.W) {
				return true
			}
		}
	}
	return false
}

// binCount is the application message of the no-gob test: a counter that
// travels as one uvarint.
type binCount uint64

func (c binCount) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendUvarint(dst, uint64(c)), nil
}

func (c *binCount) UnmarshalBinary(data []byte) error {
	v, _, err := codec.ReadUvarint(data)
	*c = binCount(v)
	return err
}

// binActor is a durable, migratable counter whose every message and whose
// snapshot are binCount. "Fan" makes it a caller: it adds one to that many
// leaves named after itself, which gives the monitor edges to trade on.
type binActor struct{ n binCount }

func (a *binActor) DurableActor() {}

func (a *binActor) Receive(ctx *Context, method string, args []byte) ([]byte, error) {
	var d binCount
	if err := codec.Unmarshal(args, &d); err != nil {
		return nil, err
	}
	switch method {
	case "Add":
		a.n += d
	case "Fan":
		for i := 0; i < int(d); i++ {
			leaf := Ref{Type: "bin", Key: fmt.Sprintf("%s.%d", ctx.Self().Key, i)}
			if err := ctx.Call(leaf, "Add", binCount(1), nil); err != nil {
				return nil, err
			}
		}
	}
	return codec.Marshal(a.n)
}

func (a *binActor) Snapshot() ([]byte, error) { return codec.Marshal(a.n) }
func (a *binActor) Restore(b []byte) error    { return codec.Unmarshal(b, &a.n) }

// TestControlPlaneNoGob drives every message the runtime itself sends
// between nodes — first calls under random placement, cache-miss lookups, a
// migration there and back, an exchange round, pings, a deactivation, a
// snapshot shipped and recovered — with an application type that encodes
// itself, and the process-wide gob counter must not move. One call with a
// plain int then shows the counter counts.
func TestControlPlaneNoGob(t *testing.T) {
	sys, flakies := newFaultyCluster(t, 3, PlaceRandom, func(c *Config) {
		c.DurableReplicas = 1
		c.SnapshotInterval = time.Minute
		c.ExchangeRejectWindow = time.Nanosecond
	})
	for _, s := range sys {
		s.RegisterType("bin", func() Actor { return &binActor{} })
	}
	before := codec.GobOps()
	add := func(s *System, key string, want binCount) {
		t.Helper()
		var got binCount
		if err := s.Call(Ref{Type: "bin", Key: key}, "Add", binCount(1), &got); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got != want {
			t.Fatalf("%s = %d, want %d", key, got, want)
		}
	}
	hostOf := func(ref Ref) int {
		t.Helper()
		for i, s := range sys {
			if s.HostsActor(ref) {
				return i
			}
		}
		t.Fatalf("%s hosted nowhere", ref)
		return -1
	}

	// First calls (remote dir.lookup with placement for two keys in three),
	// then the same keys from a node whose cache has never seen them.
	const keys = 30
	for k := 0; k < keys; k++ {
		add(sys[0], fmt.Sprint("k", k), 1)
	}
	for k := 0; k < keys; k++ {
		add(sys[1], fmt.Sprint("k", k), 2)
	}
	if misses := sys[1].locMisses.Load(); misses == 0 {
		t.Fatal("no location-cache miss on the second node")
	}

	// A migration there and back: migrate.put, dir.update, and on the way
	// back the home check's dir.lookup.
	ref := Ref{Type: "bin", Key: "k0"}
	from := hostOf(ref)
	to := (from + 1) % len(sys)
	if err := sys[from].Migrate(ref, sys[to].Node()); err != nil {
		t.Fatal(err)
	}
	if err := sys[to].Migrate(ref, sys[from].Node()); err != nil {
		t.Fatal(err)
	}
	add(sys[2], "k0", 3)

	// An exchange: hubs fan out to leaves until every monitor has edges, then
	// each node initiates a round; actors must actually trade places.
	for round := 0; round < 20; round++ {
		for h := 0; h < 6; h++ {
			if err := sys[h%3].Call(Ref{Type: "bin", Key: fmt.Sprint("hub", h)}, "Fan", binCount(6), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	moved := 0
	for _, s := range sys {
		n, err := s.ExchangeRound(partition.DefaultOptions(), time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		moved += n
	}
	if moved == 0 {
		t.Fatal("three exchange rounds moved nothing: no exchange frame was exercised")
	}

	// A few ping intervals.
	sent := sys[0].Failures().HeartbeatsSent
	time.Sleep(3 * sys[0].cfg.HeartbeatInterval)
	if sys[0].Failures().HeartbeatsSent == sent {
		t.Fatal("no heartbeat in three intervals")
	}

	// A deactivation: dir.remove.
	gone := Ref{Type: "bin", Key: "k1"}
	if err := sys[hostOf(gone)].Deactivate(gone); err != nil {
		t.Fatal(err)
	}

	// A snapshot shipped and, after its host dies, recovered: actop.snap,
	// actop.snapget, and the failover's dir.update re-assertions.
	kept := Ref{Type: "bin", Key: "k2"}
	victim := hostOf(kept)
	sys[victim].SyncSnapshots()
	flakies[victim].Kill()
	survivor := sys[(victim+1)%len(sys)]
	waitPeerState(t, survivor, sys[victim].Node(), PeerDead, 5*time.Second)
	waitPeerState(t, sys[(victim+2)%len(sys)], sys[victim].Node(), PeerDead, 5*time.Second)
	add(survivor, "k2", 3)
	var recovered uint64
	for _, s := range sys {
		recovered += s.Durables().RecoveredWithState
	}
	if recovered == 0 {
		t.Fatal("no snapshot recovery recorded")
	}

	if n := codec.GobOps() - before; n != 0 {
		t.Fatalf("%d gob operations on the control plane", n)
	}
	if got := survivor.Stats().GobOps; got != codec.GobOps() {
		t.Fatalf("Stats.GobOps = %d, codec says %d", got, codec.GobOps())
	}
	if err := survivor.Call(Ref{Type: "counter", Key: "plain"}, "Add", 1, nil); err != nil {
		t.Fatal(err)
	}
	if codec.GobOps() == before {
		t.Fatal("a call with an int argument did not move the gob counter")
	}
}

// TestExchangeInitiatorAndReceiverAtOnce: one node runs initiator rounds
// while it answers a peer's offers. Two goroutines start rounds, so a round
// also meets another that holds the initiator scratch and must skip. Each
// role decides on its own snapshot and vertex list; were they shared, the
// race detector (make race) would see one role refill what the other reads.
func TestExchangeInitiatorAndReceiverAtOnce(t *testing.T) {
	sys, _ := newFaultyCluster(t, 3, PlaceRandom, func(c *Config) { c.ExchangeRejectWindow = time.Nanosecond })
	for _, s := range sys {
		s.RegisterType("bin", func() Actor { return &binActor{} })
	}
	for round := 0; round < 10; round++ {
		for h := 0; h < 9; h++ {
			if err := sys[h%3].Call(Ref{Type: "bin", Key: fmt.Sprint("hub", h)}, "Fan", binCount(6), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The offer node 1 would make node 0, encoded once and delivered again
	// and again.
	opts := partition.DefaultOptions()
	var sc exchangeScratch
	sc.fill(sys[1])
	offer := exchangeWire{Opts: opts, Req: partition.ExchangeRequest{From: sys[1].selfIndex(), FromPopulation: len(sc.local)}}
	for _, prop := range partition.SelectCandidates(opts, &sc.snap, sysLocator{s: sys[1]}, sys[1].selfIndex(), sc.local, len(sc.local)) {
		offer.Req.Candidates = append(offer.Req.Candidates, prop.Candidates...)
	}
	if len(offer.Req.Candidates) == 0 {
		t.Fatal("node 1 has nothing to offer: no exchange frame to deliver")
	}
	payload, err := codec.Marshal(offer)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	var wg sync.WaitGroup
	errs := make(chan error, 3*rounds)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := sys[0].ExchangeRound(opts, time.Nanosecond); err != nil {
					errs <- fmt.Errorf("initiator: %w", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			reply, err := sys[0].handleExchange(payload, sys[1].Node())
			var resp exchangeReply
			if err == nil {
				err = codec.Unmarshal(reply, &resp)
			}
			if err != nil {
				errs <- fmt.Errorf("receiver: %w", err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// offerHold withholds a node's outbound exchange offers until release is
// closed, so the node's initiator round waits on its reply for as long as a
// test needs.
type offerHold struct {
	transport.Transport
	held    chan struct{} // closed once the first offer is withheld
	release chan struct{}
	once    sync.Once
}

func (h *offerHold) Send(to transport.NodeID, env *transport.Envelope) error {
	if env.Method != ctlExchange {
		return h.Transport.Send(to, env)
	}
	cp := *env
	cp.Payload = append([]byte(nil), env.Payload...)
	h.once.Do(func() { close(h.held) })
	go func() {
		<-h.release
		_ = h.Transport.Send(to, &cp)
	}()
	return nil
}

// TestExchangeAnswersWhileInitiating pins that a node answers a peer's offer
// while its own round waits on a reply: node 0's offer is withheld, and node
// 1's offer to node 0 must still get a decision, not Rejected. Letting a
// node take part in one exchange at a time was measured to place worse on
// presence_converge (DESIGN.md "Exchange rounds without garbage").
func TestExchangeAnswersWhileInitiating(t *testing.T) {
	hold := &offerHold{held: make(chan struct{}), release: make(chan struct{})}
	sys, _ := newFaultyCluster(t, 2, PlaceRandom, func(c *Config) {
		if c.Transport.Node() == "fn-0" {
			hold.Transport = c.Transport
			c.Transport = hold
		}
	})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold.release) }) }
	defer release()
	for _, s := range sys {
		s.RegisterType("bin", func() Actor { return &binActor{} })
	}
	for round := 0; round < 10; round++ {
		for h := 0; h < 8; h++ {
			if err := sys[h%2].Call(Ref{Type: "bin", Key: fmt.Sprint("hub", h)}, "Fan", binCount(6), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := partition.DefaultOptions()
	var sc exchangeScratch
	sc.fill(sys[1])
	offer := exchangeWire{Opts: opts, Req: partition.ExchangeRequest{From: sys[1].selfIndex(), FromPopulation: len(sc.local)}}
	for _, prop := range partition.SelectCandidates(opts, &sc.snap, sysLocator{s: sys[1]}, sys[1].selfIndex(), sc.local, len(sc.local)) {
		offer.Req.Candidates = append(offer.Req.Candidates, prop.Candidates...)
	}
	if len(offer.Req.Candidates) == 0 {
		t.Fatal("node 1 has nothing to offer")
	}
	payload, err := codec.Marshal(offer)
	if err != nil {
		t.Fatal(err)
	}

	round := make(chan error, 1)
	go func() {
		_, err := sys[0].ExchangeRound(opts, time.Minute)
		round <- err
	}()
	select {
	case <-hold.held:
	case err := <-round:
		t.Fatalf("node 0's round ended without making an offer (err %v)", err)
	}
	reply, err := sys[0].handleExchange(payload, sys[1].Node())
	if err != nil {
		t.Fatal(err)
	}
	var resp exchangeReply
	if err := codec.Unmarshal(reply, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rejected {
		t.Fatal("node 0 rejected an offer while its own round was in flight")
	}
	if !sys[0].exInitBusy.Load() {
		t.Fatal("node 0's round finished before the offer was answered")
	}
	release()
	if err := <-round; err != nil {
		t.Fatalf("node 0's round: %v", err)
	}
}

// dirLookupAllocs pins one remote dir.lookup round trip over the in-memory
// fabric: request and reply encoded, sent, decoded and answered. With both
// on gob it was 232 (a fresh encoder and decoder, and their compiled engines,
// on each node for each direction).
const dirLookupAllocs = 17

func TestDirLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	sys := newCluster(t, 2, PlaceRandom)
	// A ref whose directory entry the other node owns, registered once.
	var ref Ref
	for i := 0; ; i++ {
		ref = Ref{Type: "counter", Key: fmt.Sprint("dl", i)}
		if sys[0].directoryOwner(ref) == sys[1].Node() {
			break
		}
	}
	if err := sys[0].Call(ref, "Get", nil, nil); err != nil {
		t.Fatal(err)
	}
	req := dirRequest{Type: ref.Type, Key: ref.Key, Suggest: string(sys[0].Node()), Place: true}
	got := warmAllocs(t, func() {
		var node wireNode
		if err := sys[0].controlCall(sys[1].Node(), ctlDirLookup, req, &node); err != nil {
			t.Fatal(err)
		}
		if node == "" {
			t.Fatal("empty lookup reply")
		}
	})
	if got != dirLookupAllocs {
		t.Fatalf("remote dir.lookup round trip: %.1f allocs, pinned at %d", got, dirLookupAllocs)
	}
}
