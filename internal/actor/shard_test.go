package actor

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actop/internal/metrics"
	"actop/internal/partition"
	"actop/internal/transport"
)

// newShardTestSystem builds a single standalone node with a custom location
// cache bound and optional metrics registry, for exercising the sharded
// state plane directly.
func newShardTestSystem(t *testing.T, cacheSize int, reg *metrics.Registry) *System {
	t.Helper()
	net := transport.NewNetwork(0)
	tr := net.Join("shard-node")
	sys, err := NewSystem(Config{
		Transport:    tr,
		LocCacheSize: cacheSize,
		Metrics:      reg,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterType("counter", func() Actor { return &counterActor{} })
	t.Cleanup(sys.Stop)
	return sys
}

// refHash must stay bit-identical to hash/fnv over "Type\x00Key": the shard
// key, the vertex index key, and Ref.Vertex all assume the same hash, and
// partitioner vertex ids must not move between versions. strHash (node
// seeds) and the rendezvous scores (snapScore, ownerScore) are held to
// hash/fnv the same way, ownerScore under splitmix64's finalizer.
func TestRefHashMatchesStdlibFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha := "abcdefghijklmnopqrstuvwxyz0123456789-_/."
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	refs := []Ref{
		{},
		{Type: "counter", Key: "1"},
		{Type: "", Key: "only-key"},
		{Type: "only-type", Key: ""},
		{Type: "a\x00b", Key: "c"}, // embedded separator byte
	}
	for i := 0; i < 500; i++ {
		refs = append(refs, Ref{Type: randStr(rng.Intn(24)), Key: randStr(rng.Intn(64))})
	}
	for _, r := range refs {
		h := fnv.New64a()
		h.Write([]byte(r.Type))
		h.Write([]byte{0})
		h.Write([]byte(r.Key))
		if want, got := h.Sum64(), refHash(r); got != want {
			t.Fatalf("refHash(%q/%q) = %#x, stdlib fnv = %#x", r.Type, r.Key, got, want)
		}
		if uint64(r.Vertex()) != refHash(r) {
			t.Fatalf("Vertex(%q/%q) disagrees with refHash", r.Type, r.Key)
		}
	}
	for _, s := range []string{"", "n", "node-12", "a longer node identity"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if want, got := h.Sum64(), strHash(s); got != want {
			t.Fatalf("strHash(%q) = %#x, stdlib fnv = %#x", s, got, want)
		}
		// The rendezvous scores pick replica sets and post-death directory
		// owners on every node; they must not move either.
		p := transport.NodeID(s)
		for _, r := range refs[:50] {
			h.Reset()
			h.Write([]byte("snap\x00" + s + "\x00" + r.Type + "\x00" + r.Key))
			if want, got := h.Sum64(), snapScore(p, r); got != want {
				t.Fatalf("snapScore(%q, %q/%q) = %#x, stdlib fnv = %#x", s, r.Type, r.Key, got, want)
			}
			h.Reset()
			h.Write([]byte(s + "\x00" + r.Type + "\x00" + r.Key))
			if want, got := mix64(h.Sum64()), ownerScore(p, r); got != want {
				t.Fatalf("ownerScore(%q, %q/%q) = %#x, finalized stdlib fnv = %#x", s, r.Type, r.Key, got, want)
			}
		}
	}
}

// Regression for the seed's wholesale cache reset: flooding the location
// cache far past its bound must stay bounded, evict cold routes one at a
// time, and keep routes that are actually being hit. Under the old reset
// every resident route — hot or not — vanished at the 128K boundary.
func TestLocCacheClockKeepsHotRoutes(t *testing.T) {
	const bound = 1024 // 16 residents per shard
	s := newShardTestSystem(t, bound, nil)
	// Routes must point at a peer: self-routes are deliberately not cached
	// (the activations map answers for local actors).
	peer := transport.NodeID("peer-node")
	hot := Ref{Type: "counter", Key: "hot-route"}
	s.cachePut(hot, peer)
	for i := 0; i < 50_000; i++ {
		s.cachePut(Ref{Type: "counter", Key: fmt.Sprintf("fill-%d", i)}, peer)
		// Keep the hot route's referenced bit set so every clock pass
		// grants it a second chance.
		if _, ok := s.cacheGet(hot); !ok {
			t.Fatalf("hot route evicted after %d cold inserts", i)
		}
	}
	if n := s.locCacheLen(); n > bound {
		t.Fatalf("cache exceeded bound: %d residents > %d", n, bound)
	}
	if _, ok := s.cacheGet(Ref{Type: "counter", Key: "fill-0"}); ok {
		t.Fatal("earliest cold route survived a 50K-entry flood of its cache")
	}
	if s.locEvicts.Load() == 0 {
		t.Fatal("flood past the bound recorded no evictions")
	}
	// Deleting entries orphans clock slots; inserts must reuse them without
	// growing past the bound.
	for i := 0; i < 1000; i++ {
		s.cacheDel(Ref{Type: "counter", Key: fmt.Sprintf("fill-%d", 49_000+i)})
	}
	for i := 0; i < 5000; i++ {
		s.cachePut(Ref{Type: "counter", Key: fmt.Sprintf("refill-%d", i)}, peer)
		if _, ok := s.cacheGet(hot); !ok {
			t.Fatalf("hot route lost during delete/reinsert churn (refill %d)", i)
		}
	}
	if n := s.locCacheLen(); n > bound {
		t.Fatalf("cache exceeded bound after delete/reinsert churn: %d > %d", n, bound)
	}
}

// resident counts the stripe's indexed keys (caller holds mu).
func (d *dedupShard) resident() int {
	n := 0
	for _, v := range d.index {
		if v != 0 {
			n++
		}
	}
	return n
}

// The reply-dedup window must stay bounded per stripe and keep honoring
// recorded replies while evicting the oldest entries.
func TestDedupWindowBounded(t *testing.T) {
	s := newShardTestSystem(t, 0, nil)
	const perStripe = dedupWindow / dedupShardCount
	peerA, _ := s.intern("peer-a")
	for i := uint64(0); i < 4*dedupWindow; i++ {
		key := dedupKey{from: peerA, id: i}
		proceed, prior := s.dedupBegin(key)
		if !proceed || prior != nil {
			t.Fatalf("fresh key %d not admitted (proceed=%v prior=%v)", i, proceed, prior)
		}
		s.dedupResolve(key, []byte("ok"), "")
	}
	total := 0
	for i := range s.dedupShards {
		d := &s.dedupShards[i]
		d.mu.Lock()
		n, live := d.resident(), len(d.slots)
		d.mu.Unlock()
		if n != live {
			t.Fatalf("stripe %d: %d resident keys vs a wrapped ring of %d slots", i, n, live)
		}
		if n > perStripe {
			t.Fatalf("stripe %d over budget: %d > %d", i, n, perStripe)
		}
		total += n
	}
	if total > dedupWindow {
		t.Fatalf("dedup window unbounded: %d > %d", total, dedupWindow)
	}
	// A recent (resident) key must replay its recorded reply, not re-execute.
	key := dedupKey{from: peerA, id: 4*dedupWindow - 1}
	proceed, prior := s.dedupBegin(key)
	if proceed || prior == nil || string(prior.payload) != "ok" {
		t.Fatalf("resident key re-admitted: proceed=%v prior=%+v", proceed, prior)
	}
}

// TestDedupWindowIndexCollisions crowds a stripe's worth of keys onto 24
// home places of the index, around its end so that the run wraps, and
// deletes them in random order: nearly every key probes past others and
// nearly every delete lands in the middle of a run. Each remaining key must
// still be found, and each deleted one must not. (The window itself evicts
// first-in first-out, and the next key's insert mostly refills the hole, so
// its own tests seldom leave one open.)
func TestDedupWindowIndexCollisions(t *testing.T) {
	var d dedupShard
	d.slots = make([]dedupSlot, dedupPerStripe)
	var keys []dedupKey
	for id := uint64(0); len(keys) < dedupPerStripe; id++ {
		if k := (dedupKey{id: id, from: 1}); k.home() >= dedupIndexLen-12 || k.home() < 12 {
			d.slots[len(keys)] = dedupSlot{id: k.id, from: k.from}
			d.insert(k, len(keys))
			keys = append(keys, k)
		}
	}
	gone := make([]bool, len(keys))
	for n, i := range rand.New(rand.NewSource(1)).Perm(len(keys)) {
		d.remove(keys[i], i)
		gone[i] = true
		if d.lookup(keys[i]) >= 0 {
			t.Fatalf("deleted key %d still found", i)
		}
		if n%16 != 0 {
			continue
		}
		for j, k := range keys {
			if got := d.lookup(k); !gone[j] && got != j {
				t.Fatalf("after %d deletes: key %d found at slot %d", n+1, j, got)
			}
		}
	}
	if n := d.resident(); n != 0 {
		t.Fatalf("%d places still indexed after every key was deleted", n)
	}
}

// TestDedupWindowWrapsInPlace wraps every stripe's ring several times with
// replies of varying size while retrying recent ids: each retry must get a
// copy of its own recorded reply — not what a later call wrote over a reused
// slot, and not a view a later call can write into — and an id the window
// has dropped runs again as new.
func TestDedupWindowWrapsInPlace(t *testing.T) {
	s := newShardTestSystem(t, 0, nil)
	reply := func(id uint64) []byte {
		b := make([]byte, 1+id%40)
		for i := range b {
			b[i] = byte(id + uint64(i)*7)
		}
		return b
	}
	peerA, _ := s.intern("peer-a")
	key := func(id uint64) dedupKey { return dedupKey{from: peerA, id: id} }
	var held []*dedupSlot // retried replies, checked again once their slots were reused
	var heldIDs []uint64
	for id := uint64(0); id < 5*dedupWindow; id++ {
		if proceed, prior := s.dedupBegin(key(id)); !proceed || prior != nil {
			t.Fatalf("fresh id %d not admitted (proceed=%v prior=%v)", id, proceed, prior)
		}
		if proceed, prior := s.dedupBegin(key(id)); proceed || prior != nil {
			t.Fatalf("duplicate of running id %d: proceed=%v prior=%v, want dropped", id, proceed, prior)
		}
		if id%97 == 0 {
			// A routing verdict, not a turn: the retry runs as new, in the same slot.
			s.dedupCancel(key(id))
			if proceed, prior := s.dedupBegin(key(id)); !proceed || prior != nil {
				t.Fatalf("retry of canceled id %d: proceed=%v prior=%v, want admitted", id, proceed, prior)
			}
		}
		errStr := ""
		if id%5 == 0 {
			errStr = fmt.Sprint("err-", id)
		}
		s.dedupResolve(key(id), reply(id), errStr)
		if id%3 != 0 || id < 100 {
			continue
		}
		// Retry an id 100 calls back: resident (a stripe holds its last 512).
		old := id - 100
		proceed, prior := s.dedupBegin(key(old))
		if proceed || prior == nil {
			t.Fatalf("retry of resident id %d re-admitted: proceed=%v prior=%v", old, proceed, prior)
		}
		wantErr := ""
		if old%5 == 0 {
			wantErr = fmt.Sprint("err-", old)
		}
		if !bytes.Equal(prior.payload, reply(old)) || prior.errStr != wantErr {
			t.Fatalf("retry of id %d got (%x, %q), want (%x, %q)", old, prior.payload, prior.errStr, reply(old), wantErr)
		}
		if old%600 == 0 {
			held, heldIDs = append(held, prior), append(heldIDs, old)
		}
	}
	for i, prior := range held {
		if !bytes.Equal(prior.payload, reply(heldIDs[i])) {
			t.Fatalf("recorded reply of id %d changed after its slot was reused: %x", heldIDs[i], prior.payload)
		}
	}
	if proceed, prior := s.dedupBegin(key(0)); !proceed || prior != nil {
		t.Fatalf("evicted id 0: proceed=%v prior=%v, want admitted as new", proceed, prior)
	}
}

// The pending-reply stripes must route an id to the same stripe for put,
// deliver and delete; a registration takes exactly one outcome, and a
// waiter that gave up takes none.
func TestPendingStripes(t *testing.T) {
	s := newShardTestSystem(t, 0, nil)
	waiters := make(map[uint64]*callWaiter)
	for i := uint64(1); i <= 200; i++ {
		waiters[i*2654435761] = s.waiter(i * 2654435761)
	}
	for id, w := range waiters {
		if id%2 == 0 {
			if _, err := s.await(w, 0); !errors.Is(err, ErrTimeout) {
				t.Fatalf("await(%d) = %v, want ErrTimeout", id, err)
			}
			s.pendDeliver(id, outcome{reply: &transport.Envelope{ID: id}})
			if len(w.ch) != 0 {
				t.Fatalf("waiter %d took an outcome after it unregistered", id)
			}
			continue
		}
		s.pendDeliver(id, outcome{reply: &transport.Envelope{ID: id}})
		s.pendDeliver(id, outcome{reply: &transport.Envelope{ID: id + 1}}) // duplicate: no entry left
		if out := <-w.ch; out.reply.ID != id {
			t.Fatalf("waiter %d received the reply to %d", id, out.reply.ID)
		}
		if len(w.ch) != 0 {
			t.Fatalf("waiter %d took a second outcome", id)
		}
	}
}

// Per-shard occupancy gauges and cache counters must reach the Prometheus
// exposition.
func TestShardMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	s := newShardTestSystem(t, 0, reg)
	for i := 0; i < 32; i++ {
		ref := Ref{Type: "counter", Key: fmt.Sprintf("m-%d", i)}
		if err := s.Call(ref, "Add", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	reg.Write(&buf)
	out := buf.String()
	for _, want := range []string{
		`actop_shard_activations{shard="0"}`,
		"actop_loccache_hits_total",
		"actop_loccache_misses_total",
		"actop_loccache_evictions_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := s.activationsLen(); got != 32 {
		t.Fatalf("activationsLen = %d, want 32", got)
	}
}

// tableLen counts the entry slots of every shard, vacated ones included.
func tableLen(s *System) int {
	n := 0
	for i := range s.state {
		sh := &s.state[i]
		sh.mu.RLock()
		n += len(sh.ents) - 1 // ents[0] is no entry
		sh.mu.RUnlock()
	}
	return n
}

// The state table holds an entry only while one of its facts does: routing
// a flood of refs four times the cache bound leaves the table at the bound
// plus the node's own actors, and a vertex maps back to its ref exactly
// while the ref's activation or route is resident.
func TestStatePlaneBounded(t *testing.T) {
	const bound = 1024
	s := newShardTestSystem(t, bound, nil)
	local := make([]Ref, 32)
	for i := range local {
		local[i] = Ref{Type: "counter", Key: fmt.Sprintf("local-%d", i)}
		if err := s.Call(local[i], "Add", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	peer := transport.NodeID("peer-node")
	routed := make([]Ref, 4*bound)
	for i := range routed {
		routed[i] = Ref{Type: "counter", Key: fmt.Sprintf("routed-%d", i)}
		s.cachePut(routed[i], peer)
	}
	if n := tableLen(s); n > bound+len(local) {
		t.Fatalf("state table holds %d entries after a %d-ref flood, bound %d + %d actors", n, len(routed), bound, len(local))
	}
	for _, ref := range local {
		if e, ok := s.refOf(refHash(ref)); !ok || e.ref != ref || e.act == nil {
			t.Fatalf("refOf(%s) = %+v, %v: want its activation", ref, e, ok)
		}
	}
	resident := 0
	for _, ref := range routed {
		e, ok := s.refOf(refHash(ref))
		if !ok {
			continue
		}
		if e.ref != ref || s.nodeName(e.route) != peer {
			t.Fatalf("refOf(%s) = %+v: want its route to %s", ref, e, peer)
		}
		resident++
	}
	if want := s.locCacheLen(); resident != want {
		t.Fatalf("refOf answers for %d routed refs, %d routes resident", resident, want)
	}
	if _, ok := s.refOf(refHash(routed[0])); ok {
		t.Fatal("refOf answers for the earliest route of a flood four times the cache")
	}
}

// Two refs that share one hash keep apart: each resolves to its own facts
// while the other gains and loses an activation, a directory record and a
// route — whichever of them heads the hash's chain — and neither leaves
// anything behind once its facts are gone.
func TestStatePlaneCollision(t *testing.T) {
	s := newShardTestSystem(t, 0, nil)
	// a is forced onto b's hash through the table's (h, ref) functions.
	a, b := Ref{Type: "counter", Key: "a"}, Ref{Type: "counter", Key: "b"}
	h := refHash(b)
	sh := s.shard(h)
	peer := transport.NodeID("peer-node")
	deadline := time.Now().Add(time.Hour)
	expect := func(stage string, ref Ref, want transport.NodeID) {
		t.Helper()
		got, err := s.resolve(h, ref, false, false, deadline)
		if want == "" {
			if err == nil {
				t.Fatalf("%s: %s resolved to %q, want unregistered", stage, ref, got)
			}
			return
		}
		if err != nil || got != want {
			t.Fatalf("%s: %s resolved to %q, %v; want %q", stage, ref, got, err, want)
		}
		if e, ok := s.refOf(h); !ok || (e.ref != a && e.ref != b) {
			t.Fatalf("%s: refOf = %+v, %v; want a or b", stage, e, ok)
		}
	}
	activate := func() *activation {
		act := &activation{ref: a, refH: h, actor: &counterActor{}}
		sh.mu.Lock()
		e := sh.entry(h, a)
		e.act = act
		sh.set(h, e)
		sh.mu.Unlock()
		return act
	}

	act := activate()
	expect("a active", a, s.Node())
	expect("a active", b, "")
	s.cacheInsert(h, b, peer) // b heads the chain, a behind it
	if _, err := s.dirLookupLocal(h, b, s.Node(), true); err != nil {
		t.Fatal(err)
	}
	expect("b routed", a, s.Node())
	expect("b routed", b, peer)
	if !s.retire(act, false) { // the chain's tail leaves
		t.Fatal("retire: a was not active")
	}
	expect("a retired", a, "")
	expect("a retired", b, peer)
	act = activate() // a heads the chain, b behind it
	expect("a back", a, s.Node())
	expect("a back", b, peer)
	if !s.retire(act, false) { // the chain's head leaves
		t.Fatal("retire: a was not active")
	}
	expect("a retired again", a, "")
	expect("a retired again", b, peer)

	// Fill the shard's clock twice over with younger routes (their hashes
	// land in the same shard): the sweep grants b's route — hit above — its
	// second chance, then evicts it.
	for i := 1; i <= 2*sh.cacheCap; i++ {
		s.cacheInsert(h+uint64(i)*stateShardCount, Ref{Type: "counter", Key: fmt.Sprintf("fill-%d", i)}, peer)
	}
	sh.mu.Lock()
	e := sh.entry(h, b)
	if e.route != 0 || s.nodeName(e.dir) != s.Node() {
		sh.mu.Unlock()
		t.Fatalf("after the sweep b's entry is %+v: want its directory record and no route", e)
	}
	e.dir = 0
	sh.set(h, e)
	acts, dirs := sh.acts, sh.dirs
	sh.mu.Unlock()
	if e, ok := s.refOf(h); ok || acts != 0 || dirs != 0 {
		t.Fatalf("left behind: refOf = %+v, %v; %d activations, %d directory records", e, ok, acts, dirs)
	}
}

// The node table names each id it was given by one index for good, turns
// indices back into ids without a lock while other goroutines add ids, and
// at its bound refuses a new id instead of reusing an index: the route,
// the directory update and the migration that would store it are refused
// with it.
func TestStatePlaneNodeTable(t *testing.T) {
	s := newShardTestSystem(t, 0, nil)
	if i, ok := s.nodeLookup(""); !ok || i != 0 {
		t.Fatalf(`nodeLookup("") = %d, %v; want 0, true`, i, ok)
	}
	self, ok := s.nodeLookup(s.Node())
	if !ok || self == 0 || s.nodeName(self) != s.Node() {
		t.Fatalf("member %s: index %d, %v names %q", s.Node(), self, ok, s.nodeName(self))
	}
	const writers, per = 4, 2000
	id := func(w, i int) transport.NodeID { return transport.NodeID(fmt.Sprintf("w%d-%d", w, i)) }
	idx := make([][]nodeIdx, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				n, ok := s.intern(id(w, i))
				if !ok {
					t.Errorf("intern(%s) refused below the bound", id(w, i))
					return
				}
				idx[w] = append(idx[w], n)
				// Read back an index another writer may have published.
				if j := nodeIdx(1 + int(n)/2); s.nodeName(j) == "" {
					t.Errorf("index %d below published %d names no id", j, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[nodeIdx]transport.NodeID{self: s.Node()}
	for w := range idx {
		for i, n := range idx[w] {
			if prev, dup := seen[n]; dup {
				t.Fatalf("index %d names both %s and %s", n, prev, id(w, i))
			}
			seen[n] = id(w, i)
			if got := s.nodeName(n); got != id(w, i) {
				t.Fatalf("index %d names %s, want %s", n, got, id(w, i))
			}
		}
	}
	for i := 0; ; i++ {
		if _, ok := s.intern(transport.NodeID(fmt.Sprint("fill-", i))); !ok {
			break
		}
	}
	if n := len(*s.nodes.ids.Load()) - 1; n != maxNodeIDs {
		t.Fatalf("table refused at %d ids, bound %d", n, maxNodeIDs)
	}
	const extra = transport.NodeID("one-too-many")
	if n, ok := s.intern(extra); ok || n != 0 {
		t.Fatalf("intern past the bound = %d, %v; want refused", n, ok)
	}
	for w := range idx {
		if n, ok := s.intern(id(w, 0)); !ok || n != idx[w][0] {
			t.Fatalf("known id %s at the bound: %d, %v; want %d", id(w, 0), n, ok, idx[w][0])
		}
	}

	ref := Ref{Type: "counter", Key: "routed"}
	s.cachePut(ref, extra)
	if n, ok := s.cacheGet(ref); ok {
		t.Fatalf("route to a refused id recorded as %s", n)
	}
	s.cachePut(ref, id(0, 0))
	if n, ok := s.cacheGet(ref); !ok || n != id(0, 0) {
		t.Fatalf("route to a known id at the bound: %s, %v", n, ok)
	}
	update, err := marshalArgs(dirRequest{Type: ref.Type, Key: ref.Key, NewNode: string(extra), Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.handleDir(ctlDirUpdate, update); !errors.Is(err, errNodeTableFull) {
		t.Fatalf("directory update naming a refused id: %v, want %v", err, errNodeTableFull)
	}
	if err := s.Call(Ref{Type: "counter", Key: "mover"}, "Add", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Migrate(Ref{Type: "counter", Key: "mover"}, extra); !errors.Is(err, errNodeTableFull) {
		t.Fatalf("migration to a refused id: %v, want %v", err, errNodeTableFull)
	}
}

// fatActor is large enough to be allocated on its own — outside the tiny
// allocator, where an object's finalizer never runs — so a finalizer on it
// reports when its System became unreachable.
type fatActor struct {
	next *fatActor
	pad  [64]byte
}

func (*fatActor) Receive(*Context, string, []byte) ([]byte, error) { return nil, nil }

// A stopped System is garbage once its owner drops it, whether or not it
// ever took part in a partition exchange.
func TestStatePlaneCollectedAfterStop(t *testing.T) {
	finalized := make(chan struct{})
	func() {
		sys, err := NewSystem(Config{Transport: transport.NewNetwork(0).Join("gc-node"), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sys.RegisterType("fat", func() Actor {
			a := &fatActor{}
			runtime.SetFinalizer(a, func(*fatActor) { close(finalized) })
			return a
		})
		if err := sys.Call(Ref{Type: "fat", Key: "x"}, "Touch", nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.ExchangeRound(partition.DefaultOptions(), time.Minute); err != nil {
			t.Fatal(err)
		}
		sys.Stop()
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a stopped System that ran an exchange round was never collected")
}

// Race soak over the sharded state plane: concurrent calls, lookups,
// migrations, deactivations, and cache invalidations on overlapping refs.
// Run under -race (the Makefile battery does); the functional assertion is
// that no increment is lost on the migrate-churned counters and that every
// actor is callable when the dust settles.
func TestConcurrentStatePlaneSoak(t *testing.T) {
	sys := newCluster(t, 3, PlaceRandom)
	const keys = 48
	refs := make([]Ref, keys)
	for i := range refs {
		refs[i] = Ref{Type: "counter", Key: fmt.Sprintf("soak-%d", i)}
		if err := sys[0].Call(refs[i], "Add", 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	ephem := make([]Ref, 16)
	for i := range ephem {
		ephem[i] = Ref{Type: "counter", Key: fmt.Sprintf("ephem-%d", i)}
	}

	stop := make(chan struct{})
	adds := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(keys)
				if err := sys[g%3].Call(refs[k], "Add", 1, nil); err != nil {
					t.Errorf("Add %s: %v", refs[k], err)
					return
				}
				adds[k].Add(1)
			}
		}(g)
	}
	// Migrator: bounce soak actors between nodes. Losing the race to find
	// the host is fine; losing state is not (checked at the end).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		for {
			select {
			case <-stop:
				return
			default:
			}
			ref := refs[rng.Intn(keys)]
			for i, s := range sys {
				if s.HostsActor(ref) {
					_ = s.Migrate(ref, sys[(i+1)%3].Node())
					break
				}
			}
		}
	}()
	// Deactivator + caller on ephemeral actors (state resets by design).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for {
			select {
			case <-stop:
				return
			default:
			}
			ref := ephem[rng.Intn(len(ephem))]
			// A call chasing an actor this loop keeps deactivating can
			// exhaust its redirect budget; that's the documented contract
			// under adversarial churn, not a lost update.
			if err := sys[rng.Intn(3)].Call(ref, "Add", 1, nil); err != nil &&
				!strings.Contains(err.Error(), "too many redirects") {
				t.Errorf("ephem Add %s: %v", ref, err)
				return
			}
			for _, s := range sys {
				if s.HostsActor(ref) {
					_ = s.Deactivate(ref)
					break
				}
			}
		}
	}()
	// Cache invalidator: drop routes so lookups re-resolve mid-churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(400))
		for {
			select {
			case <-stop:
				return
			default:
			}
			sys[rng.Intn(3)].cacheDel(refs[rng.Intn(keys)])
			time.Sleep(100 * time.Microsecond)
		}
	}()

	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, ref := range refs {
		var out int
		if err := sys[k%3].Call(ref, "Get", nil, &out); err != nil {
			t.Fatalf("post-soak Get %s: %v", ref, err)
		}
		if int64(out) != adds[k].Load() {
			hosts := ""
			for _, s := range sys {
				if s.HostsActor(ref) {
					hosts += " " + string(s.Node())
				}
			}
			var where string
			sys[k%3].Call(ref, "WhereAmI", nil, &where)
			t.Fatalf("%s: %d increments recorded, state says %d (hosts:%s, answered by %s)",
				ref, adds[k].Load(), out, hosts, where)
		}
	}
}
