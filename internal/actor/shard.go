package actor

import (
	"errors"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/flight"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// The sharded hot-path state plane. A node at paper scale holds ~1M live
// activations and fields concurrent calls, activations, migrations, and
// failover purges from every worker goroutine; a single RWMutex over the
// routing state serializes all of them (CAF reports exactly this coarse-lock
// ceiling at high core counts). Instead, everything the node knows about one
// ref — its live activation, the directory record this node owns for it,
// the forwarding tombstone a migration left, the cached gossip route — is
// one entry of one table, keyed by the ref's FNV-1a hash. That hash is also
// the partitioner's vertex id and the stripe selector: the table is split
// over stateShardCount independently locked shards, so operations on
// distinct refs proceed in parallel, and every invariant that spans facts
// of one ref (an install writes the activation and drops the tombstone) is
// one struct written under one shard lock.
//
// The same striping covers the two call-plane tables: the pending reply
// map (striped by call id) and the reply-dedup window (striped by caller
// identity), each previously a node-global mutex acquired once per remote
// call and once per delivered turn.

const (
	// stateShardBits picks 64 shards: enough that 8–64 runtime goroutines
	// rarely collide (birthday bound ~2% per op at 8 workers), small enough
	// that per-shard bookkeeping (clock rings, gauges) stays negligible.
	stateShardBits  = 6
	stateShardCount = 1 << stateShardBits

	pendShardCount  = 16
	dedupShardBits  = 4
	dedupShardCount = 1 << dedupShardBits
)

// 64-bit FNV-1a parameters, mirroring hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// refHash is the allocation-free FNV-1a hash of a ref's identity,
// bit-identical to hash/fnv over "Type\x00Key" — and therefore equal to
// uint64(ref.Vertex()). It is the state table's key, its shard selector and
// the partitioner's vertex id at once.
func refHash(r Ref) uint64 { return fnvRef(fnvOffset64, r) }

// strHash is allocation-free FNV-1a over a plain string (node ids).
func strHash(s string) uint64 { return fnvString(fnvOffset64, s) }

// fnvString continues the FNV-1a hash h over s.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvRef continues the FNV-1a hash h over "Type\x00Key".
func fnvRef(h uint64, r Ref) uint64 {
	h = fnvString(h, r.Type) * fnvPrime64 // the \x00 separator: XOR with zero is the identity
	return fnvString(h, r.Key)
}

// mix64 is splitmix64's finalizer: a bijection that spreads every input bit
// over the whole word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// refEntry is everything this node knows about one ref. An entry exists
// only while at least one of its facts holds (live); a write that clears
// the last one deletes it, so a shard holds at most its activations, owned
// directory records and tombstones plus its route bound. The node ids it
// names are places in the System's node table (0: none) and its deadline a
// reading of the System's clock, so that an entry is 72 bytes.
type refEntry struct {
	// The fields a call's lookup reads come first, in its first 56 bytes:
	// however the 72-byte stride lays an entry over cache lines, they span
	// at most two, and one when the entry starts at most 8 bytes into a line.
	ref Ref
	act *activation // the live activation here, or nil
	// route is the cached gossip route.
	route nodeIdx
	// dir is the node the directory record this node owns places the actor
	// on (0 when it owns none).
	dir nodeIdx
	// fwd is the forwarding tombstone: where the actor went when it migrated
	// off this node (0 when it did not).
	fwd nodeIdx
	// slot is the cached route's place in the shard's clock ring.
	slot int32
	// next indexes the next entry in the chain of refs that share this one's
	// hash; 0 ends it.
	next int32
	// dirEpoch is the migration epoch of the incarnation that registered
	// the directory record (dir): updates carry the epoch so a delayed retry
	// of an older migration's update loses to the newer state it races with
	// (background retries make updates arrive out of order under loss).
	dirEpoch uint64
	// fwdUntil is the System clock reading until which the tombstone (fwd)
	// is authoritative.
	fwdUntil int64
}

func (e *refEntry) live() bool {
	return e.act != nil || e.dir != 0 || e.fwd != 0 || e.route != 0
}

// liveFwd reports whether e holds a tombstone that has not expired.
func (s *System) liveFwd(e *refEntry) bool { return e.fwd != 0 && s.clock() < e.fwdUntil }

// clock reads the System's monotonic clock: nanoseconds since NewSystem.
func (s *System) clock() int64 { return int64(time.Since(s.born)) }

// nodeIdx names a node id by its place in the System's node table; 0 is
// no node, so a zero entry field means "none" as "" did.
type nodeIdx uint16

// maxNodeIDs bounds the node table: every nodeIdx but 0 names an id.
const maxNodeIDs = 1<<16 - 1

// errNodeTableFull refuses what would store an id the full node table
// cannot name.
var errNodeTableFull = errors.New("actor: node table full")

// nodeTable interns the node ids the state plane and the dedup window
// store. It is append-only: an id keeps its index for the System's life,
// so an index read under any lock names the same id whenever it is turned
// back. The members come first, in s.peers order (index i+1 for peers[i]),
// and are found by binary search without a lock; ids from outside the
// membership — a one-shot caller, a route a test plants — are added under
// mu. Readers turn an index back into its id through ids, a copy-on-write
// slice whose writers append past every published length. At maxNodeIDs it
// refuses new ids instead of reusing an index.
type nodeTable struct {
	ids   atomic.Pointer[[]transport.NodeID] // ids[0] is ""
	mu    sync.Mutex
	extra map[transport.NodeID]nodeIdx
}

func (t *nodeTable) init(peers []transport.NodeID) {
	ids := make([]transport.NodeID, 1, 1+len(peers))
	ids = append(ids, peers...)
	t.ids.Store(&ids)
	t.extra = make(map[transport.NodeID]nodeIdx)
}

// nodeName returns the id at index i ("" for 0).
func (s *System) nodeName(i nodeIdx) transport.NodeID { return (*s.nodes.ids.Load())[i] }

// memberIdx returns n's index if n is a member.
func (s *System) memberIdx(n transport.NodeID) (nodeIdx, bool) {
	if i, ok := slices.BinarySearch(s.peers, n); ok {
		return nodeIdx(i + 1), true
	}
	return 0, false
}

// nodeLookup returns n's index without adding it ("" is 0).
func (s *System) nodeLookup(n transport.NodeID) (nodeIdx, bool) {
	if n == "" {
		return 0, true
	}
	if i, ok := s.memberIdx(n); ok {
		return i, true
	}
	t := &s.nodes
	t.mu.Lock()
	i, ok := t.extra[n]
	t.mu.Unlock()
	return i, ok
}

// intern returns n's index, adding n to the table if it is new. It
// reports false, and index 0, when the table is full.
func (s *System) intern(n transport.NodeID) (nodeIdx, bool) {
	if i, ok := s.nodeLookup(n); ok {
		return i, true
	}
	t := &s.nodes
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.extra[n]; ok {
		return i, true
	}
	ids := *t.ids.Load()
	if len(ids) > maxNodeIDs {
		return 0, false
	}
	i := nodeIdx(len(ids))
	ids = append(ids, n)
	t.ids.Store(&ids)
	t.extra[n] = i
	return i, true
}

// forwardTTL bounds how long an outbound migration's tombstone stays
// authoritative. It must comfortably outlive the directory update's common
// retry horizon (the sync attempt plus the first background re-sends), and
// stay short enough that a stale tombstone — possible only if this node
// somehow never learns the chain moved on — cannot misroute for long.
const forwardTTL = 5 * time.Second

// stateShard is one stripe of the node's routing and directory state. The
// entries live in ents, and refs maps a ref hash to its entry's index: a
// probe reads the entry in place, and a new entry takes a vacated index
// (free) or the end of ents, so neither allocates per entry. Two refs with
// one 64-bit hash chain through next. ents[0] is never written: index 0
// stands for "no entry", and the empty entry there is what get returns.
type stateShard struct {
	mu   sync.RWMutex
	ents []refEntry
	refs map[uint64]int32
	free []int32
	// Entries holding an activation, an owned directory record, a route.
	acts, dirs, routes int

	// Forwarding tombstones in insertion order: fwdOrder is a head-indexed
	// ring; uniform TTLs make it FIFO-expiring, so inserts prune expired
	// tombstones from the head in O(1) amortized.
	fwdOrder []Ref
	fwdHead  int

	// Location cache with clock (second-chance) eviction, bounded at
	// cacheCap routes: hand sweeps the ring on insert pressure, granting one
	// reprieve to routes hit since the last pass. A slot holds the hash of
	// the ref whose route claims it and the referenced bit — set on every hit
	// (atomically: hits happen under the read lock, concurrently with each
	// other), cleared by the hand under the write lock. A slot whose route
	// was dropped is orphaned — no entry claims it — until the sweep reuses
	// it.
	clock    []clockSlot
	hand     int
	cacheCap int
}

type clockSlot struct {
	h    uint64
	used atomic.Bool
}

func (s *System) shard(h uint64) *stateShard {
	return &s.state[h&(stateShardCount-1)]
}

// find returns the index of ref's entry (0 when it has none) and of the
// entry before it in its hash's chain (0 when it heads the chain).
func (sh *stateShard) find(h uint64, ref Ref) (i, prev int32) {
	for i = sh.refs[h]; i != 0 && sh.ents[i].ref != ref; i = sh.ents[i].next {
		prev = i
	}
	return i, prev
}

// get returns ref's entry in place — the empty ents[0] when it has none.
// Caller holds mu and reads through the pointer only until the shard's
// next write.
func (sh *stateShard) get(h uint64, ref Ref) *refEntry {
	i, _ := sh.find(h, ref)
	return &sh.ents[i]
}

// entry returns a copy of ref's entry — an empty one when it has none — for
// the caller to change and store with set. Caller holds mu for writing.
func (sh *stateShard) entry(h uint64, ref Ref) refEntry {
	e := *sh.get(h, ref)
	e.ref = ref
	return e
}

// set stores e as its ref's entry — deleting the entry when e holds no
// fact — and keeps the shard's counters. Caller holds mu for writing.
func (sh *stateShard) set(h uint64, e refEntry) {
	i, prev := sh.find(h, e.ref)
	old := &sh.ents[i]
	sh.count(old, -1)
	sh.count(&e, 1)
	switch {
	case i != 0 && e.live():
		e.next = old.next
		*old = e
	case i != 0:
		switch {
		case prev != 0:
			sh.ents[prev].next = old.next
		case old.next != 0:
			sh.refs[h] = old.next
		default:
			delete(sh.refs, h)
		}
		*old = refEntry{}
		sh.free = append(sh.free, i)
	case e.live():
		e.next = sh.refs[h]
		if n := len(sh.free); n > 0 {
			i, sh.free = sh.free[n-1], sh.free[:n-1]
			sh.ents[i] = e
		} else {
			i = int32(len(sh.ents))
			sh.ents = append(sh.ents, e)
		}
		sh.refs[h] = i
	}
}

func (sh *stateShard) count(e *refEntry, d int) {
	if e.act != nil {
		sh.acts += d
	}
	if e.dir != 0 {
		sh.dirs += d
	}
	if e.route != 0 {
		sh.routes += d
	}
}

// each calls fn on a copy of every entry of the shard; fn may set it.
// Caller holds mu (for writing if fn sets).
func (sh *stateShard) each(fn func(h uint64, e refEntry)) {
	for h, i := range sh.refs {
		for i != 0 {
			e := sh.ents[i]
			i = e.next
			fn(h, e)
		}
	}
}

// initShards sizes and allocates the state plane. cacheSize is the
// node-wide location-cache bound, split evenly across shards.
func (s *System) initShards(cacheSize int) {
	per := cacheSize / stateShardCount
	if per < 8 {
		per = 8
	}
	for i := range s.state {
		sh := &s.state[i]
		sh.ents = make([]refEntry, 1)
		sh.refs = make(map[uint64]int32)
		sh.cacheCap = per
	}
	for i := range s.pend {
		s.pend[i].m = make(map[uint64]*callWaiter)
	}
}

// refOf returns the entry of the ref whose vertex id is v, if this node
// knows anything about it.
func (s *System) refOf(v uint64) (refEntry, bool) {
	sh := s.shard(v)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i := sh.refs[v]
	return sh.ents[i], i != 0
}

// activations lists the node's live activations, one shard at a time.
func (s *System) activations() []*activation {
	var out []*activation
	s.eachActivation(func(a *activation) { out = append(out, a) })
	return out
}

// eachActivation calls fn on each live activation, one shard at a time under
// that shard's read lock, so fn must not take a shard lock.
func (s *System) eachActivation(fn func(*activation)) {
	for i := range s.state {
		sh := &s.state[i]
		sh.mu.RLock()
		for j := range sh.ents {
			if a := sh.ents[j].act; a != nil {
				fn(a)
			}
		}
		sh.mu.RUnlock()
	}
}

// --- location cache (per-shard clock/second-chance eviction) ---
//
// Once full, each shard evicts one cold route per insert: hits set the
// route's referenced bit, the clock hand clears bits as it sweeps and evicts
// the first route it finds unreferenced since its last pass. Warm routes
// survive indefinitely (DESIGN.md "Location cache").

// touch sets a resident route's referenced bit. Safe under the read lock.
func (sh *stateShard) touch(e *refEntry) {
	if u := &sh.clock[e.slot].used; !u.Load() { // avoid dirtying the line on every repeat hit
		u.Store(true)
	}
}

func (s *System) cacheGet(ref Ref) (transport.NodeID, bool) {
	h := refHash(ref)
	sh := s.shard(h)
	sh.mu.RLock()
	e := sh.get(h, ref)
	n := e.route
	if n != 0 {
		sh.touch(e)
	}
	sh.mu.RUnlock()
	if n != 0 {
		s.locHits.Add(1)
	} else {
		s.locMisses.Add(1)
	}
	return s.nodeName(n), n != 0
}

// setRoute records node as e's cached route, taking a clock slot for a new
// route and evicting by the clock when the shard is at capacity. The caller
// holds sh.mu for writing and stores e afterwards. Every route write in the
// package funnels through here so the clock ring stays consistent with the
// table.
func (s *System) setRoute(sh *stateShard, h uint64, e *refEntry, node transport.NodeID) {
	var n nodeIdx
	if node != s.Node() {
		n, _ = s.intern(node) // 0 when the node table is full
	}
	if n == 0 {
		// A self-route is never information: if we host the actor the
		// activation answers first, and if we don't, a cached self route
		// would seed a spurious local activation the moment routing consults
		// it (split brain). Record "unknown" instead — as for an id the full
		// node table refuses: a route is gossip, and unknown is always safe.
		e.route = 0
		return
	}
	if e.route != 0 {
		e.route = n
		sh.clock[e.slot].used.Store(true)
		return
	}
	e.route = n
	if len(sh.clock) < sh.cacheCap {
		e.slot = int32(len(sh.clock))
		sh.clock = append(sh.clock, clockSlot{h: h})
		return
	}
	for {
		if sh.hand >= len(sh.clock) {
			sh.hand = 0
		}
		c := &sh.clock[sh.hand]
		victim, resident := sh.routeAt(c.h, int32(sh.hand))
		if resident && c.used.Swap(false) {
			sh.hand++ // referenced since the last sweep: second chance
			continue
		}
		if resident {
			victim.route = 0
			sh.set(c.h, victim)
			s.locEvicts.Add(1)
		}
		// Reuse the slot (an eviction's, or an orphan).
		c.h = h
		c.used.Store(false)
		e.slot = int32(sh.hand)
		sh.hand++
		return
	}
}

// routeAt returns the entry whose route holds clock slot i (h is the slot's
// hash), if any still does.
func (sh *stateShard) routeAt(h uint64, i int32) (refEntry, bool) {
	for j := sh.refs[h]; j != 0; j = sh.ents[j].next {
		if e := sh.ents[j]; e.route != 0 && e.slot == i {
			return e, true
		}
	}
	return refEntry{}, false
}

// recordForward leaves a forwarding tombstone at a migration's source: an
// AUTHORITATIVE (unlike the gossip cache) statement that the actor this node
// just handed off now lives at to, honored by both resolution paths ahead of
// everything but a live activation. It exists for the window where the
// owner's directory entry still names this node because the migration's
// update is in flight (retried in the background under loss): without it,
// directory-guided routing would re-instantiate the actor at its old home —
// a permanent split brain. The route is mirrored into the location cache
// (which has no TTL) so cheap first-hop routing survives the tombstone.
// Migrate interned to before the transfer, so the table has its index.
func (s *System) recordForward(a *activation, to transport.NodeID) {
	h, ref := a.refH, a.ref
	sh := s.shard(h)
	fwd, _ := s.nodeLookup(to)
	now := s.clock()
	sh.mu.Lock()
	e := sh.entry(h, ref)
	e.fwd, e.fwdUntil = fwd, now+int64(forwardTTL)
	s.setRoute(sh, h, &e, to)
	sh.set(h, e)
	sh.fwdOrder = append(sh.fwdOrder, ref)
	// Uniform TTLs expire in insertion order: prune the ring head. A slot
	// whose tombstone was refreshed (re-migration) or dropped (install,
	// fresh activation) just advances past.
	for sh.fwdHead < len(sh.fwdOrder) {
		r := sh.fwdOrder[sh.fwdHead]
		rh := refHash(r)
		if re := sh.entry(rh, r); re.fwd != 0 {
			if now < re.fwdUntil {
				break
			}
			re.fwd = 0
			sh.set(rh, re)
		}
		sh.fwdOrder[sh.fwdHead] = Ref{}
		sh.fwdHead++
	}
	if sh.fwdHead >= len(sh.fwdOrder)/2 && sh.fwdHead > 64 {
		sh.fwdOrder = append(sh.fwdOrder[:0], sh.fwdOrder[sh.fwdHead:]...)
		sh.fwdHead = 0
	}
	sh.mu.Unlock()
	s.flight.Record(flight.Event{Kind: flight.KindTombstone, Actor: ref.String(), Peer: string(to)})
}

// cachePut records ref's route.
func (s *System) cachePut(ref Ref, node transport.NodeID) {
	s.cacheInsert(refHash(ref), ref, node)
}

func (s *System) cacheInsert(h uint64, ref Ref, node transport.NodeID) {
	sh := s.shard(h)
	sh.mu.Lock()
	e := sh.entry(h, ref)
	s.setRoute(sh, h, &e, node)
	sh.set(h, e)
	sh.mu.Unlock()
}

// cacheHint records where ref was just seen running — the node a call from
// it arrived from — unless the cache says so already (the common case, read
// lock only). A hint is gossip like any cached route: a live activation or a
// forwarding tombstone outranks it, and a stale one costs a redirect.
func (s *System) cacheHint(ref Ref, node transport.NodeID) {
	h := refHash(ref)
	sh := s.shard(h)
	sh.mu.RLock()
	known := s.nodeName(sh.get(h, ref).route) == node
	sh.mu.RUnlock()
	if !known {
		s.cacheInsert(h, ref, node)
	}
}

// cacheDel drops a possibly poisoned route so the next attempt re-resolves
// through the directory: a route to this node records "unknown" (setRoute).
func (s *System) cacheDel(ref Ref) { s.cachePut(ref, s.Node()) }

// totals sums live activations and resident routes across all shards.
func (s *System) totals() (acts, routes int) {
	for i := range s.state {
		sh := &s.state[i]
		sh.mu.RLock()
		acts, routes = acts+sh.acts, routes+sh.routes
		sh.mu.RUnlock()
	}
	return acts, routes
}

func (s *System) locCacheLen() int { _, n := s.totals(); return n }

func (s *System) activationsLen() int { n, _ := s.totals(); return n }

// --- per-shard metrics exposition ---

// shardLabels pre-renders the shard-index label values so metrics call
// sites pass entries of a fixed table (bounded cardinality by construction).
var shardLabels = func() [stateShardCount]string {
	var out [stateShardCount]string
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}()

// registerShardMetrics exposes directory pressure on the metrics registry:
// per-shard occupancy gauges (refreshed at scrape time via OnCollect) and
// the node-wide location-cache hit/miss/eviction counters.
func (s *System) registerShardMetrics() {
	reg := s.cfg.Metrics
	acts := reg.Gauge("actop_shard_activations",
		"live activations per state shard", "shard")
	dirs := reg.Gauge("actop_shard_dir_entries",
		"owned directory entries per state shard", "shard")
	locs := reg.Gauge("actop_shard_loccache_entries",
		"resident location-cache routes per state shard", "shard")
	hits := reg.Counter("actop_loccache_hits_total",
		"location-cache lookups answered from the cache")
	misses := reg.Counter("actop_loccache_misses_total",
		"location-cache lookups that fell through to the directory")
	evicts := reg.Counter("actop_loccache_evictions_total",
		"location-cache residents evicted by the clock sweep")
	reg.OnCollect(func(*metrics.Registry) {
		for i := range s.state {
			sh := &s.state[i]
			sh.mu.RLock()
			a, d, l := sh.acts, sh.dirs, sh.routes
			sh.mu.RUnlock()
			acts.Set(float64(a), shardLabels[i])
			dirs.Set(float64(d), shardLabels[i])
			locs.Set(float64(l), shardLabels[i])
		}
		hits.SetTotal(s.locHits.Load())
		misses.SetTotal(s.locMisses.Load())
		evicts.SetTotal(s.locEvicts.Load())
	})
}
