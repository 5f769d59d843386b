package actor

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/flight"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// The sharded hot-path state plane (ISSUE 6). A node at paper scale holds
// ~1M live activations and fields concurrent calls, activations, migrations,
// and failover purges from every worker goroutine; a single RWMutex over the
// routing maps serializes all of them (CAF reports exactly this coarse-lock
// ceiling at high core counts). Instead, the ref-keyed maps — activations,
// owned directory entries, the location cache, and the vertex↔ref index —
// are striped over stateShardCount independently locked shards, keyed by the
// ref's FNV-1a hash. Operations on distinct refs touch disjoint shards and
// proceed in parallel; multi-map invariants (an install writes the
// activation, its cache route, and its vertex mapping together) survive
// because every map for one ref lives in that ref's single shard — the
// vertex id IS the ref hash, so even the vertex index co-shards.
//
// The same treatment covers the two call-plane tables: the pending reply
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
	dedupShardCount = 16
)

// 64-bit FNV-1a parameters, mirroring hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// refHash is the allocation-free FNV-1a hash of a ref's identity,
// bit-identical to hash/fnv over "Type\x00Key" — and therefore equal to
// uint64(ref.Vertex()). Shard selection, the vertex index, and the
// partitioner's vertex ids all agree on this one hash, so a ref's
// activation, cache route, directory entry, and vertex mapping always
// co-reside in the shard it names.
func refHash(r Ref) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(r.Type); i++ {
		h = (h ^ uint64(r.Type[i])) * fnvPrime64
	}
	h *= fnvPrime64 // the \x00 separator: XOR with zero is the identity
	for i := 0; i < len(r.Key); i++ {
		h = (h ^ uint64(r.Key[i])) * fnvPrime64
	}
	return h
}

// strHash is allocation-free FNV-1a over a plain string (node ids).
func strHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// locEntry is one resident location-cache route. used is the clock
// algorithm's referenced bit: set on every hit (atomically — hits happen
// under the shard read lock, concurrently with each other), cleared by the
// sweeping eviction hand under the write lock.
type locEntry struct {
	node transport.NodeID
	used atomic.Bool
}

// stateShard is one stripe of the node's routing and directory state. All
// the maps are keyed (directly or through the vertex id) by the same ref
// hash, so one shard lock covers every multi-map update for a ref.
type stateShard struct {
	mu          sync.RWMutex
	activations map[Ref]*activation
	dirEntries  map[Ref]dirEntry
	vertexRefs  map[uint64]Ref

	// Forwarding tombstones: authoritative short-TTL forwards left behind by
	// outbound migrations (see recordForward). fwdOrder is a head-indexed
	// insertion ring; uniform TTLs make it FIFO-expiring, so inserts prune
	// from the head in O(1) amortized.
	forwards map[Ref]forwardEntry
	fwdOrder []Ref
	fwdHead  int

	// Location cache with clock (second-chance) eviction, bounded at
	// cacheCap residents: clock is a ring of resident (possibly stale —
	// deletions just orphan their slot) refs; hand sweeps it on insert
	// pressure, granting one reprieve to entries hit since the last pass.
	locCache map[Ref]*locEntry
	clock    []Ref
	hand     int
	cacheCap int
}

// forwardEntry is one forwarding tombstone: where the actor went when it
// migrated off this node, authoritative until expires.
type forwardEntry struct {
	node    transport.NodeID
	expires time.Time
}

// forwardTTL bounds how long an outbound migration's tombstone stays
// authoritative. It must comfortably outlive the directory update's common
// retry horizon (the sync attempt plus the first background re-sends), and
// stay short enough that a stale tombstone — possible only if this node
// somehow never learns the chain moved on — cannot misroute for long.
const forwardTTL = 5 * time.Second

func (s *System) shardOf(ref Ref) *stateShard {
	return &s.state[refHash(ref)&(stateShardCount-1)]
}

func (s *System) shardOfVertex(v uint64) *stateShard {
	return &s.state[v&(stateShardCount-1)]
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
		sh.activations = make(map[Ref]*activation)
		sh.dirEntries = make(map[Ref]dirEntry)
		sh.vertexRefs = make(map[uint64]Ref)
		sh.forwards = make(map[Ref]forwardEntry)
		sh.locCache = make(map[Ref]*locEntry)
		sh.cacheCap = per
	}
	for i := range s.pend {
		s.pend[i].m = make(map[uint64]*callWaiter)
	}
	for i := range s.dedupShards {
		s.dedupShards[i].m = make(map[dedupKey]int)
	}
}

// --- location cache (per-shard clock/second-chance eviction) ---
//
// The seed's cache was one map bounded by a wholesale reset: past 128K
// entries every cached route on the node was discarded at once, a latency
// cliff that turned the next call on every warm ref into a directory RPC
// (a thundering herd against the owners). Here each shard evicts one cold
// entry per insert once full: hits set the entry's referenced bit, the
// clock hand clears bits as it sweeps and evicts the first entry it finds
// unreferenced since its last pass. Warm routes survive indefinitely; the
// node-wide resident bound (Config.LocCacheSize) is unchanged.

func (s *System) cacheGet(ref Ref) (transport.NodeID, bool) {
	sh := s.shardOf(ref)
	sh.mu.RLock()
	e, ok := sh.locCache[ref]
	var n transport.NodeID
	if ok {
		n = e.node
		if !e.used.Load() { // avoid dirtying the line on every repeat hit
			e.used.Store(true)
		}
	}
	sh.mu.RUnlock()
	if ok {
		s.locHits.Add(1)
	} else {
		s.locMisses.Add(1)
	}
	return n, ok
}

// cacheInsertLocked installs (or refreshes) a route with sh.mu held,
// evicting via the clock when the shard is at capacity. Every locCache
// insert in the package funnels through here so the clock ring stays
// consistent with the map.
func (s *System) cacheInsertLocked(sh *stateShard, ref Ref, node transport.NodeID) {
	if node == s.Node() {
		// A self-route is never information: if we host the actor the
		// activations map answers first, and if we don't, a cached self
		// entry would seed a spurious local activation the moment routing
		// consults it (split brain). Record "unknown" instead.
		delete(sh.locCache, ref)
		return
	}
	if e, ok := sh.locCache[ref]; ok {
		e.node = node
		e.used.Store(true)
		return
	}
	if len(sh.clock) < sh.cacheCap {
		sh.locCache[ref] = &locEntry{node: node}
		sh.clock = append(sh.clock, ref)
		return
	}
	for {
		if sh.hand >= len(sh.clock) {
			sh.hand = 0
		}
		victim := sh.clock[sh.hand]
		ve, ok := sh.locCache[victim]
		if ok && ve.used.Swap(false) {
			sh.hand++ // referenced since the last sweep: second chance
			continue
		}
		if ok {
			delete(sh.locCache, victim)
			s.locEvicts.Add(1)
		}
		// Reuse the slot (an eviction's, or one orphaned by a delete).
		sh.clock[sh.hand] = ref
		sh.hand++
		sh.locCache[ref] = &locEntry{node: node}
		return
	}
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
func (s *System) recordForward(ref Ref, to transport.NodeID) {
	h := refHash(ref)
	sh := &s.state[h&(stateShardCount-1)]
	now := time.Now()
	sh.mu.Lock()
	sh.forwards[ref] = forwardEntry{node: to, expires: now.Add(forwardTTL)}
	sh.fwdOrder = append(sh.fwdOrder, ref)
	// Uniform TTLs expire in insertion order: prune the ring head. A slot
	// whose map entry was refreshed (re-migration) or dropped (install,
	// fresh activation) just advances past.
	for sh.fwdHead < len(sh.fwdOrder) {
		r := sh.fwdOrder[sh.fwdHead]
		if e, ok := sh.forwards[r]; ok {
			if now.Before(e.expires) {
				break
			}
			delete(sh.forwards, r)
		}
		sh.fwdOrder[sh.fwdHead] = Ref{}
		sh.fwdHead++
	}
	if sh.fwdHead >= len(sh.fwdOrder)/2 && sh.fwdHead > 64 {
		sh.fwdOrder = append(sh.fwdOrder[:0], sh.fwdOrder[sh.fwdHead:]...)
		sh.fwdHead = 0
	}
	s.cacheInsertLocked(sh, ref, to)
	sh.vertexRefs[h] = ref
	sh.mu.Unlock()
	s.flight.Record(flight.Event{Kind: flight.KindTombstone, Actor: ref.String(), Peer: string(to)})
}

// cachePut records ref's route and its vertex mapping (used by migration
// decisions); both land in ref's shard under one lock.
func (s *System) cachePut(ref Ref, node transport.NodeID) {
	h := refHash(ref)
	sh := &s.state[h&(stateShardCount-1)]
	sh.mu.Lock()
	s.cacheInsertLocked(sh, ref, node)
	sh.vertexRefs[h] = ref
	sh.mu.Unlock()
}

// cacheHint records where ref was just seen running — the node a call from
// it arrived from — unless the cache says so already (the common case, read
// lock only). A hint is gossip like any cached route: a live activation or a
// forwarding tombstone outranks it, and a stale one costs a redirect.
func (s *System) cacheHint(ref Ref, node transport.NodeID) {
	sh := s.shardOf(ref)
	sh.mu.RLock()
	e, ok := sh.locCache[ref]
	known := ok && e.node == node
	sh.mu.RUnlock()
	if !known {
		s.cachePut(ref, node)
	}
}

// cacheDel drops a possibly poisoned location-cache entry so the next
// attempt re-resolves through the directory. The entry's clock slot is left
// stale; the sweep reclaims it.
func (s *System) cacheDel(ref Ref) {
	sh := s.shardOf(ref)
	sh.mu.Lock()
	delete(sh.locCache, ref)
	sh.mu.Unlock()
}

// locCacheLen reports resident routes across all shards (tests, gauges).
func (s *System) locCacheLen() int {
	n := 0
	for i := range s.state {
		sh := &s.state[i]
		sh.mu.RLock()
		n += len(sh.locCache)
		sh.mu.RUnlock()
	}
	return n
}

// activationsLen reports live activations across all shards.
func (s *System) activationsLen() int {
	n := 0
	for i := range s.state {
		sh := &s.state[i]
		sh.mu.RLock()
		n += len(sh.activations)
		sh.mu.RUnlock()
	}
	return n
}

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
			a, d, l := len(sh.activations), len(sh.dirEntries), len(sh.locCache)
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
