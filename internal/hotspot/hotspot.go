// Package hotspot is the per-actor heavy-hitter profiler: per-turn cost
// observations (execution time, mailbox wait, call and byte counts,
// migrations) folded into a bounded Space-Saving top-K sketch, so a node
// hosting a million activations tracks its hottest actors in O(K) memory.
//
// The sketch is striped: observations hash to one of stripeCount
// independent stripes (each a mutex, a map, and a min-heap by cost), so
// concurrent worker-stage turns on different actors almost never contend.
// K is split evenly across stripes; the per-entry error bound of classic
// Space-Saving (Err ≤ total stripe cost / stripe capacity) applies per
// stripe, and every reported entry carries its own bound.
//
// Cost is the ranking weight: exec-microseconds plus one per turn, so both
// CPU-heavy actors and pure message-traffic actors register. Costs decay
// by halving on a fixed interval (Decay), making the table a "hot now"
// view rather than a lifetime total.
package hotspot

import (
	"sort"
	"sync"
)

// stripeCount stripes the sketch; a power of two so the stripe choice is a
// mask of the caller-provided ref hash.
const stripeCount = 16

// Stats is the per-actor accounting accumulated while an actor is tracked
// by the sketch. Turns doubles as the calls-in count (one turn per
// delivered invocation). All fields decay alongside the cost, so ratios
// (exec per turn, bytes per call) stay meaningful in the live view.
type Stats struct {
	Turns      uint64 `json:"turns"`
	ExecNs     uint64 `json:"exec_ns"`
	WaitNs     uint64 `json:"wait_ns"`
	CallsOut   uint64 `json:"calls_out"`
	BytesIn    uint64 `json:"bytes_in"`
	BytesOut   uint64 `json:"bytes_out"`
	Migrations uint64 `json:"migrations"`
}

// Entry is one reported hot actor: the wire/JSON row of the local and
// cluster-wide tables. Cost is the decayed ranking weight; Err is the
// Space-Saving overestimate bound inherited at eviction (true cost is in
// [Cost-Err, Cost]). Node is filled by the actor layer when assembling
// cross-node tables.
type Entry struct {
	Node  string `json:"node,omitempty"`
	Actor string `json:"actor"`
	Cost  uint64 `json:"cost"`
	Err   uint64 `json:"err,omitempty"`
	Stats
}

// entry is the resident form, living in exactly one stripe's map and heap.
// It keeps the actor's type and key as given (string headers, no copy); the
// "typ/key" display name is built by Top.
type entry struct {
	hash     uint64
	typ, key string
	cost     uint64
	err      uint64
	st       Stats
	idx      int // position in the stripe's min-heap
}

// stripe is one independent Space-Saving instance.
type stripe struct {
	mu   sync.Mutex
	cap  int
	byID map[uint64]*entry
	heap []*entry // min-heap ordered by cost
	slab []entry  // the stripe's cap entries; heap[:len(heap)] point into slab[:len(heap)] in admission order
}

// Profiler is the striped sketch. All methods are goroutine-safe.
type Profiler struct {
	k       int
	stripes [stripeCount]stripe
}

// New creates a profiler tracking about k actors total (split across
// stripes, minimum 8 per stripe).
func New(k int) *Profiler {
	if k < 1 {
		k = 1
	}
	per := k / stripeCount
	if per < 8 {
		per = 8
	}
	p := &Profiler{k: per * stripeCount}
	for i := range p.stripes {
		p.stripes[i] = stripe{
			cap:  per,
			byID: make(map[uint64]*entry, per),
			heap: make([]*entry, 0, per),
			slab: make([]entry, per),
		}
	}
	return p
}

// K reports the total tracked-entry capacity.
func (p *Profiler) K() int { return p.k }

// turnCost is the ranking weight of a batch of turns: exec time in ~µs
// (ns >> 10) plus one per turn, so an actor that only shuffles tiny
// messages still accumulates weight proportional to its traffic.
func turnCost(turns, execNs uint64) uint64 { return execNs>>10 + turns }

// Observe folds a batch of one actor's turns into the sketch: d holds what
// the batch adds to each of the actor's stats. hash identifies the actor (the
// actor-layer ref hash); typ and key name it. Nothing here allocates, on any
// path — a tracked actor, admission into a free slot, or eviction: a stripe
// makes its entries once, up front, and an entry keeps typ and key as given.
func (p *Profiler) Observe(hash uint64, typ, key string, d Stats) {
	st := &p.stripes[hash&(stripeCount-1)]
	st.mu.Lock()
	e := st.byID[hash]
	if e == nil {
		if n := len(st.heap); n < st.cap {
			e = &st.slab[n]
			e.idx = n
			st.heap = append(st.heap, e)
			st.siftUp(n) // cost 0: it belongs at the top of the min-heap
		} else {
			// Space-Saving eviction: the minimum-cost resident is replaced
			// and the newcomer inherits its cost as both floor and error
			// bound — the invariant that keeps true heavy hitters from
			// being displaced by a stream of one-off actors.
			e = st.heap[0]
			delete(st.byID, e.hash)
			e.err = e.cost
			e.st = Stats{}
		}
		e.hash, e.typ, e.key = hash, typ, key
		st.byID[hash] = e
	}
	e.cost += turnCost(d.Turns, d.ExecNs)
	e.st.Turns += d.Turns
	e.st.ExecNs += d.ExecNs
	e.st.WaitNs += d.WaitNs
	e.st.CallsOut += d.CallsOut
	e.st.BytesIn += d.BytesIn
	e.st.BytesOut += d.BytesOut
	e.st.Migrations += d.Migrations
	st.siftDown(e.idx)
	st.mu.Unlock()
}

// ObserveTurns is Observe for a batch that made no outbound calls: turns
// invocations with their summed execution time, mailbox wait and inbound
// payload bytes.
func (p *Profiler) ObserveTurns(hash uint64, typ, key string, turns, execNs, waitNs, bytesIn uint64) {
	p.Observe(hash, typ, key, Stats{Turns: turns, ExecNs: execNs, WaitNs: waitNs, BytesIn: bytesIn})
}

// ObserveMigration counts a migration of an already-tracked actor
// (inbound or outbound — churn either way).
func (p *Profiler) ObserveMigration(hash uint64) {
	st := &p.stripes[hash&(stripeCount-1)]
	st.mu.Lock()
	if e := st.byID[hash]; e != nil {
		e.st.Migrations++
	}
	st.mu.Unlock()
}

// Decay halves every cost, error bound, and stat — the time-decay that
// turns lifetime totals into a rolling "hot now" view. Halving is
// monotone, so heap order is preserved and no re-heapify is needed.
func (p *Profiler) Decay() {
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		for _, e := range st.heap {
			e.cost >>= 1
			e.err >>= 1
			e.st.Turns >>= 1
			e.st.ExecNs >>= 1
			e.st.WaitNs >>= 1
			e.st.CallsOut >>= 1
			e.st.BytesIn >>= 1
			e.st.BytesOut >>= 1
			e.st.Migrations >>= 1
		}
		st.mu.Unlock()
	}
}

// Top reports the n highest-cost tracked actors, cost-descending (ties
// broken by name for deterministic output). n <= 0 means all.
func (p *Profiler) Top(n int) []Entry {
	out := make([]Entry, 0, 64)
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		for _, e := range st.heap {
			out = append(out, Entry{Actor: e.typ + "/" + e.key, Cost: e.cost, Err: e.err, Stats: e.st})
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		return out[i].Actor < out[j].Actor
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Tracked reports how many actors are currently resident in the sketch.
func (p *Profiler) Tracked() int {
	n := 0
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		n += len(st.heap)
		st.mu.Unlock()
	}
	return n
}

// TotalCost sums the resident decayed costs — the denominator for "share
// of node load" readings of individual entries.
func (p *Profiler) TotalCost() uint64 {
	var n uint64
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		for _, e := range st.heap {
			n += e.cost
		}
		st.mu.Unlock()
	}
	return n
}

// --- min-heap by cost (manual sift, allocation-free) ---

func (st *stripe) siftUp(i int) {
	h := st.heap
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].cost <= h[i].cost {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		h[parent].idx, h[i].idx = parent, i
		i = parent
	}
}

func (st *stripe) siftDown(i int) {
	h := st.heap
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].cost < h[min].cost {
			min = l
		}
		if r < len(h) && h[r].cost < h[min].cost {
			min = r
		}
		if min == i {
			return
		}
		h[min], h[i] = h[i], h[min]
		h[min].idx, h[i].idx = min, i
		i = min
	}
}
