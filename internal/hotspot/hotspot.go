// Package hotspot is the per-actor heavy-hitter profiler: per-turn cost
// observations (execution time, mailbox wait, call and byte counts,
// migrations) folded into a bounded Space-Saving top-K sketch, so a node
// hosting a million activations tracks its hottest actors in O(K) memory.
//
// The sketch is sampling.SpaceSaving striped stripeCount ways by ref hash,
// each stripe behind its own mutex, so concurrent turns on different actors
// almost never contend; every reported entry carries its Space-Saving error
// bound. Cost, the ranking weight, is exec-microseconds plus one per turn,
// so CPU-heavy and message-heavy actors both register; Decay halves it on a
// fixed interval, making the table a "hot now" view.
package hotspot

import (
	"sort"
	"sync"

	"actop/internal/sampling"
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

// row is a tracked actor's payload: its type and key as given (string
// headers, no copy; Top builds the "typ/key" name) and its stats.
type row struct {
	typ, key string
	st       Stats
}

// stripe is one Space-Saving instance, keyed by ref hash, weighted by cost.
type stripe struct {
	mu sync.Mutex
	ss *sampling.SpaceSaving[uint64, row]
}

// Profiler is the striped sketch. All methods are goroutine-safe.
type Profiler struct {
	stripes [stripeCount]stripe
}

// New creates a profiler tracking about k actors total (split across
// stripes, minimum 8 per stripe).
func New(k int) *Profiler {
	per := max(k/stripeCount, 8)
	p := &Profiler{}
	for i := range p.stripes {
		p.stripes[i].ss = sampling.New[uint64, row](per)
	}
	return p
}

// Observe folds a batch of one actor's turns into the sketch: d holds what
// the batch adds to each of the actor's stats. hash identifies the actor (the
// actor-layer ref hash); typ and key name it. A batch of zero cost admits
// nobody: it only reaches a tracked actor's row. Nothing here allocates: the
// sketch makes its entries up front, and a row keeps typ and key as given.
func (p *Profiler) Observe(hash uint64, typ, key string, d Stats) {
	st := &p.stripes[hash&(stripeCount-1)]
	// The ranking weight: exec time in ~µs (ns >> 10) plus one per turn, so
	// an actor that only shuffles tiny messages still accumulates weight.
	cost := d.ExecNs>>10 + d.Turns
	st.mu.Lock()
	if r := st.ss.Observe(hash, cost); r != nil {
		if cost > 0 { // a zero-cost batch may come unnamed (ObserveMigration)
			r.typ, r.key = typ, key
		}
		r.st.Turns += d.Turns
		r.st.ExecNs += d.ExecNs
		r.st.WaitNs += d.WaitNs
		r.st.CallsOut += d.CallsOut
		r.st.BytesIn += d.BytesIn
		r.st.BytesOut += d.BytesOut
		r.st.Migrations += d.Migrations
	}
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
func (p *Profiler) ObserveMigration(hash uint64) { p.Observe(hash, "", "", Stats{Migrations: 1}) }

// Decay halves every cost (rounding up) and error bound and stat (rounding
// down): lifetime totals become a rolling "hot now" view.
func (p *Profiler) Decay() {
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		st.ss.Decay()
		st.ss.Each(func(e *sampling.Entry[uint64, row]) {
			s := &e.Value.st
			s.Turns >>= 1
			s.ExecNs >>= 1
			s.WaitNs >>= 1
			s.CallsOut >>= 1
			s.BytesIn >>= 1
			s.BytesOut >>= 1
			s.Migrations >>= 1
		})
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
		st.ss.Each(func(e *sampling.Entry[uint64, row]) {
			out = append(out, Entry{Actor: e.Value.typ + "/" + e.Value.key, Cost: e.Count, Err: e.Error, Stats: e.Value.st})
		})
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
		n += st.ss.Len()
		st.mu.Unlock()
	}
	return n
}
