// Package sampling implements the Space-Saving algorithm of Metwally,
// Agrawal and El Abbadi ("Efficient computation of frequent and top-k
// elements in data streams", ICDT 2005).
//
// ActOp applies Space-Saving to the stream of inter-actor messages observed
// by each server: the summary retains the top-k "heaviest" communication
// edges in constant space, which is all the partitioning algorithm needs
// (§4.3, "Edge sampling"). Light edges never contribute to candidate sets,
// so dropping them is safe.
package sampling

import "container/heap"

// Entry is one monitored stream element.
type Entry[K comparable] struct {
	Key K
	// Count is the estimated frequency of Key. Space-Saving guarantees
	// Count ≥ true frequency and Count − Error ≤ true frequency.
	Count uint64
	// Error bounds the overestimation of Count: it is the count the entry
	// inherited from the element it evicted.
	Error uint64

	index int // heap index; maintained by entryHeap
}

// entryHeap is a min-heap over counts so the minimum entry (the eviction
// victim) is found in O(1) and replaced in O(log k).
type entryHeap[K comparable] []*Entry[K]

func (h entryHeap[K]) Len() int            { return len(h) }
func (h entryHeap[K]) Less(i, j int) bool  { return h[i].Count < h[j].Count }
func (h entryHeap[K]) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *entryHeap[K]) Push(x interface{}) { e := x.(*Entry[K]); e.index = len(*h); *h = append(*h, e) }
func (h *entryHeap[K]) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// SpaceSaving is a top-k heavy-hitter summary over a stream of keys.
// It retains at most k monitored keys; the total space is O(k) regardless of
// the stream length. The zero value is not usable; use NewSpaceSaving.
//
// SpaceSaving is not safe for concurrent use.
type SpaceSaving[K comparable] struct {
	capacity int
	entries  map[K]*Entry[K]
	heap     entryHeap[K]
	total    uint64
}

// NewSpaceSaving creates a summary that monitors at most capacity keys.
// capacity must be at least 1; smaller values are raised to 1.
func NewSpaceSaving[K comparable](capacity int) *SpaceSaving[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving[K]{
		capacity: capacity,
		entries:  make(map[K]*Entry[K], capacity),
		heap:     make(entryHeap[K], 0, capacity),
	}
}

// Observe records weight occurrences of key.
func (s *SpaceSaving[K]) Observe(key K, weight uint64) {
	if weight == 0 {
		return
	}
	s.total += weight
	if e, ok := s.entries[key]; ok {
		e.Count += weight
		heap.Fix(&s.heap, e.index)
		return
	}
	if len(s.heap) < s.capacity {
		e := &Entry[K]{Key: key, Count: weight}
		s.entries[key] = e
		heap.Push(&s.heap, e)
		return
	}
	// Evict the current minimum: the newcomer inherits its count as error.
	victim := s.heap[0]
	delete(s.entries, victim.Key)
	inherited := victim.Count
	victim.Key = key
	victim.Error = inherited
	victim.Count = inherited + weight
	s.entries[key] = victim
	heap.Fix(&s.heap, 0)
}

// Count returns the estimated frequency of key and whether it is monitored.
func (s *SpaceSaving[K]) Count(key K) (uint64, bool) {
	e, ok := s.entries[key]
	if !ok {
		return 0, false
	}
	return e.Count, true
}

// GuaranteedCount returns Count−Error, a lower bound on the true frequency.
func (s *SpaceSaving[K]) GuaranteedCount(key K) (uint64, bool) {
	e, ok := s.entries[key]
	if !ok {
		return 0, false
	}
	return e.Count - e.Error, true
}

// Len reports the number of monitored keys (≤ capacity).
func (s *SpaceSaving[K]) Len() int { return len(s.heap) }

// Total reports the total stream weight observed.
func (s *SpaceSaving[K]) Total() uint64 { return s.total }

// MinCount reports the smallest monitored count (the eviction threshold),
// or 0 when the summary is not yet full.
func (s *SpaceSaving[K]) MinCount() uint64 {
	if len(s.heap) < s.capacity || len(s.heap) == 0 {
		return 0
	}
	return s.heap[0].Count
}

// Top returns up to n monitored entries ordered by descending estimated
// count. The returned entries are copies; mutating them does not affect the
// summary.
func (s *SpaceSaving[K]) Top(n int) []Entry[K] {
	if n <= 0 || len(s.heap) == 0 {
		return nil
	}
	out := make([]Entry[K], 0, min(n, len(s.heap)))
	for _, e := range s.heap {
		out = append(out, Entry[K]{Key: e.Key, Count: e.Count, Error: e.Error})
	}
	// Selection by full sort: k is small (constant) in our use.
	sortEntriesDesc(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Entries returns all monitored entries in unspecified order.
func (s *SpaceSaving[K]) Entries() []Entry[K] {
	out := make([]Entry[K], 0, len(s.heap))
	for _, e := range s.heap {
		out = append(out, Entry[K]{Key: e.Key, Count: e.Count, Error: e.Error})
	}
	return out
}

// Decay halves every monitored count (rounding down, minimum 1), giving the
// summary an exponential forgetting horizon so that stale heavy edges fade
// as the communication graph changes. Entries are kept; errors decay too.
func (s *SpaceSaving[K]) Decay() {
	for _, e := range s.heap {
		e.Count = (e.Count + 1) / 2
		e.Error /= 2
	}
	heap.Init(&s.heap)
	s.total = (s.total + 1) / 2
}

// Forget removes key from the summary if it is monitored. It is used when an
// actor deactivates and its edges are no longer meaningful.
func (s *SpaceSaving[K]) Forget(key K) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	heap.Remove(&s.heap, e.index)
	delete(s.entries, key)
}

// Reset clears the summary.
func (s *SpaceSaving[K]) Reset() {
	s.entries = make(map[K]*Entry[K], s.capacity)
	s.heap = s.heap[:0]
	s.total = 0
}

func sortEntriesDesc[K comparable](es []Entry[K]) {
	// Insertion sort: k is small; avoids an import and an interface boundary.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Count > es[j-1].Count; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
