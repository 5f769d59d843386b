// Package sampling implements the Space-Saving algorithm of Metwally,
// Agrawal and El Abbadi ("Efficient computation of frequent and top-k
// elements in data streams", ICDT 2005).
//
// ActOp applies Space-Saving to the stream of inter-actor messages observed
// by each server: the summary retains the top-k "heaviest" communication
// edges in constant space, which is all the partitioning algorithm needs
// (§4.3, "Edge sampling"). The hot-spot profiler stripes the same summary,
// with an actor's stats as its entry's payload.
package sampling

// Entry is one monitored stream element. Space-Saving guarantees Count ≥
// true frequency ≥ Count − Error, where Error is the count the entry
// inherited from the element it evicted. Value is the caller's payload: zero
// on admission, it moves with the entry.
type Entry[K comparable, V any] struct {
	Key          K
	Count, Error uint64
	Value        V

	at int32 // the entry's position in the heap
}

// SpaceSaving is a top-k heavy-hitter summary over a stream of keys: at
// most k monitored keys in O(k) space, allocated up front, so no method
// allocates. Use New or NewSpaceSaving; it is not safe for concurrent use.
type SpaceSaving[K comparable, V any] struct {
	slab  []Entry[K, V] // the monitored entries, dense; cap is the capacity
	index map[K]int32   // key → slot in slab
	heap  []int32       // slab slots, a min-heap by Count: the root is the eviction victim
}

// New creates a summary that monitors at most capacity keys (at least 1),
// each with a payload of type V.
func New[K comparable, V any](capacity int) *SpaceSaving[K, V] {
	capacity = max(capacity, 1)
	return &SpaceSaving[K, V]{
		slab:  make([]Entry[K, V], 0, capacity),
		index: make(map[K]int32, capacity),
		heap:  make([]int32, 0, capacity),
	}
}

// NewSpaceSaving creates a summary without payloads.
func NewSpaceSaving[K comparable](capacity int) *SpaceSaving[K, struct{}] {
	return New[K, struct{}](capacity)
}

// Observe records weight occurrences of key and returns its payload, zeroed
// if this observation admitted key, for the caller to update before the next
// call. A zero weight changes nothing: it returns the payload of a monitored
// key and nil otherwise.
func (s *SpaceSaving[K, V]) Observe(key K, weight uint64) *V {
	i, ok := s.index[key]
	switch {
	case ok:
		s.slab[i].Count += weight
		s.fix(int(s.slab[i].at))
	case weight == 0:
		return nil
	case len(s.slab) < cap(s.slab):
		i = int32(len(s.slab))
		s.slab = append(s.slab, Entry[K, V]{Key: key, Count: weight, at: i})
		s.heap = append(s.heap, i)
		s.index[key] = i
		s.fix(int(i))
	default:
		// Evict the current minimum: the newcomer inherits its count as error.
		i = s.heap[0]
		e := &s.slab[i]
		delete(s.index, e.Key)
		*e = Entry[K, V]{Key: key, Count: e.Count + weight, Error: e.Count}
		s.index[key] = i
		s.fix(0)
	}
	return &s.slab[i].Value
}

// Len reports the number of monitored keys (≤ capacity).
func (s *SpaceSaving[K, V]) Len() int { return len(s.heap) }

// Cap reports the capacity: the most keys the summary monitors.
func (s *SpaceSaving[K, V]) Cap() int { return cap(s.slab) }

// Each calls fn on every entry in heap order, the minimum first; fn may
// change the entry's Value only, and must not call back into s.
func (s *SpaceSaving[K, V]) Each(fn func(*Entry[K, V])) {
	for _, i := range s.heap {
		fn(&s.slab[i])
	}
}

// Decay halves every count (rounding up, so never to zero) and error
// (rounding down): stale heavy edges fade as the communication graph
// changes. Halving is monotone, so the heap keeps its order.
func (s *SpaceSaving[K, V]) Decay() {
	for i := range s.slab {
		s.slab[i].Count = (s.slab[i].Count + 1) / 2
		s.slab[i].Error /= 2
	}
}

// Forget removes key from the summary if it is monitored. It is used when an
// actor deactivates and its edges are no longer meaningful.
func (s *SpaceSaving[K, V]) Forget(key K) {
	i, ok := s.index[key]
	if !ok {
		return
	}
	delete(s.index, key)
	// Out of the heap: swap with the last position, shrink, restore order.
	j, n := int(s.slab[i].at), len(s.heap)-1
	s.swap(j, n)
	s.heap = s.heap[:n]
	if j != n {
		s.fix(j)
	}
	// Out of the slab: the last entry moves into the freed slot.
	last := int32(len(s.slab) - 1)
	if i != last {
		s.slab[i] = s.slab[last]
		s.heap[s.slab[i].at] = i
		s.index[s.slab[i].Key] = i
	}
	s.slab[last] = Entry[K, V]{}
	s.slab = s.slab[:last]
}

// The heap moves below are container/heap's, move for move, so the summary
// evicts the same key container/heap would have.

func (s *SpaceSaving[K, V]) less(a, b int) bool {
	return s.slab[s.heap[a]].Count < s.slab[s.heap[b]].Count
}

func (s *SpaceSaving[K, V]) swap(a, b int) {
	s.heap[a], s.heap[b] = s.heap[b], s.heap[a]
	s.slab[s.heap[a]].at, s.slab[s.heap[b]].at = int32(a), int32(b)
}

// fix restores the order after the count at heap position j changed.
func (s *SpaceSaving[K, V]) fix(j int) {
	if !s.down(j) {
		s.up(j)
	}
}

func (s *SpaceSaving[K, V]) up(j int) {
	for i := (j - 1) / 2; j > 0 && s.less(j, i); j, i = i, (i-1)/2 {
		s.swap(i, j)
	}
}

func (s *SpaceSaving[K, V]) down(i0 int) bool {
	i, n := i0, len(s.heap)
	for j := 2*i + 1; j < n; j = 2*i + 1 {
		if j+1 < n && s.less(j+1, j) {
			j++
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	return i > i0
}
