package sampling

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

// lookup finds key's entry through the iteration, the only read path the
// summary offers.
func lookup[K comparable, V any](s *SpaceSaving[K, V], key K) (Entry[K, V], bool) {
	var out Entry[K, V]
	var ok bool
	s.Each(func(e *Entry[K, V]) {
		if e.Key == key {
			out, ok = *e, true
		}
	})
	return out, ok
}

// count is lookup's Count, as the summary's estimate of key's frequency.
func count[K comparable, V any](s *SpaceSaving[K, V], key K) (uint64, bool) {
	e, ok := lookup(s, key)
	return e.Count, ok
}

func TestObserveAndCount(t *testing.T) {
	s := NewSpaceSaving[string](4)
	s.Observe("a", 3)
	s.Observe("b", 1)
	s.Observe("a", 2)
	if c, ok := count(s, "a"); !ok || c != 5 {
		t.Fatalf("Count(a) = %d,%v want 5,true", c, ok)
	}
	if c, ok := count(s, "b"); !ok || c != 1 {
		t.Fatalf("Count(b) = %d,%v", c, ok)
	}
	if _, ok := count(s, "zzz"); ok {
		t.Fatal("unmonitored key should report !ok")
	}
}

func TestZeroWeightIgnored(t *testing.T) {
	s := NewSpaceSaving[string](2)
	if s.Observe("a", 0) != nil || s.Len() != 0 {
		t.Fatal("zero-weight observation should be ignored")
	}
	s.Observe("a", 2)
	if s.Observe("a", 0) == nil {
		t.Fatal("zero-weight observation of a monitored key should return its payload")
	}
	if c, _ := count(s, "a"); c != 2 {
		t.Fatalf("Count(a) = %d after a zero-weight observation, want 2", c)
	}
}

func TestCapacityClamp(t *testing.T) {
	s := NewSpaceSaving[int](0)
	s.Observe(1, 1)
	s.Observe(2, 1)
	if s.Len() != 1 {
		t.Fatalf("capacity 0 should clamp to 1, len = %d", s.Len())
	}
}

func TestEviction(t *testing.T) {
	s := NewSpaceSaving[string](2)
	s.Observe("a", 10)
	s.Observe("b", 1)
	s.Observe("c", 1) // evicts b (min count 1); c inherits count 1 → 2, error 1
	if _, ok := lookup(s, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	c, ok := lookup(s, "c")
	if !ok || c.Count != 2 {
		t.Fatalf("Count(c) = %d,%v want 2,true", c.Count, ok)
	}
	if g := c.Count - c.Error; g != 1 {
		t.Fatalf("guaranteed count of c = %d, want 1", g)
	}
	// a untouched.
	if a, _ := lookup(s, "a"); a.Count-a.Error != 10 {
		t.Fatalf("guaranteed count of a = %d, want 10", a.Count-a.Error)
	}
}

func TestHeavyHitterGuarantee(t *testing.T) {
	// Space-Saving guarantee: any element with true frequency > N/k is
	// monitored, and estimates never underestimate.
	const k = 50
	s := NewSpaceSaving[int](k)
	truth := make(map[int]uint64)
	rng := rand.New(rand.NewSource(42))
	var n uint64
	// Zipf-ish: heavy keys 0..9, long tail 10..9999.
	zipf := rand.NewZipf(rng, 1.3, 1, 9999)
	for i := 0; i < 200_000; i++ {
		key := int(zipf.Uint64())
		truth[key]++
		n++
		s.Observe(key, 1)
	}
	for key, freq := range truth {
		if freq > n/uint64(k) {
			est, ok := count(s, key)
			if !ok {
				t.Errorf("heavy key %d (freq %d > N/k=%d) not monitored", key, freq, n/uint64(k))
				continue
			}
			if est < freq {
				t.Errorf("estimate %d underestimates true frequency %d for key %d", est, freq, key)
			}
		}
	}
}

func TestOverestimateBoundedByError(t *testing.T) {
	s := NewSpaceSaving[int](8)
	truth := make(map[int]uint64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		key := rng.Intn(100)
		truth[key]++
		s.Observe(key, 1)
	}
	s.Each(func(e *Entry[int, struct{}]) {
		if e.Count-e.Error > truth[e.Key] {
			t.Errorf("guaranteed count %d exceeds true frequency %d for key %v",
				e.Count-e.Error, truth[e.Key], e.Key)
		}
		if e.Count < truth[e.Key] {
			t.Errorf("estimate %d underestimates truth %d for key %v", e.Count, truth[e.Key], e.Key)
		}
	})
}

// TestMinCount: the heap order puts the eviction threshold first.
func TestMinCount(t *testing.T) {
	s := NewSpaceSaving[int](3)
	s.Observe(1, 5)
	s.Observe(2, 3)
	s.Observe(3, 9)
	var first []uint64
	s.Each(func(e *Entry[int, struct{}]) { first = append(first, e.Count) })
	if len(first) != 3 || first[0] != 3 {
		t.Fatalf("counts in heap order = %v, want the minimum 3 first", first)
	}
}

func TestDecay(t *testing.T) {
	s := NewSpaceSaving[string](4)
	s.Observe("a", 100)
	s.Observe("b", 7)
	s.Decay()
	if c, _ := count(s, "a"); c != 50 {
		t.Errorf("a after decay = %d, want 50", c)
	}
	if c, _ := count(s, "b"); c != 4 {
		t.Errorf("b after decay = %d, want 4 (rounds up)", c)
	}
	// Decay never drops a count to zero.
	s2 := NewSpaceSaving[string](2)
	s2.Observe("x", 1)
	s2.Decay()
	if c, _ := count(s2, "x"); c != 1 {
		t.Errorf("x after decay = %d, want 1", c)
	}
}

func TestForget(t *testing.T) {
	s := NewSpaceSaving[string](4)
	s.Observe("a", 5)
	s.Observe("b", 2)
	s.Forget("a")
	if _, ok := count(s, "a"); ok {
		t.Fatal("a should be forgotten")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Forget("not-there") // no-op
	// Heap invariant still fine: further observations work.
	s.Observe("c", 1)
	s.Observe("d", 1)
	s.Observe("e", 1)
	s.Observe("f", 10)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	checkInvariants(t, s)
}

func TestNeverUnderestimateProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		s := NewSpaceSaving[uint8](4)
		truth := make(map[uint8]uint64)
		for _, k := range keys {
			truth[k]++
			s.Observe(k, 1)
		}
		ok := true
		s.Each(func(e *Entry[uint8, struct{}]) {
			if e.Count < truth[e.Key] {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLenNeverExceedsCapacityProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		s := NewSpaceSaving[uint16](8)
		for _, k := range keys {
			s.Observe(k, 1)
		}
		return s.Len() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants checks the summary's internal structure: a dense slab the
// index maps every key into, and a heap that is a permutation of the slab's
// slots, ordered by count, each slot knowing its heap position.
func checkInvariants[K comparable, V any](t *testing.T, s *SpaceSaving[K, V]) {
	t.Helper()
	if len(s.slab) != len(s.heap) || len(s.index) != len(s.heap) || len(s.heap) > s.Cap() {
		t.Fatalf("slab %d, index %d, heap %d entries, capacity %d", len(s.slab), len(s.index), len(s.heap), s.Cap())
	}
	for j, i := range s.heap {
		e := &s.slab[i]
		if int(e.at) != j {
			t.Fatalf("heap[%d] = slot %d, whose position reads %d", j, i, e.at)
		}
		if got, ok := s.index[e.Key]; !ok || got != i {
			t.Fatalf("index[%v] = %d,%v, want slot %d", e.Key, got, ok, i)
		}
		if p := (j - 1) / 2; j > 0 && s.slab[s.heap[p]].Count > e.Count {
			t.Fatalf("heap order violated at %d: parent %d > %d", j, s.slab[s.heap[p]].Count, e.Count)
		}
	}
}

// edge is an undirected edge A < B, the edge monitor's key shape.
type edge struct{ A, B uint8 }

// TestMatchesContainerHeap drives the summary and the container/heap one it
// replaced with the same seeded Observe / Forget / Decay sequences, and the
// edge monitor's forget-every-edge-of-a-vertex, and requires the same entries
// in the same heap order, with the same counts and errors, after every step:
// the summary evicts what the old one did. The payload must start at zero on
// admission and move with its entry.
func TestMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(48)
		vertices := 3 + rng.Intn(14)
		randEdge := func() edge {
			a, b := uint8(rng.Intn(vertices)), uint8(rng.Intn(vertices-1))
			if b >= a {
				b++
			} else {
				a, b = b, a
			}
			return edge{a, b}
		}
		s, ref := New[edge, edge](capacity), newRefSpaceSaving[edge](capacity)
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 75:
				k, w := randEdge(), uint64(rng.Intn(4))
				if rng.Intn(10) == 0 {
					w = uint64(rng.Intn(1000))
				}
				_, was := ref.entries[k]
				v := s.Observe(k, w)
				ref.Observe(k, w)
				if w == 0 && was != (v != nil) {
					t.Fatalf("seed %d step %d: zero-weight observation of %v returned %v, monitored %v", seed, step, k, v, was)
				}
				if w > 0 {
					var want edge // a new entry's payload is zero
					if was {
						want = k
					}
					if *v != want {
						t.Fatalf("seed %d step %d: payload of %v = %v, want %v", seed, step, k, *v, want)
					}
					*v = k
				}
			case r < 88:
				k := randEdge()
				s.Forget(k)
				ref.Forget(k)
			case r < 97:
				// The edge monitor's ForgetVertex: the new one collects the
				// keys in heap order, the old one walked a copy.
				x := uint8(rng.Intn(vertices))
				var doomed []edge
				s.Each(func(e *Entry[edge, edge]) {
					if e.Key.A == x || e.Key.B == x {
						doomed = append(doomed, e.Key)
					}
				})
				for _, k := range doomed {
					s.Forget(k)
				}
				for _, e := range ref.Entries() {
					if e.Key.A == x || e.Key.B == x {
						ref.Forget(e.Key)
					}
				}
			default:
				s.Decay()
				ref.Decay()
			}
			checkInvariants(t, s)
			var got []Entry[edge, edge]
			s.Each(func(e *Entry[edge, edge]) { got = append(got, *e) })
			if len(got) != len(ref.heap) {
				t.Fatalf("seed %d step %d: %d entries, reference %d", seed, step, len(got), len(ref.heap))
			}
			for i, e := range got {
				w := ref.heap[i]
				if e.Key != w.Key || e.Count != w.Count || e.Error != w.Error {
					t.Fatalf("seed %d step %d: heap[%d] = %v %d±%d, reference %v %d±%d",
						seed, step, i, e.Key, e.Count, e.Error, w.Key, w.Count, w.Error)
				}
				if e.Value != e.Key {
					t.Fatalf("seed %d step %d: entry %v carries payload %v", seed, step, e.Key, e.Value)
				}
			}
		}
	}
}

// The reference: the summary as it was built on container/heap, with
// pointer entries.

type refEntry[K comparable] struct {
	Key   K
	Count uint64
	Error uint64

	index int // heap index; maintained by refEntryHeap
}

type refEntryHeap[K comparable] []*refEntry[K]

func (h refEntryHeap[K]) Len() int           { return len(h) }
func (h refEntryHeap[K]) Less(i, j int) bool { return h[i].Count < h[j].Count }
func (h refEntryHeap[K]) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *refEntryHeap[K]) Push(x interface{}) {
	e := x.(*refEntry[K])
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refEntryHeap[K]) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refSpaceSaving[K comparable] struct {
	capacity int
	entries  map[K]*refEntry[K]
	heap     refEntryHeap[K]
	total    uint64
}

func newRefSpaceSaving[K comparable](capacity int) *refSpaceSaving[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &refSpaceSaving[K]{
		capacity: capacity,
		entries:  make(map[K]*refEntry[K], capacity),
		heap:     make(refEntryHeap[K], 0, capacity),
	}
}

func (s *refSpaceSaving[K]) Observe(key K, weight uint64) {
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
		e := &refEntry[K]{Key: key, Count: weight}
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

func (s *refSpaceSaving[K]) Entries() []refEntry[K] {
	out := make([]refEntry[K], 0, len(s.heap))
	for _, e := range s.heap {
		out = append(out, refEntry[K]{Key: e.Key, Count: e.Count, Error: e.Error})
	}
	return out
}

func (s *refSpaceSaving[K]) Decay() {
	for _, e := range s.heap {
		e.Count = (e.Count + 1) / 2
		e.Error /= 2
	}
	heap.Init(&s.heap)
	s.total = (s.total + 1) / 2
}

func (s *refSpaceSaving[K]) Forget(key K) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	heap.Remove(&s.heap, e.index)
	delete(s.entries, key)
}
