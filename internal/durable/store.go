package durable

import "sync"

// storeStripes stripes the replica store so concurrent snapshot arrivals
// for distinct actors never contend (snapshots stream in from every peer's
// snapshotter stage at once).
const storeStripes = 16

// Store is a node's replica store: the latest accepted snapshot per actor,
// held on behalf of peers. Acceptance is ordered by (Epoch, Seq) — see
// Record — so replays, reorderings, and delayed ships from pre-migration
// incarnations are rejected rather than applied.
type Store struct {
	stripes [storeStripes]storeStripe
}

type storeStripe struct {
	mu sync.Mutex
	m  map[string]Record
}

// NewStore builds an empty replica store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.stripes {
		s.stripes[i].m = make(map[string]Record)
	}
	return s
}

// storeKey joins an actor identity with a separator no type name contains.
func storeKey(typ, key string) string { return typ + "\x00" + key }

func (s *Store) stripeOf(k string) *storeStripe {
	// FNV-1a, matching the runtime's allocation-free string hash.
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return &s.stripes[h&(storeStripes-1)]
}

// Put installs r if it is newer than the resident record for its actor:
// strictly greater epoch, or equal epoch with a strictly greater sequence
// number. It reports whether the record was accepted; a false return is
// the stale-snapshot rejection the epoch rules exist for. The record's
// State is retained as-is — callers must not mutate it afterwards.
func (s *Store) Put(r Record) bool {
	k := storeKey(r.Type, r.Key)
	st := s.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur, ok := st.m[k]; ok {
		if r.Epoch < cur.Epoch || (r.Epoch == cur.Epoch && r.Seq <= cur.Seq) {
			return false
		}
	}
	st.m[k] = r
	return true
}

// Get returns the resident snapshot for an actor, if any. The returned
// State is shared with the store — treat it as read-only.
func (s *Store) Get(typ, key string) (Record, bool) {
	k := storeKey(typ, key)
	st := s.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	r, ok := st.m[k]
	return r, ok
}

// Drop removes an actor's resident snapshot (reclamation after the actor
// is explicitly deactivated, or tests).
func (s *Store) Drop(typ, key string) {
	k := storeKey(typ, key)
	st := s.stripeOf(k)
	st.mu.Lock()
	delete(st.m, k)
	st.mu.Unlock()
}

// Len reports resident records across all stripes.
func (s *Store) Len() int {
	n := 0
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		n += len(s.stripes[i].m)
		s.stripes[i].mu.Unlock()
	}
	return n
}

// Bytes reports resident state bytes across all stripes (gauge fodder).
func (s *Store) Bytes() int {
	n := 0
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		for _, r := range s.stripes[i].m {
			n += len(r.State)
		}
		s.stripes[i].mu.Unlock()
	}
	return n
}
