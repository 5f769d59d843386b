package actor

import (
	"errors"
	"fmt"
	"time"

	"actop/internal/codec"
	"actop/internal/transport"
)

// Routing: where a ref lives, decided over its entry in the state table
// (shard.go) and the directory record its owner keeps (directoryOwner).

const redirectPrefix = "__redirect:"

// redirectError names the node a call should go to instead. Its text is its
// wire form, which remoteCall turns back into one.
type redirectError struct{ node transport.NodeID }

func (e redirectError) Error() string { return redirectPrefix + string(e.node) }

// host is the host-or-redirect step both ends of a call take — the callee's
// delivery and the caller's hop that resolved to this node. It returns to's
// activation here, activating it on demand when this node is (or becomes)
// its host; otherwise a redirectError naming the host, or the failure.
func (s *System) host(to Ref, deadline time.Time) (*activation, error) {
	for attempt := 0; attempt < 3; attempt++ {
		act, err := s.activationFor(to, true)
		if err != nil || act != nil {
			return act, err
		}
		// Not (or no longer) the host: the routed resolution names it.
		node, err := s.resolve(refHash(to), to, true, false, deadline)
		if err != nil {
			return nil, err
		}
		if node != s.Node() {
			return nil, redirectError{node: node}
		}
		// The actor arrived between the two resolutions (a migration landed,
		// a stale route was dropped): resolve again, not a dead end.
	}
	return nil, fmt.Errorf("actor: cannot route %s", to)
}

// resolve answers where ref (whose hash is h) lives with one probe of its
// state entry, in this order: a live activation here; a live forwarding
// tombstone (authoritative — the actor just migrated off this node); on the
// caller side only, the cached route; then the directory owner's record
// (placing the actor according to the placement policy when unregistered
// and place is true). The directory RPC is bounded by the caller's deadline
// so a mid-lookup owner failure surfaces in time to retry against the
// rehashed owner.
//
// A caller under PlaceRandom skips that RPC: with no route, it answers the
// owner itself and caches nothing. Random placement homes a ref on its
// owner, so the call lands on the host unless the ref moved, and then the
// owner's host step redirects it to the host its record names (dispatch
// caches that). A first call crosses the wire once instead of paying a
// lookup, the call and the host's confirming lookup, and the cache holds
// only refs that left home.
//
// routed marks a delivery some caller already steered here, which never
// reads the cache. Both routed rules matter. Skipping the cache breaks
// stale-route cycles: a deactivated actor's leftover routes can point a
// ring of non-hosts at each other, and if each bounced callers with its
// cached guess, nobody would ever consult the owner and the
// directory-designated home would never activate — the actor stays
// unreachable until the routes happen to evict. Honoring the tombstone
// covers the opposite window: right after a migration the directory may
// still name this node (its update retries in the background under loss),
// and following it would re-instantiate an actor whose state just left. The
// tombstone is the migration's own authoritative forward, so it outranks
// the lagging directory.
func (s *System) resolve(h uint64, ref Ref, routed, place bool, deadline time.Time) (transport.NodeID, error) {
	sh := s.shard(h)
	sh.mu.RLock()
	e := sh.get(h, ref)
	var n transport.NodeID
	switch {
	case e.act != nil:
		n = s.Node()
	case s.liveFwd(e):
		n = s.nodeName(e.fwd)
	case routed:
	case e.route != 0:
		sh.touch(e)
		n = s.nodeName(e.route)
		s.locHits.Add(1)
	}
	sh.mu.RUnlock()
	if n != "" {
		return n, nil
	}
	owner := s.directoryOwner(ref)
	if !routed {
		if owner != s.Node() && s.cfg.Placement == PlaceRandom {
			s.locDirect.Add(1)
			return owner, nil
		}
		s.locMisses.Add(1)
	}
	if owner == s.Node() {
		var err error
		if n, err = s.dirLookupLocal(h, ref, s.Node(), place); err != nil {
			return "", err
		}
	} else {
		var node wireNode
		err := s.controlCallT(owner, ctlDirLookup, dirRequest{
			Type: ref.Type, Key: ref.Key, Suggest: string(s.Node()), Place: place,
		}, &node, s.attemptTimeout(deadline))
		if err != nil {
			if errors.Is(err, ErrTimeout) && s.PeerStateOf(owner) != PeerAlive {
				return "", fmt.Errorf("%w: directory owner %s: %w", errPeerDown, owner, err)
			}
			return "", err
		}
		n = transport.NodeID(node)
	}
	s.cacheInsert(h, ref, n)
	return n, nil
}

// dirLookupLocal consults/updates the directory record this node owns for
// ref. A recorded placement homed on a node now declared dead is expunged
// and re-placed — the failover path for entries created (or re-learned)
// after the death purge.
//
// Placing homes the ref on this node, its owner: PlaceRandom always, and
// PlaceLocal when the suggested first caller is dead or outside the
// membership (a client). So a ref that never moved keeps its directory
// record on its host, and both die together.
func (s *System) dirLookupLocal(h uint64, ref Ref, suggest transport.NodeID, place bool) (transport.NodeID, error) {
	dead := func(n transport.NodeID) bool { return s.PeerStateOf(n) == PeerDead }
	sh := s.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entry(h, ref)
	if e.dir != 0 {
		if n := s.nodeName(e.dir); !dead(n) {
			return n, nil
		}
		e.dir, e.route = 0, 0
		s.failures.FailoverPurged.Add(1)
	}
	if place {
		var ok bool
		if s.cfg.Placement == PlaceLocal && !dead(suggest) {
			e.dir, ok = s.memberIdx(suggest)
		}
		e.dirEpoch = 0
		if !ok {
			e.dir, _ = s.memberIdx(s.Node())
		}
	}
	sh.set(h, e)
	if e.dir == 0 {
		return "", fmt.Errorf("actor: %s not registered", ref)
	}
	return s.nodeName(e.dir), nil
}

// dirRequest is the directory control payload (wire form in wire.go).
type dirRequest struct {
	Type, Key string
	Suggest   string
	Place     bool
	NewNode   string // for updates
	Epoch     uint64 // migration epoch of the update's incarnation
}

// handleDir serves the directory verbs on the records this node owns.
func (s *System) handleDir(verb string, payload []byte) ([]byte, error) {
	var req dirRequest
	if err := codec.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	ref := Ref{Type: req.Type, Key: req.Key}
	h := refHash(ref)
	if verb == ctlDirLookup {
		node, err := s.dirLookupLocal(h, ref, transport.NodeID(req.Suggest), req.Place)
		if err != nil {
			return nil, err
		}
		return codec.Marshal(wireNode(node))
	}
	node := transport.NodeID(req.NewNode)
	n, ok := s.intern(node)
	if !ok {
		// The updater retries: a full node table must not record the
		// update as some other node, nor drop it as if it had landed.
		return nil, fmt.Errorf("%w: cannot record %s for %s", errNodeTableFull, node, ref)
	}
	sh := s.shard(h)
	sh.mu.Lock()
	e := sh.entry(h, ref)
	switch {
	case verb == ctlDirRemove:
		e.dir, e.route = 0, 0
	// Epoch guard: updates arrive out of order (lost ones are retried in
	// the background for seconds), so a stale retry from an older
	// migration must not rewind a newer entry — nor stomp the owner's
	// location cache with a pointer the actor already left behind.
	case e.dir == 0 || req.Epoch >= e.dirEpoch:
		e.dir, e.dirEpoch = n, req.Epoch
		s.setRoute(sh, h, &e, node)
	}
	sh.set(h, e)
	sh.mu.Unlock()
	return nil, nil
}

// livePeers lists the peers not currently considered Dead (self included
// on a member; a client is never in the list), in s.peers order: the
// candidates for a dead owner's directory ranges.
func (s *System) livePeers() []transport.NodeID {
	out := make([]transport.NodeID, 0, len(s.peers))
	s.fdMu.Lock()
	for _, p := range s.peers {
		if p == s.Node() {
			out = append(out, p)
			continue
		}
		if m, ok := s.members[p]; !ok || m.state != PeerDead {
			out = append(out, p)
		}
	}
	s.fdMu.Unlock()
	return out
}

// directoryOwner is the node owning ref's placement entry, and under
// PlaceRandom its home: the static peers[mix64(h) % n] while that node is
// believed up, else a rendezvous-hash pick among the live peers. The
// finalizer spreads homes evenly: raw FNV-1a of keys that differ in one
// trailing byte is correlated (see ownerScore). The fallback touches only
// the dead node's ranges — every other ref keeps its owner — and spreads
// them evenly over all survivors rather than one neighbor. Every node
// computes this from its own membership view; transient disagreement
// windows resolve through redirects and call retries. A client that sees
// every member dead keeps the static owner, and the call fails as one to a
// dead peer.
func (s *System) directoryOwner(ref Ref) transport.NodeID {
	owner := s.staticOwner(refHash(ref))
	if owner == s.Node() || s.PeerStateOf(owner) != PeerDead {
		return owner
	}
	best := owner
	var bestScore uint64
	for _, p := range s.livePeers() {
		if score := ownerScore(p, ref); score >= bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// staticOwner is the directory owner of the ref hashing to h while every
// member is up.
func (s *System) staticOwner(h uint64) transport.NodeID {
	return s.peers[mix64(h)%uint64(len(s.peers))]
}

// ownerScore is directoryOwner's rendezvous weight of one (peer, ref) pair:
// FNV-1a over "peer\x00Type\x00Key" under splitmix64's finalizer. Raw
// FNV-1a of ids that differ in one trailing byte is correlated: it split a
// dead node's ranges 28/36/36 % over three survivors and 40/60 % over two.
func ownerScore(p transport.NodeID, ref Ref) uint64 {
	return mix64(fnvRef(strHash(string(p))*fnvPrime64, ref))
}
