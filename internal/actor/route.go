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
// caller side only, the cached route; then the directory owner (placing the
// actor on a node according to the placement policy when unregistered and
// place is true). The directory RPC is bounded by the caller's deadline so a
// mid-lookup owner failure surfaces in time to retry against the rehashed
// owner.
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
	default:
		s.locMisses.Add(1)
	}
	sh.mu.RUnlock()
	if n != "" {
		return n, nil
	}
	if owner := s.directoryOwner(ref); owner == s.Node() {
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
// and re-placed among live peers — the failover path for entries created
// (or re-learned) after the death purge.
//
// A suggestion the full node table refuses is placed like a dead one: among
// the live members, which the table always holds.
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
			e.dir, ok = s.intern(suggest)
		}
		e.dirEpoch = 0
		if !ok {
			live := s.livePeers()
			s.rngMu.Lock()
			e.dir, _ = s.nodeLookup(live[s.rng.Intn(len(live))])
			s.rngMu.Unlock()
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

// livePeers lists the peers not currently considered Dead (self included).
// Placement draws from this list so new activations never land on a dead
// node. Order follows s.peers (sorted), keeping placement deterministic
// for a given seed while all peers are alive.
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

// directoryOwner is the node owning ref's placement entry: the static
// hash-modulo home while that node is believed up, else a rendezvous-hash
// pick among the live peers. The fallback touches only the dead node's
// ranges — every other ref keeps its owner — and spreads them over all
// survivors rather than one neighbor. Every node computes this from its own
// membership view; transient disagreement windows resolve through redirects
// and call retries.
func (s *System) directoryOwner(ref Ref) transport.NodeID {
	owner := s.peers[uint64(ref.Vertex())%uint64(len(s.peers))]
	if owner == s.Node() || s.PeerStateOf(owner) != PeerDead {
		return owner
	}
	live := s.livePeers() // non-empty: always includes self
	best := live[0]
	var bestScore uint64
	for _, p := range live {
		if score := ownerScore(p, ref); score >= bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// ownerScore is directoryOwner's rendezvous weight of one (peer, ref) pair:
// FNV-1a over "peer\x00Type\x00Key".
func ownerScore(p transport.NodeID, ref Ref) uint64 {
	return fnvRef(strHash(string(p))*fnvPrime64, ref)
}
