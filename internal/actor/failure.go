package actor

import (
	"sync/atomic"
	"time"

	"actop/internal/flight"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// Node-failure tolerance: a heartbeat failure detector with an
// alive→suspect→dead state machine per peer, and the failover actions that
// fire on a death — purge poisoned routing state and rehash the placement
// directory so the next call re-activates the dead node's actors on
// survivors (the Orleans virtual-actor recovery model, §2).

// PeerState is a peer's position in the failure detector's state machine.
type PeerState int

// Detector states. A peer starts Alive, becomes Suspect after
// Config.SuspectAfter consecutive missed heartbeats, Dead after
// Config.DeadAfter, and returns to Alive on any successful round trip
// (or any inbound ping from it).
const (
	PeerAlive PeerState = iota
	PeerSuspect
	PeerDead
)

// String renders the state for logs and debug endpoints.
func (p PeerState) String() string {
	switch p {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	}
	return "unknown"
}

// memberEntry is the detector's per-peer record. All fields are guarded by
// fdMu except healthy, an atomic mirror of "state is Alive with no missed
// pings" that lets the passive path (markPeerAlive, on every inbound
// envelope) skip the mutex entirely in the steady state.
type memberEntry struct {
	state   PeerState
	missed  int       // consecutive failed heartbeat round trips
	deadAt  time.Time // when state last transitioned to PeerDead
	healthy atomic.Bool
}

// syncHealthyLocked re-derives the atomic mirror; call after any mutation
// of state or missed under fdMu.
func (m *memberEntry) syncHealthyLocked() {
	m.healthy.Store(m.state == PeerAlive && m.missed == 0)
}

// heartbeatLoop is the detector's loop for one peer: every
// HeartbeatInterval it pings the peer, with the interval itself as the ping
// timeout (a peer that cannot answer within one interval counts as a miss),
// and folds the outcome. A ping that times out has used up its interval, so
// the next one leaves at once: each interval is one verdict step, and a peer
// that falls silent is dead within DeadAfter+1 intervals.
func (s *System) heartbeatLoop(peer transport.NodeID) {
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		err := s.controlCallT(peer, ctlPing, nil, nil, s.cfg.HeartbeatInterval)
		s.failures.HeartbeatsSent.Add(1)
		s.heartbeatResult(peer, err == nil)
	}
}

// heartbeatResult folds one ping outcome into the state machine and fires
// the failover/notification side effects of any transition outside the
// detector lock.
func (s *System) heartbeatResult(peer transport.NodeID, ok bool) {
	if !ok {
		s.failures.HeartbeatMisses.Add(1)
	}
	s.fdOrder.Lock()
	defer s.fdOrder.Unlock()
	s.fdMu.Lock()
	m := s.members[peer]
	old := m.state
	if ok {
		m.missed = 0
		m.state = PeerAlive
	} else {
		m.missed++
		switch {
		case m.state == PeerAlive && m.missed >= s.cfg.SuspectAfter:
			m.state = PeerSuspect
		case m.state == PeerSuspect && m.missed >= s.cfg.DeadAfter:
			m.state = PeerDead
			m.deadAt = time.Now()
		}
	}
	m.syncHealthyLocked()
	st := m.state
	s.fdMu.Unlock()
	if st != old {
		s.peerTransition(peer, old, st)
	}
}

// markPeerAlive is the passive path: any inbound envelope from a peer
// proves it is reachable, so reset its record without waiting for our own
// ping. This runs on every received envelope, so the steady state (peer
// already healthy) must stay off the detector mutex: the members map is
// insert-free after NewSystem, and healthy is the atomic mirror of the
// nothing-to-heal condition.
func (s *System) markPeerAlive(peer transport.NodeID) {
	m, ok := s.members[peer]
	if !ok {
		return // not in our static membership; ignore
	}
	if m.healthy.Load() {
		return
	}
	s.fdOrder.Lock()
	defer s.fdOrder.Unlock()
	s.fdMu.Lock()
	old := m.state
	m.missed = 0
	m.state = PeerAlive
	m.syncHealthyLocked()
	s.fdMu.Unlock()
	if old != PeerAlive {
		s.peerTransition(peer, old, PeerAlive)
	}
}

// peerTransition records a membership change, runs failover on a death,
// and notifies watchers. Called outside fdMu and under fdOrder, which the
// caller took before reaching its verdict: a verdict and its side effects
// are one step against every other verdict, so watchers hear transitions in
// the order the state machine made them — proof of life arriving after a
// death verdict cannot announce "alive" ahead of that "dead".
func (s *System) peerTransition(peer transport.NodeID, from, to PeerState) {
	s.flight.Record(flight.Event{
		Kind: flight.KindMembership, Peer: string(peer),
		Detail: from.String() + "->" + to.String(),
	})
	switch to {
	case PeerSuspect:
		s.failures.Suspects.Add(1)
	case PeerDead:
		s.failures.Deaths.Add(1)
		// A death verdict is an anomaly trigger: the dump preserves the
		// membership flapping, purges, and recovery traffic around it.
		s.flight.Trigger(flight.KindPeerDead, string(peer))
		s.failoverPurge(peer)
		s.trackGo(s.reassertActivations)
	case PeerAlive:
		if from == PeerDead {
			s.failures.Revivals.Add(1)
		}
	}
	s.fdMu.Lock()
	var watchers []func(transport.NodeID, PeerState)
	watchers = append(watchers, s.watchers...)
	s.fdMu.Unlock()
	for _, w := range watchers {
		w(peer, to)
	}
}

// failoverPurge removes every piece of routing state poisoned by a dead
// node: location-cache entries pointing at it, and the directory entries
// this node owns whose placement was homed on it — so the next Call
// re-places and re-activates those actors on a live node. Directory ranges
// the dead node itself owned need no action here: directoryOwner rehashes
// them to live survivors, whose (empty) directories re-place on demand.
func (s *System) failoverPurge(dead transport.NodeID) {
	var purged uint64
	di, _ := s.nodeLookup(dead) // a member: the node table holds them all
	// Shard by shard: a purge holds each stripe only as long as its own
	// sweep, so concurrent calls on other shards keep routing while the
	// failover cleans up behind them. No cross-shard invariant is at stake —
	// each entry's poison is independent, and the epoch guard handles any
	// update racing the purge.
	for i := range s.state {
		sh := &s.state[i]
		sh.mu.Lock()
		sh.each(func(h uint64, e refEntry) {
			n := purged
			if e.route == di {
				e.route = 0
				purged++
			}
			if e.dir == di {
				e.dir = 0
				purged++
			}
			if purged != n {
				sh.set(h, e)
			}
		})
		sh.mu.Unlock()
	}
	s.failures.FailoverPurged.Add(purged)
	s.flight.Record(flight.Event{Kind: flight.KindFailoverPurge, Peer: string(dead), N: purged})
}

// reassertActivations re-registers every locally hosted actor with its
// directory owner after a peer death. A dead owner's directory ranges
// rehash to survivors whose directories start empty, so until an entry
// exists a routed call for an actor this node still hosts blind-places a
// second incarnation elsewhere — a split brain where the live copy keeps
// serving cached callers while the twin diverges from a stale snapshot.
// Re-asserting right after the death closes that window to the detection
// lag. The epoch travels with the update so the guard keeps a late
// re-assert from rewinding a newer migration, and a failed send falls back
// to the background retry loop (the update must eventually land — see
// retryDirUpdate).
func (s *System) reassertActivations() {
	// ref and epoch are immutable once the activation is published into the
	// state table, so reading them after the shard lock is ordered.
	for _, a := range s.activations() {
		update := dirRequest{
			Type: a.ref.Type, Key: a.ref.Key,
			NewNode: string(s.Node()), Epoch: a.epoch,
		}
		if err := s.controlCall(s.directoryOwner(a.ref), ctlDirUpdate, update, nil); err != nil {
			s.trackGo(func() { s.retryDirUpdate(a.ref, update) })
		}
	}
}

// peerDeadSince reports whether the detector currently considers peer dead
// and, if so, when the verdict was reached. The snapshot plane uses the
// timestamp to distrust fresh verdicts: a false positive (starved
// heartbeats under load) looks identical to a real death at the moment it
// fires, and acting on it by skipping a live replica turns a detector
// hiccup into permanent state loss.
func (s *System) peerDeadSince(peer transport.NodeID) (time.Time, bool) {
	s.fdMu.Lock()
	defer s.fdMu.Unlock()
	if m, ok := s.members[peer]; ok && m.state == PeerDead {
		return m.deadAt, true
	}
	return time.Time{}, false
}

// PeerStateOf reports the detector's current view of a peer. The local
// node and unknown ids read as Alive.
func (s *System) PeerStateOf(peer transport.NodeID) PeerState {
	if peer == s.Node() {
		return PeerAlive
	}
	s.fdMu.Lock()
	defer s.fdMu.Unlock()
	if m, ok := s.members[peer]; ok {
		return m.state
	}
	return PeerAlive
}

// Membership snapshots the detector's view of every peer (including self,
// always Alive).
func (s *System) Membership() map[transport.NodeID]PeerState {
	out := make(map[transport.NodeID]PeerState, len(s.peers))
	s.fdMu.Lock()
	for p, m := range s.members {
		out[p] = m.state
	}
	s.fdMu.Unlock()
	out[s.Node()] = PeerAlive
	return out
}

// OnMembershipChange registers a callback invoked on every peer state
// transition (from the detector's goroutines; keep it fast and do not call
// back into blocking System methods).
func (s *System) OnMembershipChange(fn func(transport.NodeID, PeerState)) {
	s.fdMu.Lock()
	s.watchers = append(s.watchers, fn)
	s.fdMu.Unlock()
}

// Failures snapshots the node's failure-tolerance counters.
func (s *System) Failures() metrics.FailureSnapshot { return s.failures.Snapshot() }
