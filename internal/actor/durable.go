package actor

import (
	"fmt"
	"sort"
	"time"

	"actop/internal/codec"
	"actop/internal/durable"
	"actop/internal/flight"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// Actor-layer durability (ISSUE 8): Durable actors' state is captured off
// the turn path, encoded + shipped by the background snapshotter stage over
// the actop.snap control verb to K rendezvous-chosen peer replicas, and on
// failover re-activation the new owner pulls the highest-(epoch, seq)
// snapshot before admitting the first turn. The migration epoch versions
// every snapshot so a delayed ship from a pre-migration incarnation can
// never clobber a newer one — the same guard the directory updates use.

// durabilityOn reports whether this node runs the durability plane at all.
func (s *System) durabilityOn() bool { return s.cfg.DurableReplicas > 0 }

// isDurable reports whether an actor instance participates in durability:
// the plane is on and the type opted in via the Durable marker.
func (s *System) isDurable(inst Actor) bool {
	if !s.durabilityOn() {
		return false
	}
	_, ok := inst.(Durable)
	return ok
}

// Durables snapshots the node's durability counters.
func (s *System) Durables() metrics.DurableSnapshot { return s.durables.Snapshot() }

// captureSnapshotLocked captures a Durable activation's state. Called from
// drain with a.turnMu held, so the only work done here is the state copy:
// actors implementing codec.Copier pay one deep copy and the gob encode
// runs on the snapshotter stage; plain Migratable actors pay Snapshot inline
// (their encode IS the copy — there is no cheaper way to isolate their
// state). No transport or codec call happens on this path. The returned job
// (nil when the capture failed) encodes and ships; drain submits it to the
// stage AFTER releasing the turn lock and answering the caller, so even the
// handoff stays off the reply path, and SyncSnapshots runs its jobs once
// every lock is released. TestSnapshotCaptureOffTurn holds
// the encode and the ship and requires the next turn to answer meanwhile.
func (s *System) captureSnapshotLocked(a *activation) func() {
	var encode func() ([]byte, error)
	if c, ok := a.actor.(codec.Copier); ok {
		if m, ok := c.CopyValue().(Migratable); ok {
			encode = m.Snapshot
		}
	}
	if encode == nil {
		m, ok := a.actor.(Migratable)
		if !ok {
			return nil
		}
		state, err := m.Snapshot()
		if err != nil {
			s.durables.CaptureErrors.Add(1)
			return nil
		}
		encode = func() ([]byte, error) { return state, nil }
	}
	x := a.ext
	x.snapSeq++
	x.dirty = 0
	x.lastSnap = time.Now()
	s.durables.Captured.Add(1)
	ref, epoch, seq := a.ref, a.epoch, x.snapSeq
	return func() {
		defer x.shipped.Store(uint32(seq))
		state, err := encode()
		if err != nil {
			s.durables.CaptureErrors.Add(1)
			return
		}
		s.shipSnapshot(ref, epoch, seq, state)
	}
}

// shipSnapshot encodes the wire record once and streams it to each replica.
// Runs in a capture's job — on the snapshotter stage or in a SyncSnapshots
// caller — never under a turn lock.
func (s *System) shipSnapshot(ref Ref, epoch, seq uint64, state []byte) {
	payload := durable.AppendRecord(nil, durable.Record{
		Type: ref.Type, Key: ref.Key, Epoch: epoch, Seq: seq, State: state,
	})
	s.flight.Record(flight.Event{Kind: flight.KindSnapshotShip, Actor: ref.String(), N: uint64(len(payload))})
	for _, p := range s.snapReplicas(ref) {
		// A plain dead-skip is right here, unlike on the recovery path: a
		// ship withheld from a falsely-accused peer costs one interval of
		// replica freshness and the next capture repairs it, while a
		// recovery read that wrongly skips a replica is irreversible.
		if s.PeerStateOf(p) == PeerDead {
			continue
		}
		if _, err := s.controlRoundTrip(p, ctlSnap, payload, s.cfg.CallTimeout); err != nil {
			s.durables.ShipErrors.Add(1)
			continue
		}
		s.durables.Shipped.Add(1)
		s.durables.ShippedBytes.Add(uint64(len(payload)))
	}
}

// snapScore is the rendezvous weight of one (peer, ref) pair. The "snap"
// salt decorrelates replica choice from directoryOwner, so losing one node
// doesn't take out an actor's directory home and its replica set together.
// It is FNV-1a over "snap\x00peer\x00Type\x00Key".
func snapScore(p transport.NodeID, ref Ref) uint64 {
	h := fnvString(fnvOffset64, "snap") * fnvPrime64
	return fnvRef(fnvString(h, string(p))*fnvPrime64, ref)
}

// topSnapPeers returns the k highest-scoring peers for ref by rendezvous
// hashing, excluding skip. Deterministic across nodes: every node computes
// the same replica set from the same membership.
func (s *System) topSnapPeers(ref Ref, k int, skip transport.NodeID) []transport.NodeID {
	type scored struct {
		n     transport.NodeID
		score uint64
	}
	cands := make([]scored, 0, len(s.peers))
	for _, p := range s.peers {
		if p == skip {
			continue
		}
		cands = append(cands, scored{n: p, score: snapScore(p, ref)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].n < cands[j].n
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]transport.NodeID, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.n)
	}
	return out
}

// snapReplicas is the replica set a snapshot of ref ships to: the top-K
// rendezvous peers excluding this node (the live activation IS the primary
// copy; replicating to self adds nothing).
func (s *System) snapReplicas(ref Ref) []transport.NodeID {
	return s.topSnapPeers(ref, s.cfg.DurableReplicas, s.Node())
}

// snapDeadGrace is how long the snapshot plane distrusts a dead verdict.
// The failure detector's false positives (heartbeats starved under a
// recovery stampede, a GC pause on the remote) are indistinguishable from
// a real death at the moment they fire, and the snapshot plane is the one
// place where acting on a wrong verdict is irreversible: skipping a live
// replica during a recovery pull resurrects the actor with amnesia. So for
// a grace period after the verdict — twice the detection time itself,
// capped so a real outage cannot stall fresh activations past half the
// call budget — dead-marked peers are still probed, and a probe failure
// counts as an unreachable replica (retry-safe refusal) rather than an
// authoritative miss. Past the grace the verdict is trusted and the peer's
// store is presumed lost.
func (s *System) snapDeadGrace() time.Duration {
	g := s.cfg.HeartbeatInterval * time.Duration(2*s.cfg.DeadAfter)
	if cap := s.cfg.CallTimeout / 2; g > cap {
		g = cap
	}
	return g
}

// recoverSnapshot pulls the best available snapshot for ref from the
// replica set (and this node's own store) ahead of a failover
// re-activation. Pulls go through the recovery semaphore so a hot dead
// node's actors don't thundering-herd the survivors. A nil record with a
// nil error means no replica holds state (fresh actor); an error means
// replicas were unreachable and the activation must NOT be admitted empty —
// the caller surfaces a retryable failure (pause, not amnesia).
func (s *System) recoverSnapshot(ref Ref) (*durable.Record, error) {
	select {
	case s.recoverySem <- struct{}{}:
	default:
		// Sem full: wait briefly, then refuse retry-safe. Pulls run on the
		// receive stage, so parking here for a full call budget eats the
		// very workers that must keep serving directory lookups and replica
		// fetches for the pulls ahead of us — a handful of slow pulls would
		// cascade into a node-wide control-plane stall. A bounded wait plus
		// a retryable refusal sheds the excess back to the caller's retry
		// loop instead (same shape as §6.1 overload handling).
		s.durables.RecoveryThrottled.Add(1)
		// Recovery throttling marks a stampede in progress — trigger a
		// black-box dump so the herd's shape (deaths, purges, pulls) is
		// preserved even if the incident self-heals.
		s.flight.Trigger(flight.KindRecoveryThrottled, ref.String())
		wait := s.cfg.HeartbeatInterval
		if w := 2 * s.cfg.RetryBackoff; w > wait {
			wait = w
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case s.recoverySem <- struct{}{}:
		case <-s.done:
			return nil, ErrStopped
		case <-t.C:
			return nil, fmt.Errorf("%w: recovery of %s throttled", errPeerDown, ref)
		}
	}
	defer func() { <-s.recoverySem }()

	s.durables.Recoveries.Add(1)
	deadline := time.Now().Add(s.cfg.CallTimeout)
	var best *durable.Record
	if rec, ok := s.snapStore.Get(ref.Type, ref.Key); ok {
		best = &rec
	}
	fails := 0
	// consult folds one replica's answer into best/fails, behind a per-peer
	// breaker: a peer whose last fetch failed within the past heartbeat
	// interval counts as unreachable without a new round trip. Fetches to an
	// unresponsive peer (killed but not yet detected, or starved) burn a
	// full attempt timeout each while parked on a receive worker, and a hot
	// ref's callers retry every few milliseconds — without the breaker those
	// retries convoy onto the receive stage and starve the control verbs
	// every other pull needs. One worker pays the timeout per cooldown; the
	// rest refuse retry-safe in microseconds. A fetch that succeeds clears
	// the breaker, so a healthy or recovered peer is never throttled.
	consult := func(p transport.NodeID) {
		s.snapProbeMu.Lock()
		cooling := time.Since(s.snapProbeFail[p]) < s.cfg.HeartbeatInterval
		s.snapProbeMu.Unlock()
		if cooling {
			fails++
			return
		}
		rec, ok, err := s.fetchSnapshot(p, ref, deadline)
		s.snapProbeMu.Lock()
		if err != nil {
			s.snapProbeFail[p] = time.Now()
		} else {
			delete(s.snapProbeFail, p)
		}
		s.snapProbeMu.Unlock()
		if err != nil {
			fails++
			return
		}
		if !ok {
			return
		}
		if best == nil || rec.Epoch > best.Epoch ||
			(rec.Epoch == best.Epoch && rec.Seq > best.Seq) {
			r := rec
			best = &r
		}
	}
	// Query the global top-(K+1) minus self: the shipper's top-K excluding
	// any single prior host is a subset of the global top-(K+1), so every
	// replica that can hold this ref's snapshots is consulted.
	var deferred []transport.NodeID
	for _, p := range s.topSnapPeers(ref, s.cfg.DurableReplicas+1, "") {
		if p == s.Node() {
			continue
		}
		if at, dead := s.peerDeadSince(p); dead {
			if time.Since(at) < s.snapDeadGrace() {
				deferred = append(deferred, p)
			}
			continue
		}
		consult(p)
	}
	// Peers under a recent dead verdict are a last resort, not part of the
	// normal query: they are probed only when no live replica held any
	// snapshot, so the cost stays confined to the amnesia-risk case. If the
	// dead verdict was a false positive the probe answers and the state is
	// saved; if the peer really is down the probe fails (or its breaker is
	// cooling) and lands in the fails accounting — refusal and retry, never
	// amnesia while a replica might still hold state. The tradeoff: within
	// the grace window a live-replica snapshot wins even if the dead-marked
	// peer holds a newer epoch (possible across migrations); the pre-grace
	// behavior skipped such peers unconditionally, so this is strictly less
	// lossy.
	if best == nil {
		for _, p := range deferred {
			consult(p)
		}
	}
	if best == nil && fails > 0 {
		// Some replica may hold state we could not reach: refusing the
		// activation keeps callers retrying instead of resurrecting the
		// actor with amnesia next to a recoverable snapshot.
		s.durables.RecoveryFailed.Add(1)
		s.flight.Record(flight.Event{Kind: flight.KindRecovery, Actor: ref.String(), Detail: "failed", N: uint64(fails)})
		return nil, fmt.Errorf("%w: %d replica(s) unreachable recovering %s", errPeerDown, fails, ref)
	}
	if best != nil {
		s.durables.RecoveredWithState.Add(1)
		s.flight.Record(flight.Event{Kind: flight.KindRecovery, Actor: ref.String(), Detail: "with_state", N: best.Epoch})
	} else {
		s.durables.RecoveryEmpty.Add(1)
		s.flight.Record(flight.Event{Kind: flight.KindRecovery, Actor: ref.String(), Detail: "empty"})
	}
	return best, nil
}

// fetchSnapshot asks one replica for its resident snapshot of ref. An empty
// reply payload means "no snapshot here" (ok=false, no error).
func (s *System) fetchSnapshot(node transport.NodeID, ref Ref, deadline time.Time) (durable.Record, bool, error) {
	req, err := codec.Marshal(dirRequest{Type: ref.Type, Key: ref.Key})
	if err != nil {
		return durable.Record{}, false, err
	}
	out, err := s.controlRoundTrip(node, ctlSnapGet, req, s.attemptTimeout(deadline))
	if err != nil {
		return durable.Record{}, false, err
	}
	if len(out) == 0 {
		return durable.Record{}, false, nil
	}
	rec, err := durable.DecodeRecord(out)
	if err != nil {
		return durable.Record{}, false, err
	}
	return rec, true, nil
}

// handleSnapPut installs an inbound replica snapshot, subject to the
// (epoch, seq) ordering rule — the delayed pre-migration ship is counted
// and dropped here.
func (s *System) handleSnapPut(payload []byte) ([]byte, error) {
	rec, err := durable.DecodeRecord(payload)
	if err != nil {
		return nil, err
	}
	if s.snapStore.Put(rec) {
		s.durables.ReplicaAccepted.Add(1)
	} else {
		s.durables.ReplicaStale.Add(1)
	}
	return nil, nil
}

// handleSnapGet answers a recovery pull with the resident snapshot record
// (empty payload when none).
func (s *System) handleSnapGet(payload []byte) ([]byte, error) {
	var req dirRequest
	if err := codec.Unmarshal(payload, &req); err != nil {
		return nil, err
	}
	rec, ok := s.snapStore.Get(req.Type, req.Key)
	if !ok {
		return nil, nil
	}
	return durable.AppendRecord(nil, rec), nil
}

// SyncSnapshots synchronously captures and ships every Durable activation
// on this node that is dirty or whose last capture has not finished shipping
// (still queued on the snapshotter, or dropped), returning the number
// captured. Used as a graceful flush (planned drains, chaos tests
// establishing a known-durable baseline before a kill). Each capture is
// captureSnapshotLocked's, taken under the activation's turn lock; its
// encode and ship run after every lock is released.
func (s *System) SyncSnapshots() int {
	if !s.durabilityOn() {
		return 0
	}
	var jobs []func()
	for _, a := range s.activations() {
		a.turnMu.Lock()
		if x := a.ext; x != nil && x.durable && (x.dirty > 0 || x.shipped.Load() != uint32(x.snapSeq)) {
			if job := s.captureSnapshotLocked(a); job != nil {
				jobs = append(jobs, job)
			}
		}
		a.turnMu.Unlock()
	}
	for _, job := range jobs {
		job()
	}
	return len(jobs)
}
