package actor

import (
	"fmt"
	"sync"
	"time"

	"actop/internal/codec"
	"actop/internal/flight"
	"actop/internal/graph"
	"actop/internal/partition"
	"actop/internal/transport"
)

// migratePayload is a live-migration state transfer (wire form in wire.go). ID
// uniquely names one transfer attempt (initiator node + sequence), so that
// a later cleanup ("drop") can never remove an activation installed by a
// different, successful migration.
type migratePayload struct {
	Type, Key string
	ID        string
	Epoch     uint64
	// SnapSeq piggybacks the source incarnation's durable snapshot sequence
	// so the new host continues the (epoch, seq) chain without an immediate
	// full re-send: the transferred state IS the latest snapshot.
	SnapSeq  uint64
	HasState bool
	State    []byte
}

// migrationID names one transfer attempt uniquely across the cluster.
func (s *System) migrationID() string {
	return fmt.Sprintf("%s#%d", s.Node(), s.nextID.Add(1))
}

// Migrate moves a locally hosted actor to another node, transparently to
// callers (§4.3): the state transfers, the directory updates, stragglers
// chase redirects, and queued invocations are re-routed.
//
// Failure semantics under an unreliable network: the transfer is the
// commit point. If the transfer call fails (which includes "the peer
// installed the copy but the ack was lost"), the local activation stays
// authoritative, the directory is untouched, and a best-effort ID-matched
// drop retires any orphan copy on the peer — so callers keep getting
// correct answers from this node throughout. If the transfer succeeds, the
// migration completes locally even when the directory update is lost: this
// node's location cache redirects stragglers to the new home, and the
// directory update retries in the background until the owner applies it.
func (s *System) Migrate(ref Ref, to transport.NodeID) error {
	if to == s.Node() {
		return nil
	}
	if s.PeerStateOf(to) != PeerAlive {
		// Never ship state toward a node the detector distrusts: a transfer
		// into a dying node strands the actor behind its failover.
		return fmt.Errorf("%w: migrate %s to %s (%s)", errPeerDown, ref, to, s.PeerStateOf(to))
	}
	act := s.localActivation(refHash(ref), ref)
	if act == nil {
		return fmt.Errorf("actor: %s not active on %s", ref, s.Node())
	}

	// Quiesce: no turn may run while the state is captured.
	act.turnMu.Lock()
	defer act.turnMu.Unlock()

	// Re-check under the turn lock: a concurrent Migrate (an exchange
	// counter-move racing a directly requested move) may have retired this
	// activation while we waited. Shipping the stale copy would install the
	// actor on two nodes at once.
	if s.localActivation(act.refH, ref) != act {
		return fmt.Errorf("actor: %s no longer active on %s", ref, s.Node())
	}

	// Authority check for migrated-in actors: only the directory-confirmed
	// home may move one onward. Without this, a copy installed by a transfer
	// whose ack was lost (an orphan awaiting ID-matched cleanup) could
	// launder itself to a third node the cleanup will never visit. The local
	// cache cannot be trusted here — installing the copy is exactly what
	// seeded it — so ask the directory owner directly; refusing on error is
	// always safe (migration is an optimization, not an obligation).
	if act.installID != "" {
		var home wireNode
		//actoplint:ignore lockheldio migration quiesces the turn by design; controlCall is timeout-bounded, so the hold is finite
		if err := s.controlCall(s.directoryOwner(ref), ctlDirLookup,
			dirRequest{Type: ref.Type, Key: ref.Key}, &home); err != nil {
			return fmt.Errorf("actor: cannot confirm home of %s: %w", ref, err)
		}
		if transport.NodeID(home) != s.Node() {
			return fmt.Errorf("actor: %s is not the confirmed home of %s (directory says %s)",
				s.Node(), ref, home)
		}
	}

	// The transferred incarnation is one step further down the migration
	// chain; its epoch versions the directory update below.
	payload := migratePayload{Type: ref.Type, Key: ref.Key, ID: s.migrationID(), Epoch: act.epoch + 1, SnapSeq: act.snapSeq}
	if m, ok := act.actor.(Migratable); ok {
		state, err := m.Snapshot()
		if err != nil {
			return fmt.Errorf("actor: snapshot %s: %w", ref, err)
		}
		payload.HasState = true
		payload.State = state
	}
	//actoplint:ignore lockheldio the transfer must complete under the turn lock (transfer-as-commit-point); controlCall is timeout-bounded
	if err := s.controlCall(to, ctlMigratePut, payload, nil); err != nil {
		// The put may have landed with only the ack lost: retire any copy
		// it installed (matched by ID, so a different migration's install
		// is never harmed). Until that lands, the directory still points
		// here and remote callers stay correct; the drop closes the one
		// split-brain window — calls originated on the peer itself.
		s.dropOrphan(to, ref, payload.ID)
		return fmt.Errorf("actor: transfer %s to %s: %w", ref, to, err)
	}
	// The transfer is committed: from here the peer's copy is the actor.
	// Leave the forwarding tombstone (and cache route) before anything
	// else, so straggler deliveries chase the new home immediately — and so
	// routed resolution here cannot follow a directory entry that still
	// names this node into a fresh split-brain incarnation while the update
	// below is in flight.
	s.recordForward(act, to)

	// Point the directory at the new home BEFORE retiring the local
	// activation. Until the owner confirms, directory-routed calls still
	// land here — where they enqueue on the (quiesced) activation and
	// re-route once it retires. Retiring first opened a split-brain: with
	// the directory still naming this node and the cache redirect evicted
	// (clock pressure, a failover purge, a timeout invalidation), a routed
	// call found no activation, re-resolved through the stale directory,
	// and re-instantiated a FRESH actor here while the real state lived on
	// the peer. A lost update still degrades to that window (background
	// retry until the owner applies it); the epoch guard keeps late
	// retries from rewinding newer migrations.
	update := dirRequest{Type: ref.Type, Key: ref.Key, NewNode: string(to), Epoch: payload.Epoch}
	//actoplint:ignore lockheldio directory update is ordered before releasing the turn lock so a new turn cannot race it; timeout-bounded with a background retry fallback
	if err := s.controlCall(s.directoryOwner(ref), ctlDirUpdate, update, nil); err != nil {
		s.trackGo(func() { s.retryDirUpdate(ref, update) })
	}

	// Retire the local activation, keeping the route recordForward left;
	// queued invocations re-route.
	s.retire(act, true)

	// The statistics travel with the actor: drop our copy (the new host
	// rebuilds from live traffic; §4.3).
	s.monMu.Lock()
	s.monitor.ForgetVertex(ref.Vertex())
	s.monMu.Unlock()

	s.migrationsOut.Add(1)
	if s.prof != nil {
		act.foldRemainder(s.prof) // turnMu is held since the quiesce
		s.prof.ObserveMigration(act.refH)
	}
	s.flight.Record(flight.Event{Kind: flight.KindMigrationOut, Actor: ref.String(), Peer: string(to)})
	return nil
}

// sleepOrDone pauses for d, returning false immediately if the system stops
// first — the gate every background retry loop waits through.
func (s *System) sleepOrDone(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.done:
		return false
	}
}

// retryDirUpdate re-sends a lost directory update with capped backoff until
// it lands or the system stops. It must not give up: the source's
// forwarding tombstone expires, and after that a directory entry still
// naming the old home re-instantiates the actor there on the next routed
// call — a permanent split brain. The owner is recomputed every attempt so
// an update outlives the owner's death (the entry rehashes to a survivor).
// Runs on a tracked goroutine so Stop waits it out.
func (s *System) retryDirUpdate(ref Ref, update dirRequest) {
	backoff := 200 * time.Millisecond
	for {
		if !s.sleepOrDone(backoff) {
			return
		}
		if s.controlCall(s.directoryOwner(ref), ctlDirUpdate, update, nil) == nil {
			return
		}
		if backoff < time.Second {
			backoff += 200 * time.Millisecond
		}
	}
}

// dropOrphan asks node to remove an activation installed by migration id,
// retrying in the background with capped backoff until the drop is
// acknowledged, the node is declared dead (death retires the orphan with
// everything else on it), or this node stops. The same network faults that
// failed the transfer can swallow any bounded number of drops, so cleanup
// keeps trying; the ID match makes arbitrarily late or duplicated drops
// safe.
func (s *System) dropOrphan(node transport.NodeID, ref Ref, id string) {
	s.trackGo(func() {
		backoff := 100 * time.Millisecond
		for attempt := 0; attempt < 50; attempt++ {
			if s.PeerStateOf(node) == PeerDead {
				return
			}
			if s.controlCall(node, ctlMigrateDrop, migratePayload{
				Type: ref.Type, Key: ref.Key, ID: id,
			}, nil) == nil {
				return
			}
			if !s.sleepOrDone(backoff) {
				return
			}
			if backoff < 500*time.Millisecond {
				backoff += 100 * time.Millisecond
			}
		}
	})
}

// handleMigratePut installs an inbound migrated actor. A duplicate put for
// the same migration ID (a retried transfer whose first attempt landed) is
// acknowledged idempotently.
func (s *System) handleMigratePut(payload []byte) ([]byte, error) {
	var p migratePayload
	if err := codec.Unmarshal(payload, &p); err != nil {
		return nil, err
	}
	ref := Ref{Type: p.Type, Key: p.Key}
	s.mu.RLock()
	factory, ok := s.types[ref.Type]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, ref.Type)
	}
	h := refHash(ref)
	sh := s.shard(h)
	sh.mu.Lock()
	e := sh.entry(h, ref)
	if e.act != nil {
		installID := e.act.installID
		sh.mu.Unlock()
		if installID != "" && installID == p.ID {
			return nil, nil // duplicate of our own install
		}
		return nil, fmt.Errorf("actor: %s already active on %s", ref, s.Node())
	}
	inst := factory()
	if p.HasState {
		m, ok := inst.(Migratable)
		if !ok {
			sh.mu.Unlock()
			return nil, fmt.Errorf("actor: %s carries state but type is not Migratable", ref)
		}
		if err := m.Restore(p.State); err != nil {
			sh.mu.Unlock()
			return nil, fmt.Errorf("actor: restore %s: %w", ref, err)
		}
	}
	e.act = &activation{
		ref: ref, refH: h, actor: inst, installID: p.ID, epoch: p.Epoch,
		durable: s.isDurable(inst), snapSeq: p.SnapSeq, lastSnap: time.Now(),
	}
	// The route is now here, which is never cached (setRoute); a tombstone
	// left by an earlier outbound migration of this ref is obsolete: the
	// chain came back, and the live activation now answers.
	e.route, e.fwd = "", ""
	sh.set(h, e)
	sh.mu.Unlock()
	s.migrationsIn.Add(1)
	if s.prof != nil {
		s.prof.ObserveMigration(h)
	}
	s.flight.Record(flight.Event{Kind: flight.KindMigrationIn, Actor: ref.String(), N: p.Epoch})
	return nil, nil
}

// handleMigrateDrop retires an activation installed by a failed migration
// attempt: the initiator never observed the ack, kept authority at the old
// home, and is now disposing of the orphan copy. The ID match guarantees a
// drop — however delayed or duplicated by the network — can only remove
// the exact install it was issued against. The location-cache entry the
// install created is cleared too, so this node — and the straggler
// invocations queued on the orphan — re-resolve the actor through the
// directory (which still points at the authoritative home). Nothing to drop
// (already gone, or not ours) is an acknowledgement too.
func (s *System) handleMigrateDrop(payload []byte) ([]byte, error) {
	var p migratePayload
	if err := codec.Unmarshal(payload, &p); err != nil {
		return nil, err
	}
	ref := Ref{Type: p.Type, Key: p.Key}
	if act := s.localActivation(refHash(ref), ref); act != nil && act.installID != "" && act.installID == p.ID {
		s.retire(act, false)
	}
	return nil, nil
}

// --- ActOp partition-exchange integration (Algorithm 1 over the wire) ---

// exchangeWire is the ctlExchange request payload (wire form in wire.go):
// Algorithm 1's offer, and the initiator's parameters so both sides decide
// under the same configuration. Of Req, To stays behind — the receiver is
// the target; Opts is all of partition.Options: the candidate set size, the
// imbalance tolerance and the minimum score.
type exchangeWire struct {
	Req  partition.ExchangeRequest
	Opts partition.Options
}

// exchangeReply is the ctlExchange response payload: the initiator's
// vertices the peer will host, and the peer's it sends back.
type exchangeReply partition.ExchangeResponse

// exchangeMu serializes exchange decisions across every System in the
// process, not per node: in-process clusters (the convergence tests, the
// presence_converge workload) interleave their nodes' exchanges in the order
// it imposes, and a per-node lock would change how many moves a round makes.
var exchangeMu sync.Mutex

// exchangeCooling reports whether this node took part in an exchange within
// window (Algorithm 1's cooldown).
func (s *System) exchangeCooling(window time.Duration) bool {
	s.exchMu.Lock()
	defer s.exchMu.Unlock()
	return !s.exchLast.IsZero() && time.Since(s.exchLast) < window
}

func (s *System) markExchanged() {
	s.exchMu.Lock()
	s.exchLast = time.Now()
	s.exchMu.Unlock()
}

// nodeIndex maps a peer NodeID to its graph.ServerID (index in the sorted
// peer list), the identifier space the partition package works in.
func (s *System) nodeIndex(n transport.NodeID) (graph.ServerID, bool) {
	for i, p := range s.peers {
		if p == n {
			return graph.ServerID(i), true
		}
	}
	return 0, false
}

// sysLocator adapts the node's placement knowledge to partition.Locator: a
// vertex's state entry places it here when it holds an activation, and at
// its cached route otherwise. Unknown actors simply don't contribute to
// transfer scores — the algorithm is built for partial views.
type sysLocator struct{ s *System }

// Server implements partition.Locator.
func (l sysLocator) Server(v graph.Vertex) (graph.ServerID, bool) {
	e, ok := l.s.refOf(uint64(v))
	switch {
	case !ok:
	case e.act != nil:
		return l.s.selfIndex(), true
	case e.route != "":
		return l.s.nodeIndex(e.route)
	}
	return 0, false
}

func (s *System) selfIndex() graph.ServerID {
	idx, _ := s.nodeIndex(s.Node())
	return idx
}

// exchangeScratch is what one exchange role reuses from round to round: the
// monitor snapshot it decides on and the list of local vertices. A node can
// initiate a round while it answers a peer's, so the initiator and the
// receiver each own one (System.exInit, System.exRecv). The candidates a
// round selects are views into snap, so they live no longer than the round.
type exchangeScratch struct {
	snap  partition.MonitorSnapshot
	local []graph.Vertex
}

// fill refreshes sc from the node's monitor and its live activations.
func (sc *exchangeScratch) fill(s *System) {
	s.monMu.Lock()
	s.monitor.SnapshotInto(&sc.snap)
	s.monMu.Unlock()
	sc.local = sc.local[:0]
	s.eachActivation(func(a *activation) { sc.local = append(sc.local, graph.Vertex(a.refH)) })
}

// ExchangeRound runs one initiator round of Algorithm 1 from this node:
// select candidates from the local monitor, offer them to the best peer,
// and apply the agreed moves. It returns the number of actors migrated
// (both directions counted by the respective movers).
func (s *System) ExchangeRound(opts partition.Options, window time.Duration) (int, error) {
	// One call is one statistics epoch: the monitor forgets at the caller's
	// period whether or not this round gets to trade, so edges that churn
	// removed fade instead of pinning their endpoints.
	s.monMu.Lock()
	s.monitor.Decay()
	s.monMu.Unlock()
	if s.exchangeCooling(window) {
		return 0, nil
	}
	// One initiator round at a time per node, as in the paper. The flag is
	// not a mutex because the round holds it across control calls.
	if !s.exInitBusy.CompareAndSwap(false, true) {
		return 0, nil
	}
	defer s.exInitBusy.Store(false)
	sc := &s.exInit
	sc.fill(s)
	self := s.selfIndex()
	props := partition.SelectCandidates(opts, &sc.snap, sysLocator{s: s}, self, sc.local, len(sc.local))
	for _, prop := range props {
		peerIdx := int(prop.To)
		if peerIdx < 0 || peerIdx >= len(s.peers) {
			continue
		}
		peer := s.peers[peerIdx]
		if s.PeerStateOf(peer) != PeerAlive {
			continue // never trade actors with a suspect or dead peer
		}
		wire := exchangeWire{Opts: opts, Req: partition.ExchangeRequest{
			From: self, Candidates: prop.Candidates, FromPopulation: prop.FromPopulation,
		}}
		var reply exchangeReply
		if err := s.controlCall(peer, ctlExchange, wire, &reply); err != nil {
			return 0, err
		}
		if reply.Rejected {
			continue // try the next-best peer (Algorithm 1)
		}
		moved := 0
		for _, v := range reply.Accepted {
			e, ok := s.refOf(uint64(v))
			if !ok {
				continue
			}
			if err := s.Migrate(e.ref, peer); err == nil {
				moved++
			}
		}
		moved += len(reply.Counter) // the peer migrates these toward us
		if moved > 0 {
			s.markExchanged()
			return moved, nil
		}
	}
	return 0, nil
}

// handleExchange is the receiving side of Algorithm 1 (steps 2–4).
func (s *System) handleExchange(payload []byte, from transport.NodeID) ([]byte, error) {
	var wire exchangeWire
	if err := codec.Unmarshal(payload, &wire); err != nil {
		return nil, err
	}
	if s.exchangeCooling(s.cfg.ExchangeRejectWindow) {
		return codec.Marshal(exchangeReply{Rejected: true})
	}
	if s.PeerStateOf(from) != PeerAlive {
		// An exchange proposal from a peer we distrust: accepting would ship
		// actors toward (or from) a node mid-failure. Reject; the initiator
		// retries a round later if it is actually healthy.
		return codec.Marshal(exchangeReply{Rejected: true})
	}
	req := wire.Req
	req.To = s.selfIndex()

	exchangeMu.Lock() // also guards exRecv
	sc := &s.exRecv
	sc.fill(s)
	resp := partition.DecideExchange(wire.Opts, &sc.snap, sysLocator{s: s}, req, sc.local, len(sc.local))
	exchangeMu.Unlock()

	if len(resp.Accepted)+len(resp.Counter) > 0 {
		s.markExchanged()
	}
	// Counter-migrations run asynchronously: performing them inline would
	// block the receive stage on control round trips back to the initiator.
	if len(resp.Counter) > 0 {
		counters := append([]graph.Vertex(nil), resp.Counter...)
		s.trackGo(func() {
			for _, v := range counters {
				if e, ok := s.refOf(uint64(v)); ok {
					_ = s.Migrate(e.ref, from)
				}
			}
		})
	}
	return codec.Marshal(exchangeReply(resp))
}
