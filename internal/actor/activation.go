package actor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/codec"
	"actop/internal/flight"
	"actop/internal/hotspot"
)

// invocation is one queued actor method call with its completer. Exactly
// one of args/argsVal is meaningful: byte invocations (remote calls,
// gob-fallback local calls) carry encoded args; value invocations (the
// zero-copy local fast path) carry an already-isolated value and require the
// actor to implement ValueReceiver. done receives either encoded data or a
// value result, mirroring the path the turn actually took (a value
// invocation that races with a migration is forwarded as bytes), once.
type invocation struct {
	method  string
	args    []byte
	argsVal interface{}
	isVal   bool
	done    completer
	// trc, when non-nil, marks a traced invocation: the worker records the
	// mailbox wait and execution time into it before done completes, and
	// the turn's Context inherits its trace identity.
	trc *turnTiming
	// at is the enqueue instant, set only when the hot-spot profiler is on:
	// the drain loop charges the mailbox wait (drain start minus at) to the
	// actor's profile.
	at time.Time
}

// activation is one live actor instance with a turn-based mailbox: the
// runtime executes at most one Receive at a time per activation, scheduling
// turns on the node's worker stage.
type activation struct {
	ref   Ref
	actor Actor
	// refH caches refHash(ref) so folding the profile never re-hashes the
	// ref strings. Immutable.
	refH uint64
	// epoch counts this incarnation's position in the actor's migration
	// chain (0 for a fresh placement, +1 per transfer). It rides along in
	// directory updates so a delayed/retried update from an older migration
	// can never overwrite the directory state of a newer one. Immutable
	// after the activation is published.
	epoch uint64
	// ext holds what only a durable activation or a migration install
	// uses; nil for the rest, which is most of a node's activations.
	// Immutable after the activation is published (its fields are not).
	ext *activationExt

	// turnMu is held for the duration of each Receive; Migrate acquires it
	// to guarantee no turn is in flight while the state is snapshotted.
	turnMu sync.Mutex

	// mbox is the mailbox while it holds invocations, nil while the
	// activation is idle: the drain that empties it returns it to the
	// node's pool and the next enqueue takes one (getMailbox, putMailbox),
	// so a node of mostly idle activations keeps no queue arrays.
	mu        sync.Mutex
	mbox      *mailbox
	scheduled bool
	// forwarded, when set, means the activation migrated away; enqueued
	// invocations are re-routed to the new host.
	forwarded bool
	// profEnq counts enqueues for mailbox-wait sampling (guarded by mu;
	// only its low bits are read, so it may wrap).
	profEnq uint8

	// The pending profile: what this activation's turns have done since the
	// hot-spot sketch last heard of it (see takeProfile), guarded by turnMu.
	// profTurns is at most profSample and the byte counts cover as many
	// turns, so 32 bits hold them; profWaitNs saturates. profSeq counts
	// turns to pick the ones that fold (it may wrap). Sized to fit where
	// two 64-bit sampling counters were: an activation is no larger for it.
	profTurns    uint8
	profCallsOut uint32
	profSeq      uint32
	profWaitNs   uint32
	profBytesIn  uint32
	profBytesOut uint32
	// drainTask is the worker-stage task draining this mailbox, built on
	// first schedule; schedulers are ordered through mu (scheduled).
	drainTask func()
}

// activationExt is the part of an activation that only a durable type or a
// migration install uses, allocated only for one of them.
type activationExt struct {
	// installID, when non-empty, names the migration transfer that created
	// this activation; ID-matched drops (failed-transfer cleanup) may only
	// remove the install they were issued against. Immutable.
	installID string

	// Durability plane (guarded by turnMu, like the turns that drive it).
	// durable marks an activation whose type opted in via the Durable
	// marker while the node runs with DurableReplicas > 0. dirty counts
	// turns since the last capture, snapSeq the captures of this
	// incarnation (piggybacked across migrations), lastSnap the wall-clock
	// of the last capture. shipped, written off the lock by capture jobs, is
	// the low half of the last snapSeq whose job has finished.
	durable  bool
	shipped  atomic.Uint32
	dirty    int
	snapSeq  uint64
	lastSnap time.Time
}

// newActivation builds the activation of inst for ref (whose hash is h).
// installID names the migration transfer installing it ("" for a fresh
// placement) and snapSeq the captures its earlier incarnations made.
func (s *System) newActivation(ref Ref, h uint64, inst Actor, installID string, epoch, snapSeq uint64) *activation {
	a := &activation{ref: ref, refH: h, actor: inst, epoch: epoch}
	if durable := s.isDurable(inst); durable || installID != "" {
		a.ext = &activationExt{installID: installID, durable: durable, snapSeq: snapSeq, lastSnap: time.Now()}
	}
	return a
}

// installID names the migration transfer that created a ("" when none did).
func (a *activation) installID() string {
	if a.ext == nil {
		return ""
	}
	return a.ext.installID
}

// durable reports whether a's state is captured to replicas.
func (a *activation) durable() bool { return a.ext != nil && a.ext.durable }

// snapSeq is the number of captures a's incarnations have made.
func (a *activation) snapSeq() uint64 {
	if a.ext == nil {
		return 0
	}
	return a.ext.snapSeq
}

// mailbox is a head-indexed queue of invocations. Drains pop q[head] and
// advance head instead of re-slicing, so the array is reused while the
// mailbox lives, and across activations through the node's pool.
type mailbox struct {
	q    []invocation
	head int
}

// getMailbox takes an empty mailbox from the node's pool (caller holds the
// activation's mu).
func (s *System) getMailbox() *mailbox {
	if m, ok := s.mailboxes.Get().(*mailbox); ok {
		return m
	}
	return new(mailbox)
}

// putMailbox returns an empty mailbox to the node's pool (caller holds the
// activation's mu, and the activation no longer points at m). Every popped
// slot was zeroed, so the array holds no references; an array grown past
// mailboxRetainCap was a burst and goes back to the GC instead.
func (s *System) putMailbox(m *mailbox) {
	if cap(m.q) > mailboxRetainCap {
		m.q = nil
	}
	m.q, m.head = m.q[:0], 0
	s.mailboxes.Put(m)
}

// profSample is the profiler's batch size and timing sample rate (power of
// two): an activation's profile reaches the hot-spot sketch once per
// profSample turns, the turn that folds it is the one whose execution is
// timed, and one enqueue in profSample is stamped for mailbox wait; the
// measurements scale back up to the turns they stand for. Turn, call and
// byte counts stay exact — only the clock reads, the expensive part (~75ns
// each on a vDSO-less guest), are sampled.
const profSample = 8

// turnBatch bounds invocations processed per worker-stage task so one hot
// actor cannot starve the stage.
const turnBatch = 16

// mailboxRetainCap bounds the capacity of a mailbox array the pool keeps;
// anything larger was a burst and goes back to the GC.
const mailboxRetainCap = 64

// takePending removes and returns every queued invocation (caller holds
// a.mu). The mailbox goes with them — the caller reads them off the lock —
// and the activation is left with none.
func (a *activation) takePending() []invocation {
	m := a.mbox
	if m == nil {
		return nil
	}
	a.mbox = nil
	return m.q[m.head:]
}

// pop removes the next invocation (caller holds a.mu; queue non-empty). The
// pop that empties the mailbox returns it to the node's pool.
func (a *activation) pop(s *System) invocation {
	m := a.mbox
	inv := m.q[m.head]
	m.q[m.head] = invocation{} // release args/closure references now
	m.head++
	if m.head == len(m.q) {
		a.mbox = nil
		s.putMailbox(m)
	}
	return inv
}

func (a *activation) queueLen() int {
	if a.mbox == nil {
		return 0
	}
	return len(a.mbox.q) - a.mbox.head
}

// enqueue adds an invocation and schedules a drain turn if none is pending.
func (a *activation) enqueue(inv invocation, s *System) {
	a.mu.Lock()
	if a.forwarded {
		a.mu.Unlock()
		s.forwardInvocation(a.ref, inv)
		return
	}
	if s.prof != nil {
		// Mailbox-wait sampling: stamp one enqueue in profSample; the drain
		// loop scales the measured wait back up. An unsampled invocation
		// keeps at zero and costs this path nothing but the counter.
		a.profEnq++
		if a.profEnq&(profSample-1) == 0 {
			inv.at = time.Now()
		}
	}
	if a.mbox == nil {
		a.mbox = s.getMailbox()
	}
	a.mbox.q = append(a.mbox.q, inv)
	need := !a.scheduled
	if need {
		a.scheduled = true
	}
	a.mu.Unlock()
	if need {
		a.schedule(s)
	}
}

func (a *activation) schedule(s *System) {
	if a.drainTask == nil {
		a.drainTask = func() { a.drain(s) }
	}
	if err := s.workStage.Submit(a.drainTask); err != nil {
		// Worker queue full: fail the queued invocations (backpressure).
		a.mu.Lock()
		pending := a.takePending()
		a.scheduled = false
		a.mu.Unlock()
		for _, inv := range pending {
			inv.done.complete(nil, nil, fmt.Errorf("%w: worker queue", ErrOverloaded))
		}
	}
}

// drain processes up to turnBatch invocations, then reschedules itself if
// more arrived.
//
// Profiler accounting is batched and sampled: per-turn figures accumulate
// in the activation's pending profile and fold into the hot-spot sketch on
// every profSample-th turn — however the turns fall into drains, and a
// synchronous call tree leaves one per drain — and on the activation's
// first, so that every actor that ran here is visible to the sketch. The
// folding turn is the one that reads the clock, so the other turns add a
// few counter bumps, no clock reads, no lock and no allocations.
func (a *activation) drain(s *System) {
	pf := s.prof
	// One pooled Context serves the batch: serial turns differ only in trace identity.
	ctx := contexts.Get().(*Context)
	ctx.sys, ctx.self = s, a.ref
	defer func() { *ctx = Context{}; contexts.Put(ctx) }()
	for i := 0; i < turnBatch; i++ {
		a.mu.Lock()
		if a.queueLen() == 0 || a.forwarded {
			a.scheduled = false
			rerouted := a.forwarded
			var pending []invocation
			if rerouted {
				pending = a.takePending()
			}
			a.mu.Unlock()
			for _, inv := range pending {
				s.forwardInvocation(a.ref, inv)
			}
			return
		}
		inv := a.pop(s)
		a.mu.Unlock()

		a.turnMu.Lock()
		// A migration may have retired this activation while we waited for
		// the turn lock (Migrate holds it during the state snapshot); the
		// dequeued invocation must chase the actor, not run on the stale
		// instance.
		a.mu.Lock()
		rerouted := a.forwarded
		a.mu.Unlock()
		if rerouted {
			a.turnMu.Unlock()
			s.forwardInvocation(a.ref, inv)
			continue
		}
		var folds bool
		if pf != nil {
			a.profTurns++
			a.profBytesIn += uint32(len(inv.args))
			a.profSeq++
			folds = a.profSeq&(profSample-1) == 0 || a.profSeq == 1
		}
		var tstart time.Time
		timed := inv.trc != nil || folds
		if timed {
			tstart = time.Now()
		}
		ctx.trc = nil
		if inv.trc != nil {
			inv.trc.workQueue = tstart.Sub(inv.trc.enqueuedAt)
			ctx.trc = inv.trc.ctx()
		}
		if pf != nil && !inv.at.IsZero() {
			now := tstart
			if !timed {
				now = time.Now()
			}
			a.profWaitNs = uint32(min(uint64(a.profWaitNs)+uint64(now.Sub(inv.at)), math.MaxUint32))
		}
		data, val, err, panicked := a.invoke(ctx, inv)
		var d time.Duration
		if timed {
			d = time.Since(tstart)
			if inv.trc != nil {
				inv.trc.exec = d
				inv.trc.epoch = a.epoch
			}
		}
		var batch hotspot.Stats
		if pf != nil {
			if n := ctx.callsOut.Load(); n != 0 {
				a.profCallsOut += n
				a.profBytesOut += ctx.bytesOut.Load()
				ctx.callsOut.Store(0)
				ctx.bytesOut.Store(0)
			}
			if folds || panicked {
				batch = a.takeProfile(d) // a panicked instance is retired below: nothing stays pending
			}
		}
		var snapJob func()
		if x := a.ext; x != nil && x.durable && !panicked {
			// Durability hook, still under the turn lock: count the dirty
			// turn and, past the dirty-count or staleness threshold, capture
			// the state (one deep copy — encode and ship run on the
			// snapshotter stage, never here).
			x.dirty++
			if x.dirty >= snapshotEvery || time.Since(x.lastSnap) >= s.cfg.SnapshotInterval {
				if snapJob = s.captureSnapshotLocked(a); snapJob != nil && inv.trc != nil {
					inv.trc.snapshot = true
				}
			}
		}
		a.turnMu.Unlock()
		if panicked {
			// Panic isolation: the instance may hold corrupt state, so
			// retire it (the caller gets an error reply, not a dead node;
			// the next call re-activates a fresh instance).
			s.isolatePanic(a)
		}
		if batch.Turns > 0 {
			// Before the reply: whoever has seen this turn's result finds
			// the turn in the sketch.
			pf.Observe(a.refH, a.ref.Type, a.ref.Key, batch)
		}
		inv.done.complete(data, val, err)
		if snapJob != nil {
			// Hand the captured state to the snapshotter stage after the
			// reply is on its way. A full (or closed) queue drops the capture
			// (counted); the next dirty turn re-triggers, and full-state
			// snapshots make the skipped one subsumed, not lost.
			if s.snapStage.Submit(snapJob) != nil {
				s.durables.CaptureDropped.Add(1)
			}
		}
	}
	// Batch exhausted: yield the worker and reschedule.
	a.mu.Lock()
	if a.queueLen() == 0 && !a.forwarded {
		a.scheduled = false
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	a.schedule(s)
}

// takeProfile empties the pending profile into the batch the sketch is to
// be told of (caller holds turnMu). exec is the measured execution time of
// one of the batch's turns — the folding one — and stands for them all; zero
// when none was timed (the remainder of a retiring activation). A stamped
// mailbox wait stands for profSample enqueues.
func (a *activation) takeProfile(exec time.Duration) hotspot.Stats {
	turns := uint64(a.profTurns)
	batch := hotspot.Stats{
		Turns:    turns,
		ExecNs:   uint64(exec) * turns,
		WaitNs:   uint64(a.profWaitNs) * profSample,
		CallsOut: uint64(a.profCallsOut),
		BytesIn:  uint64(a.profBytesIn),
		BytesOut: uint64(a.profBytesOut),
	}
	a.profTurns, a.profWaitNs, a.profCallsOut, a.profBytesIn, a.profBytesOut = 0, 0, 0, 0, 0
	return batch
}

// foldRemainder tells the sketch of the turns a retiring activation has not
// yet folded, so that its counts stay exact across a migration or a
// deactivation. Caller holds turnMu, which orders it after the last turn's
// accounting.
func (a *activation) foldRemainder(pf *hotspot.Profiler) {
	if batch := a.takeProfile(0); batch.Turns > 0 {
		pf.Observe(a.refH, a.ref.Type, a.ref.Key, batch)
	}
}

// invoke executes one turn against the actor instance, with the panicking
// method recovered into an error result (panicked=true) instead of taking
// the whole node down. Called with turnMu held.
func (a *activation) invoke(ctx *Context, inv invocation) (data []byte, val interface{}, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			data, val = nil, nil
			err = fmt.Errorf("actor: panic in %s.%s: %v", a.ref, inv.method, r)
			panicked = true
		}
	}()
	if inv.isVal {
		// Zero-copy local turn: args were isolated by the caller (see
		// callLocalValue); the result is isolated here, inside the turn,
		// before the actor can mutate it again — by CopyValue, unless it
		// is reference-free and so already out of the actor's reach.
		val, err = a.actor.(ValueReceiver).ReceiveValue(ctx, inv.method, inv.argsVal)
		if err == nil && val != nil {
			if c, ok := val.(codec.Copier); ok {
				if !codec.RefFree(val) {
					val = c.CopyValue()
				}
			} else {
				// No Copier on the result: fall back to serialization
				// for isolation (decoded by the caller).
				data, err = codec.Marshal(val)
				val = nil
			}
		}
		return data, val, err, false
	}
	data, err = a.actor.Receive(ctx, inv.method, inv.args)
	return data, nil, err, false
}

// isolatePanic retires an activation whose method panicked. The faulty
// instance is dropped (not snapshotted — its state is suspect), queued
// invocations re-route, and the directory still points here, so the next
// call builds a fresh instance from the factory.
func (s *System) isolatePanic(a *activation) {
	s.failures.Panics.Add(1)
	// A panic is both a flight event and an anomaly trigger: the dump
	// captures what the runtime was doing when the actor blew up.
	s.flight.Trigger(flight.KindPanic, a.ref.String())
	s.retire(a, false)
}

// activationFor returns the local activation for ref, creating it on demand
// when this node is (or becomes) the registered host. It returns (nil, nil)
// when the actor is hosted elsewhere — the caller redirects. routed
// distinguishes how we got here, and resolve's routed rules say why it
// matters. Unrouted probes (the zero-copy fast path asking "is it
// co-located?") keep the cheap cache answer: the cache never holds
// self-routes (setRoute), so it cannot trigger a spurious local activation —
// at worst the probe declines and the call takes the routed path.
func (s *System) activationFor(ref Ref, routed bool) (*activation, error) {
	h := refHash(ref)
	if act := s.localActivation(h, ref); act != nil {
		return act, nil
	}
	s.mu.RLock()
	factory, typeOK := s.types[ref.Type]
	s.mu.RUnlock()
	if !typeOK {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, ref.Type)
	}
	node, err := s.resolve(h, ref, routed, true, time.Now().Add(s.cfg.CallTimeout))
	if err != nil {
		return nil, err
	}
	if node != s.Node() {
		return nil, nil
	}
	// We are the host: instantiate (actor virtualization — §2).
	inst := factory()
	act := s.newActivation(ref, h, inst, "", 0, 0)
	if act.durable() {
		// Recovery gate: a Durable actor activating here may be a failover
		// re-activation of state that died with its old host. Consult the
		// replica set BEFORE admitting the first turn — the pull happens
		// outside every lock, and an unreachable replica set fails the
		// activation (callers see a retryable pause, not amnesia).
		rec, rerr := s.recoverSnapshot(ref)
		if rerr != nil {
			return nil, rerr
		}
		if rec != nil {
			if err := inst.(Migratable).Restore(rec.State); err != nil {
				return nil, fmt.Errorf("actor: restore %s from replica snapshot: %w", ref, err)
			}
			// The recovered incarnation sits one epoch past the one that
			// captured, so its own snapshots (and directory updates)
			// outrank every resident replica copy — the failover-purge
			// analog of migration's transfer-as-commit epoch roll.
			act.epoch = rec.Epoch + 1
		}
	}
	// The double-checked install is one entry under one shard lock.
	sh := s.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entry(h, ref)
	if e.act != nil {
		return e.act, nil
	}
	// The resolution above is only as fresh as its reads: if it named this
	// node because the actor was active here, and the actor has migrated out
	// since, installing now would fork a second incarnation beside the one
	// that left. The tombstone that migration recorded is the newer fact.
	if s.liveFwd(&e) {
		return nil, nil
	}
	// Any leftover tombstone is obsolete the moment a live activation
	// exists here: the chain came back around.
	e.act, e.fwd = act, 0
	sh.set(h, e)
	return act, nil
}

// retire takes a out of service if it is still its ref's live activation
// here: the entry drops it (and the cached route, unless keepRoute), and
// the invocations queued on it re-route. It reports whether it did.
func (s *System) retire(a *activation, keepRoute bool) bool {
	sh := s.shard(a.refH)
	sh.mu.Lock()
	e := sh.entry(a.refH, a.ref)
	if e.act != a {
		sh.mu.Unlock()
		return false
	}
	e.act = nil
	if !keepRoute {
		e.route = 0
	}
	sh.set(a.refH, e)
	sh.mu.Unlock()
	a.mu.Lock()
	a.forwarded = true
	pending := a.takePending()
	a.mu.Unlock()
	for _, inv := range pending {
		s.forwardInvocation(a.ref, inv)
	}
	return true
}

// localActivation returns ref's live activation on this node, or nil.
func (s *System) localActivation(h uint64, ref Ref) *activation {
	sh := s.shard(h)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.get(h, ref).act
}

// forwardInvocation re-routes an invocation that raced with a migration or
// a panic-retirement. Value invocations are serialized at this point: the
// actor moved to another node (or is moving), so the zero-copy path no
// longer applies. The forwarding goroutine is tracked so Stop can wait it
// out; after Stop the invocation fails with ErrStopped instead.
func (s *System) forwardInvocation(ref Ref, inv invocation) {
	run := func() {
		// A copy: the lender of inv.args (a request's pooled payload, a local
		// caller's buffer) takes it back when the invocation completes, while
		// a send task of an attempt that timed out below may still hold it.
		args := append([]byte(nil), inv.args...)
		if inv.isVal {
			var err error
			if args, err = marshalArgs(inv.argsVal); err != nil {
				inv.done.complete(nil, nil, err)
				return
			}
		}
		data, err, _ := s.dispatchRetry(nil, ref, inv.method, args, nil)
		inv.done.complete(data, nil, err)
	}
	if !s.trackGo(run) {
		inv.done.complete(nil, nil, ErrStopped)
	}
}

// LocalRefs lists the refs of actors activated on this node.
func (s *System) LocalRefs() []Ref {
	acts := s.activations()
	out := make([]Ref, len(acts))
	for i, a := range acts {
		out[i] = a.ref
	}
	return out
}

// HostsActor reports whether this node currently hosts ref.
func (s *System) HostsActor(ref Ref) bool { return s.localActivation(refHash(ref), ref) != nil }

// Deactivate removes a local activation and unregisters it from the
// directory (the next call re-instantiates it somewhere per policy).
func (s *System) Deactivate(ref Ref) error {
	act := s.localActivation(refHash(ref), ref)
	if act == nil || !s.retire(act, false) {
		return fmt.Errorf("actor: %s not active here", ref)
	}
	if s.prof != nil {
		act.turnMu.Lock() // waits out a turn in flight
		act.foldRemainder(s.prof)
		act.turnMu.Unlock()
	}
	s.monMu.Lock()
	s.monitor.ForgetVertex(ref.Vertex())
	s.monMu.Unlock()
	return s.controlCall(s.directoryOwner(ref), ctlDirRemove,
		dirRequest{Type: ref.Type, Key: ref.Key}, nil)
}
