package actor

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/codec"
	"actop/internal/durable"
	"actop/internal/flight"
	"actop/internal/hotspot"
	"actop/internal/metrics"
	"actop/internal/partition"
	"actop/internal/seda"
	"actop/internal/trace"
	"actop/internal/transport"
)

// Errors surfaced by calls.
var (
	// ErrTimeout is returned when a call's reply does not arrive in time.
	ErrTimeout = errors.New("actor: call timeout")
	// ErrUnknownType is returned when calling an unregistered actor type.
	ErrUnknownType = errors.New("actor: unknown actor type")
	// ErrOverloaded is returned when a stage queue rejects work.
	ErrOverloaded = errors.New("actor: node overloaded")
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("actor: system stopped")
	// ErrPeerDown is the retry-safe pause: a peer whose cooperation the
	// call needs — the target host, a directory owner, or a snapshot
	// replica holding a durable actor's state — is currently unreachable.
	// The runtime retries it within the call budget rather than, say,
	// resurrecting a durable actor with amnesia; callers that can wait
	// longer than one budget should classify on this and resubmit.
	ErrPeerDown = errors.New("actor: peer down")
)

// control verbs (KindControl envelopes).
const (
	ctlDirLookup   = "dir.lookup"
	ctlDirUpdate   = "dir.update"
	ctlDirRemove   = "dir.remove"
	ctlMigratePut  = "migrate.put"
	ctlMigrateDrop = "migrate.drop"
	ctlExchange    = "actop.exchange"
	ctlPing        = "actop.ping"
	ctlTraces      = "actop.traces"
	ctlSnap        = "actop.snap"
	ctlSnapGet     = "actop.snapget"
	ctlHotspots    = "actop.hotspots"
)

// errPeerDown marks a call attempt that failed because its target is (or
// just turned) suspect/dead — the retryable class of failures, alongside
// transport.ErrUnreachable.
var errPeerDown = ErrPeerDown

// errRedirectChase marks a dispatch that exhausted its redirect budget: the
// actor moved again at every hop of the chase. Retryable — each hop already
// refreshed the local cache, so the next attempt starts from the freshest
// route and the outer retry loop bounds the whole pursuit by the call
// deadline. Terminal only when the deadline runs out.
var errRedirectChase = errors.New("actor: too many redirects")

// System is one node of the distributed actor runtime.
type System struct {
	cfg   Config
	tr    transport.Transport
	peers []transport.NodeID // sorted; self unless a client

	recvStage *seda.Stage
	workStage *seda.Stage
	sendStage *seda.Stage
	// ctlStage serves inbound control verbs (directory, snapshots, pings)
	// on workers of its own. Control verbs are all local and bounded —
	// shard-lock reads and writes, never a remote call — while receive
	// workers park in synchronous cross-node lookups (a call delivery's routed
	// re-confirm). Sharing one stage livelocks under a retry storm: every
	// receive worker on each survivor parks waiting for a dir.lookup the
	// other survivor's parked workers can't serve, each wait times out,
	// every caller retries, and the cluster's control plane stays dark for
	// whole call budgets. The split also keeps heartbeats honest under
	// load — pings answered from saturated nodes stop the failure detector
	// from declaring livelocked-but-live peers dead.
	ctlStage *seda.Stage

	// mu guards only the cold-path registration state: the type registry
	// and the stopped flag. The hot-path maps live in the sharded state
	// plane below (shard.go).
	mu      sync.RWMutex
	types   map[string]Factory
	stopped bool

	// state is the lock-striped routing/directory plane: one entry per ref
	// (activation, owned directory record, tombstone, cached route), keyed
	// and sharded by ref hash so operations on distinct refs never contend
	// (see shard.go).
	state [stateShardCount]stateShard
	// nodes interns the node ids the state plane and the dedup window
	// store (shard.go), and born is the zero of their clock (System.clock).
	nodes nodeTable
	born  time.Time
	// mailboxes pools the mailboxes of activations with queued work; an
	// idle activation holds none (activation.mbox).
	mailboxes sync.Pool

	// pend is the striped pending-reply table (call id → reply channel).
	pend   [pendShardCount]pendShard
	nextID atomic.Uint64

	// Location-cache counters (atomic; mirrored to the registry and Stats).
	locHits, locMisses, locEvicts atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	monMu   sync.Mutex
	monitor *partition.Monitor
	// exchLast is when this node last took part in an exchange (Algorithm
	// 1's cooldown; see exchangeCooling). Initiator rounds and inbound
	// exchanges touch it concurrently, hence exchMu.
	exchMu   sync.Mutex
	exchLast time.Time
	// Each exchange role's reused storage (see exchangeScratch): exInit
	// belongs to the one ExchangeRound that holds exInitBusy (a round that
	// finds it set does nothing), exRecv is guarded by exchangeMu.
	exInit, exRecv exchangeScratch
	exInitBusy     atomic.Bool
	// edgeSampler picks the actor→actor messages the monitor records;
	// edgeWarm is set once it has recorded one (see sampleEdge).
	edgeSampler *trace.Sampler
	edgeWarm    atomic.Bool

	// Failure detector state (failure.go): per-peer membership records and
	// change watchers. fdOrder is taken before fdMu by whoever may change a
	// peer's state and held across the transition's side effects (see
	// peerTransition); readers of the state take fdMu alone.
	fdOrder  sync.Mutex
	fdMu     sync.Mutex
	members  map[transport.NodeID]*memberEntry
	watchers []func(transport.NodeID, PeerState)

	// Reply dedup window: recently answered remote calls, keyed by the
	// caller's (node, call id), so a retried call resends the recorded
	// reply instead of executing the turn again. Striped by caller identity
	// so concurrent deliveries from different callers never contend.
	dedupShards [dedupShardCount]dedupShard

	// done closes on Stop; background loops (heartbeats, retries, orphan
	// drops) gate on it and are tracked in bg so Stop can wait them out.
	done chan struct{}
	bg   sync.WaitGroup

	failures metrics.FailureCounters
	durables metrics.DurableCounters

	// Durability plane (durable.go): the replica store holding peers'
	// snapshots (always non-nil — this node serves as a replica whether or
	// not its own actors are durable), the background snapshotter stage, and
	// the recovery-stampede semaphore (both nil unless DurableReplicas > 0).
	snapStore   *durable.Store
	snapStage   *seda.Stage
	recoverySem chan struct{}

	// Per-peer fetch breaker for recovery pulls (durable.go): after a
	// failed snapshot fetch, further pulls treat that peer as unreachable
	// without a new round trip until a heartbeat interval has passed — one
	// receive worker pays the timeout per cooldown instead of a convoy of
	// them (an undetected-dead or starved peer would otherwise park every
	// worker that pulls a ref replicated there).
	snapProbeMu   sync.Mutex
	snapProbeFail map[transport.NodeID]time.Time

	// Tracing plane: the root-call sampling decision, the completed-span
	// ring, and (when a registry is configured) the per-method latency
	// series. sampler and spans are always non-nil; the family handles are
	// nil without a registry, costing one pointer check per call.
	sampler  *trace.Sampler
	spans    *trace.Ring
	callDur  *metrics.SummaryFamily
	callComp *metrics.SummaryFamily
	srvDur   *metrics.SummaryFamily

	// Observability plane (obs.go): the per-actor hot-spot profiler (nil
	// when disabled — one pointer check per turn), the always-on
	// flight recorder, and the SLO watcher's rolling latency window (nil
	// unless SLOTarget is set).
	prof   *hotspot.Profiler
	flight *flight.Recorder
	sloWin *metrics.ConcurrentHistogram

	// Counters (atomic; exported via Stats).
	callsLocal, callsRemote, migrationsIn, migrationsOut, redirects atomic.Uint64
}

// Sizes no test, smoke or workload varies.
const (
	// monitorCapacity sizes the per-node Space-Saving edge summary.
	monitorCapacity = 4096
	// hotspotK sizes the hot-spot sketch — roughly how many actors the
	// node tracks as candidates for the hot table.
	hotspotK = 512
	// hotspotDecay is the profiler's cost half-life: every interval, all
	// tracked costs halve, so the table reads "hot now".
	hotspotDecay = 30 * time.Second
	// flightRingSize caps the flight recorder's event ring.
	flightRingSize = 1024
	// flightDebounce is the minimum gap between anomaly dumps of the same
	// trigger kind — a storm of violations produces one black-box dump,
	// not one per violation.
	flightDebounce = 30 * time.Second
	// snapshotWorkers sizes the background snapshotter stage that encodes
	// and ships captures off the turn path.
	snapshotWorkers = 2
	// Initial receive and send pools (Stages resizes them), and the fixed
	// control pool: two, so one long verb can't delay a heartbeat behind it.
	receiverWorkers, senderWorkers, controlWorkers = 2, 2, 2
	// snapshotEvery dirty turns trigger a Durable activation's capture.
	snapshotEvery = 16
	// recoveryConcurrency bounds concurrent failover recovery pulls, so a
	// hot dead node cannot thundering-herd the surviving replicas.
	recoveryConcurrency = 8
)

// NewSystem starts a node. The transport's handler is installed here; do
// not share a transport between systems.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	peers := append([]transport.NodeID(nil), cfg.Peers...)
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	s := &System{
		cfg:         cfg,
		tr:          cfg.Transport,
		peers:       peers,
		types:       make(map[string]Factory),
		born:        time.Now(),
		rng:         rand.New(rand.NewSource(cfg.Seed ^ int64(strHash(string(cfg.Transport.Node()))))),
		monitor:     partition.NewMonitor(monitorCapacity),
		edgeSampler: trace.NewSampler(1.0 / edgeSample),
		members:     make(map[transport.NodeID]*memberEntry, len(peers)),
		done:        make(chan struct{}),
		sampler:     trace.NewSampler(cfg.TraceSampleRate),
		spans:       trace.NewRing(cfg.TraceRingSize),
		// The replica store always exists: this node stores snapshots on
		// behalf of peers even if none of its own types are durable.
		snapStore: durable.NewStore(),
	}
	s.flight = flight.NewRecorder(flightRingSize, flightDebounce)
	if !cfg.DisableHotspots {
		s.prof = hotspot.New(hotspotK)
	}
	if cfg.SLOTarget > 0 {
		s.sloWin = &metrics.ConcurrentHistogram{}
	}
	if cfg.DurableReplicas > 0 {
		s.snapStage = seda.NewStage("snapshot", 1024, snapshotWorkers)
		s.recoverySem = make(chan struct{}, recoveryConcurrency)
		s.snapProbeFail = make(map[transport.NodeID]time.Time)
	}
	s.nodes.init(peers)
	s.initShards(cfg.LocCacheSize)
	s.sampler.Seed(strHash(string(cfg.Transport.Node())))
	if cfg.Metrics != nil {
		s.callDur = cfg.Metrics.Summary("actop_call_duration_seconds",
			"actor call round-trip latency by method", "method")
		s.callComp = cfg.Metrics.Summary("actop_call_component_seconds",
			"traced call latency decomposition by method and component", "method", "component")
		s.srvDur = cfg.Metrics.Summary("actop_served_call_duration_seconds",
			"inbound call latency by method, receive to reply enqueue (callee side)", "method")
		s.registerShardMetrics()
		s.registerObsMetrics()
	}
	for _, p := range peers {
		if p != s.Node() {
			m := &memberEntry{state: PeerAlive}
			m.healthy.Store(true)
			s.members[p] = m
		}
	}
	s.recvStage = seda.NewStage("receiver", cfg.QueueCap, receiverWorkers)
	s.workStage = seda.NewStage("worker", cfg.QueueCap, cfg.Workers)
	s.sendStage = seda.NewStage("sender", cfg.QueueCap, senderWorkers)
	// Fixed-size and outside the thread controller: the control plane must
	// keep its workers precisely when every adaptive stage is starved.
	s.ctlStage = seda.NewStage("control", cfg.QueueCap, controlWorkers)
	s.tr.SetHandler(s.onEnvelope)
	for _, p := range s.peers {
		if p != s.Node() {
			s.trackGo(func() { s.heartbeatLoop(p) })
		}
	}
	if s.prof != nil || s.sloWin != nil {
		s.trackGo(s.obsLoop)
	}
	return s, nil
}

// trackGo runs fn on a tracked goroutine unless the system has stopped.
// Stop waits for every tracked goroutine, so fn must gate any waiting on
// s.done. Returns false (fn not run) after Stop.
func (s *System) trackGo(fn func()) bool {
	s.mu.RLock()
	if s.stopped {
		s.mu.RUnlock()
		return false
	}
	s.bg.Add(1)
	s.mu.RUnlock()
	go func() {
		defer s.bg.Done()
		fn()
	}()
	return true
}

// Node reports this node's id.
func (s *System) Node() transport.NodeID { return s.tr.Node() }

// Peers reports the cluster membership (sorted; a client is not in it).
func (s *System) Peers() []transport.NodeID {
	out := make([]transport.NodeID, len(s.peers))
	copy(out, s.peers)
	return out
}

// RegisterType installs the factory for an actor type. Register the same
// types on every node before traffic starts.
func (s *System) RegisterType(name string, f Factory) {
	s.mu.Lock()
	s.types[name] = f
	s.mu.Unlock()
}

// Stages exposes the SEDA stages (receive, work, send) for the thread
// controller.
func (s *System) Stages() (recv, work, send *seda.Stage) {
	return s.recvStage, s.workStage, s.sendStage
}

// Config returns a copy of the node's (filled) configuration, so attached
// controllers can honor DisableThreadControl.
func (s *System) Config() Config { return s.cfg }

// Stop shuts the node down: background loops (heartbeats, retry/cleanup
// goroutines) are signalled and awaited, stages drain, the transport
// closes.
func (s *System) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.done)
	s.tr.Close()
	s.recvStage.Close()
	s.workStage.Close()
	s.sendStage.Close()
	s.ctlStage.Close()
	if s.snapStage != nil {
		s.snapStage.Close()
	}
	s.bg.Wait()
}

// Stats is a snapshot of node counters.
type Stats struct {
	Node           transport.NodeID
	Activations    int
	CallsLocal     uint64
	CallsRemote    uint64
	MigrationsIn   uint64
	MigrationsOut  uint64
	Redirects      uint64
	MonitoredEdges int
	// GobOps counts the values this process — every node in it — has put
	// through codec's gob fallback. The runtime's own messages never do, bar
	// the traces and hotspots debug verbs, so what moves it is application
	// message types without Marshaler/Unmarshaler.
	GobOps uint64
}

// Stats snapshots the node counters.
func (s *System) Stats() Stats {
	n := s.activationsLen()
	s.monMu.Lock()
	edges := s.monitor.EdgeCount()
	s.monMu.Unlock()
	return Stats{
		Node:           s.Node(),
		Activations:    n,
		CallsLocal:     s.callsLocal.Load(),
		CallsRemote:    s.callsRemote.Load(),
		MigrationsIn:   s.migrationsIn.Load(),
		MigrationsOut:  s.migrationsOut.Load(),
		Redirects:      s.redirects.Load(),
		MonitoredEdges: edges,
		GobOps:         codec.GobOps(),
	}
}

// Call invokes an actor from outside any actor (a frontend/client call).
// This is where trace sampling is decided: a sampled call carries its trace
// context on every hop it causes.
func (s *System) Call(to Ref, method string, args, reply interface{}) error {
	return s.call(nil, to, method, args, reply)
}

// call is the shared invocation path. turn is the calling turn's context,
// nil outside any actor: an actor→actor call is monitored as a communication
// edge from turn's actor, counted on turn for that actor's hot-spot profile,
// and joins the turn's trace when the turn is itself traced.
func (s *System) call(turn *Context, to Ref, method string, args, reply interface{}) error {
	var from *Ref
	var parent *traceCtx
	if turn != nil {
		from, parent = &turn.self, turn.trc
	}
	s.mu.RLock()
	stopped := s.stopped
	_, known := s.types[to.Type]
	s.mu.RUnlock()
	if stopped {
		return ErrStopped
	}
	if !known {
		return fmt.Errorf("%w: %s", ErrUnknownType, to.Type)
	}
	if turn != nil {
		turn.callsOut.Add(1)
		if s.sampleEdge() {
			s.observeEdge(*from, to)
		}
	}
	tctx := parent
	if tctx == nil && s.sampler.Sample() {
		tctx = &traceCtx{traceID: s.sampler.ID()}
	}
	var start time.Time
	if tctx != nil || s.callDur != nil || s.sloWin != nil {
		start = time.Now()
	}
	var sp *trace.Span
	if tctx != nil {
		sp = &trace.Span{
			TraceID: tctx.traceID, SpanID: s.sampler.ID(), ParentID: tctx.parentID,
			Node: string(s.Node()), Kind: "client", Actor: to.String(), Method: method,
			Start: start,
		}
	}
	// Zero-copy local fast path: no serialization when the callee is
	// co-located and both sides opt in (ValueReceiver + codec.Copier).
	if handled, err := s.callLocalValue(sp, to, method, args, reply); handled {
		s.finishCall(sp, start, method, err)
		return err
	}
	var data []byte
	if args != nil {
		ms := start
		if sp != nil {
			ms = time.Now()
		}
		buf := codec.GetBuffer()
		var err error
		if data, err = codec.MarshalAppend(buf, args); err != nil {
			codec.PutBuffer(buf) // nothing was sent: no one else has seen it
			s.finishCall(sp, start, method, err)
			return err
		}
		if sp != nil {
			sp.Serialize = time.Since(ms)
		}
	}
	if turn != nil && data != nil {
		turn.bytesOut.Add(uint32(len(data))) // a value call, above, puts no bytes on a wire
	}
	result, err, recyclable := s.dispatchRetry(from, to, method, data, sp)
	if data != nil && recyclable {
		// The callee's turn is over (reply received, or the call was
		// rejected before delivery), so no reference to the args buffer
		// survives and it can return to the pool. When an attempt timed
		// out or was retried, a stale send may still be reading it — leak
		// it to the GC instead.
		codec.PutBuffer(data)
	}
	if err != nil {
		s.finishCall(sp, start, method, err)
		return err
	}
	var derr error
	if reply != nil {
		ms := start
		if sp != nil {
			ms = time.Now()
		}
		derr = codec.Unmarshal(result, reply)
		if sp != nil {
			sp.Serialize += time.Since(ms)
		}
	}
	if result != nil {
		codec.PutBuffer(result)
	}
	s.finishCall(sp, start, method, derr)
	return derr
}

// marshalArgs encodes call arguments (nil stays nil).
func marshalArgs(args interface{}) ([]byte, error) {
	if args == nil {
		return nil, nil
	}
	return codec.Marshal(args)
}

// callLocalValue attempts the zero-copy local call: when the callee is
// activated on this node, its actor implements ValueReceiver, and the
// arguments implement codec.Copier, the invocation performs no
// serialization at all. Isolation (§2) costs a copy only where aliasing is
// possible: a reference-free value (codec.RefFree) is handed over as it is,
// in and out; anything else is deep-copied by its CopyValue, in and out.
// handled=false falls back to the encoded path (remote callee, missing
// interfaces, or a placement race — all handled there).
func (s *System) callLocalValue(sp *trace.Span, to Ref, method string, args, reply interface{}) (bool, error) {
	copier, ok := args.(codec.Copier)
	if args != nil && !ok {
		return false, nil
	}
	act, err := s.activationFor(to, false)
	if err != nil || act == nil {
		return false, nil
	}
	if _, ok := act.actor.(ValueReceiver); !ok {
		return false, nil
	}
	// Copied only now: a remote callee's arguments are serialized instead.
	if !codec.RefFree(args) {
		args = copier.CopyValue()
	}
	s.callsLocal.Add(1)
	out, err := s.runLocal(act, invocation{method: method, argsVal: args, isVal: true}, sp, s.cfg.CallTimeout)
	switch {
	case err != nil:
		return true, err
	case reply == nil:
		return true, nil
	case out.val != nil:
		return true, codec.Assign(reply, out.val)
	case out.data != nil:
		return true, codec.Unmarshal(out.data, reply)
	}
	return true, nil
}

// runLocal queues inv on a local activation and waits up to d for its
// turn's outcome, whose error (if any) it also returns. A traced call marks sp as a "local" span and takes its
// mailbox wait and execution time from the turn timing.
func (s *System) runLocal(act *activation, inv invocation, sp *trace.Span, d time.Duration) (outcome, error) {
	if sp != nil {
		sp.Kind = "local"
		inv.trc = &turnTiming{traceID: sp.TraceID, spanID: sp.SpanID, enqueuedAt: time.Now()}
	}
	w := s.waiter(0)
	inv.done = w
	act.enqueue(inv, s)
	out, err := s.await(w, d)
	if err != nil {
		// trc stays unread: the turn may still be running and writing it.
		// The span keeps zero components and records the failure.
		if errors.Is(err, ErrTimeout) {
			err = fmt.Errorf("%w: %s.%s", err, act.ref, inv.method)
		}
		return out, err
	}
	if trc := inv.trc; trc != nil {
		sp.WorkQueue, sp.Exec, sp.Epoch, sp.Snapshot = trc.workQueue, trc.exec, trc.epoch, trc.snapshot
	}
	return out, out.err
}

// dispatchRetry is the fault-tolerant invocation driver: it runs dispatch
// attempts under the single CallTimeout budget, retrying retryable failures
// (unreachable peers, suspect/dead-node timeouts, plain timeouts — the
// reply dedup window on the callee makes re-sends safe) with capped
// exponential backoff plus jitter. The call id is fixed across attempts so
// the callee can recognize re-sends. recyclable reports whether the args
// buffer is provably unreferenced (single attempt, no timeout) and may
// return to the pool. from is the calling actor, nil outside a turn: a
// remote attempt carries it so the callee's node monitors the edge too.
func (s *System) dispatchRetry(from *Ref, to Ref, method string, args []byte, sp *trace.Span) (res []byte, err error, recyclable bool) {
	deadline := time.Now().Add(s.cfg.CallTimeout)
	callID := s.nextID.Add(1)
	backoff := s.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		start := time.Now()
		res, err = s.dispatch(from, to, method, args, 0, callID, deadline, "", sp)
		if err == nil {
			return res, nil, attempt == 0
		}
		if !retryable(err) {
			return res, err, attempt == 0 && !errors.Is(err, ErrTimeout)
		}
		if errors.Is(err, transport.ErrUnreachable) || errors.Is(err, errPeerDown) {
			// The target node itself is gone (or distrusted): the cache
			// entry that routed us there is poison, so re-resolve through
			// the directory next attempt. A plain timeout must NOT purge
			// the cache — after a migration whose directory update is
			// still in flight, the source's forwarding tombstone (mirrored
			// into caches by its redirects) is the only correct route, and
			// the directory is the staler of the two; re-resolving through
			// it would re-place the actor on a node that already handed it
			// off (split brain).
			s.cacheDel(to)
		}
		wait := s.jitter(backoff)
		if backoff < s.cfg.RetryBackoff*16 {
			backoff *= 2
		}
		if time.Since(start) > wait {
			wait = 0 // the attempt itself already waited (a timeout)
		}
		if time.Until(deadline) <= wait+time.Millisecond {
			return nil, err, false // budget exhausted
		}
		s.failures.Retries.Add(1)
		if sp != nil {
			sp.Retries++
		}
		if wait > 0 {
			backoffTimer := time.NewTimer(wait)
			select {
			case <-backoffTimer.C:
			case <-s.done:
				backoffTimer.Stop()
				return nil, ErrStopped, false
			}
		}
	}
}

// rehydrateWireErr restores sentinel identity to an error string received
// off the wire. Envelope.Err carries only text, so without this a sentinel
// raised on a remote hop arrives as an opaque error and the origin
// misclassifies it. A redirect-chase, peer-down, or timeout the remote hit
// against a dying third node is a transient — the origin's retry loop must
// keep going (the callee's dedup window keeps re-sends at-most-once), not
// surface it as terminal. Overload keeps its identity too, though it stays
// non-retryable in dispatchRetry (§6.1 load shedding: the runtime must not
// amplify a saturated node's queue with automatic retries) — identity lets
// the caller classify it and back off deliberately.
func rehydrateWireErr(msg string) error {
	for _, sentinel := range []error{errRedirectChase, errPeerDown, ErrTimeout, ErrOverloaded} {
		if pfx := sentinel.Error(); strings.HasPrefix(msg, pfx) {
			return fmt.Errorf("%w%s", sentinel, strings.TrimPrefix(msg, pfx))
		}
	}
	return errors.New(msg)
}

// retryable classifies call failures: transport-level unreachability and
// timeouts may be re-sent (the dedup window guarantees at-most-once
// execution per activation); application errors, overload rejections, and
// routing errors are returned to the caller as-is.
func retryable(err error) bool {
	return errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, errPeerDown) ||
		errors.Is(err, ErrTimeout) ||
		errors.Is(err, errRedirectChase)
}

// jitter spreads a backoff delay over [0.5d, 1.5d) so retry storms from
// many callers decorrelate.
func (s *System) jitter(d time.Duration) time.Duration {
	s.rngMu.Lock()
	f := 0.5 + s.rng.Float64()
	s.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// attemptTimeout bounds one remote attempt so a mid-call node failure can
// be retried within the budget: long enough for the detector to have an
// opinion (two heartbeat intervals), never longer than the remaining
// budget. Slow turns are not penalized — a timed-out attempt re-sends with
// the same call id, and the retry either adopts the still-running turn's
// reply or gets the deduped recorded one.
func (s *System) attemptTimeout(deadline time.Time) time.Duration {
	remaining := time.Until(deadline)
	cap := 2 * s.cfg.HeartbeatInterval
	if floor := 4 * s.cfg.RetryBackoff; cap < floor {
		cap = floor
	}
	if remaining < cap {
		return remaining
	}
	return cap
}

// dispatch routes one encoded invocation, following redirects. hint, when
// non-empty, names the next hop directly (a redirect target from the
// previous hop) and overrides local resolution: the redirecting node's
// knowledge is strictly fresher than anything held here, and re-resolving
// locally could bounce the chase back through a stale route of our own (a
// not-yet-expired forwarding tombstone from an old outbound migration
// outranks the cache, so without the hint every hop re-resolved to the
// same stale target and the chase never advanced).
func (s *System) dispatch(from *Ref, to Ref, method string, args []byte, depth int, callID uint64, deadline time.Time, hint transport.NodeID, sp *trace.Span) ([]byte, error) {
	if depth > 3 {
		return nil, fmt.Errorf("%w for %s", errRedirectChase, to)
	}
	node := hint
	if node == "" {
		var err error
		node, err = s.resolve(refHash(to), to, false, true, deadline)
		if err != nil {
			return nil, err
		}
	}
	var res []byte
	var err error
	if node == s.Node() {
		s.callsLocal.Add(1)
		res, err = s.invokeLocal(to, method, args, deadline, sp)
	} else {
		if s.PeerStateOf(node) == PeerDead {
			// Fail fast instead of waiting out a timeout against a node the
			// detector already declared dead; the retry re-resolves through
			// the (purged) directory to a live host.
			return nil, fmt.Errorf("%w: %s is dead", errPeerDown, node)
		}
		s.callsRemote.Add(1)
		res, err = s.remoteCall(node, from, to, method, args, callID, s.attemptTimeout(deadline), sp)
	}
	if err != nil {
		// A redirect continues the chase whether the hop was remote or local:
		// a hinted hop can land back on this node (the redirecting peer
		// believed the actor returned here) and invokeLocal answers with a
		// redirect of its own when it is not the host.
		var redir redirectError
		if errors.As(err, &redir) {
			s.redirects.Add(1)
			if sp != nil {
				sp.Redirects++
			}
			s.cachePut(to, redir.node)
			return s.dispatch(from, to, method, args, depth+1, callID, deadline, redir.node, sp)
		}
		if errors.Is(err, ErrTimeout) && node != s.Node() && s.PeerStateOf(node) != PeerAlive {
			return nil, fmt.Errorf("%w: %w", errPeerDown, err)
		}
		return nil, err
	}
	return res, nil
}

// invokeLocal runs the invocation on the local activation (activating on
// demand) or answers with host's redirect, synchronously from the caller's
// perspective. The wait runs to the caller's full deadline — local execution
// has no lost-message failure mode, so chunked attempts would only risk
// double-enqueueing the turn.
func (s *System) invokeLocal(to Ref, method string, args []byte, deadline time.Time, sp *trace.Span) ([]byte, error) {
	act, err := s.host(to, deadline)
	if err != nil {
		return nil, err
	}
	out, err := s.runLocal(act, invocation{method: method, args: args}, sp, time.Until(deadline))
	return out.data, err
}

// clientCall is the caller-side half of one remote call attempt on its way
// out: the envelope and the send task, built once per object. Pooled, one
// owner at a time: remoteCall fills and submits it, the send worker sends it
// and returns it to the pool. After a successful submit the caller never
// touches it again (DESIGN.md "Call waiters" rule 7); the task reports a
// failed send through the pending table, by id, and a traced attempt's queue
// wait through sendWait, a cell of the attempt's own.
type clientCall struct {
	s        *System
	node     transport.NodeID
	env      transport.Envelope
	sendWait *atomic.Int64
	sendTask func(wait time.Duration)
}

var clientCalls sync.Pool

func (c *clientCall) send(wait time.Duration) {
	if c.sendWait != nil {
		c.sendWait.Store(int64(wait))
	}
	if err := c.s.tr.Send(c.node, &c.env); err != nil {
		// Surface transport failures (ErrUnreachable on a dead peer's
		// address) instead of waiting out the timeout.
		c.s.pendDeliver(c.env.ID, outcome{err: err})
	}
	c.release()
}

func (c *clientCall) release() {
	*c = clientCall{sendTask: c.sendTask}
	clientCalls.Put(c)
}

// remoteCall performs one RPC attempt through the send stage and waits up
// to timeout for the correlated reply. The id is owned by the caller so
// retries of one logical call share it (the callee's dedup window keys on
// it); concurrent attempts cannot overlap because attempts are sequential
// within dispatchRetry. The returned payload is the caller's to recycle.
func (s *System) remoteCall(node transport.NodeID, from *Ref, to Ref, method string, args []byte, id uint64, timeout time.Duration, sp *trace.Span) ([]byte, error) {
	w := s.waiter(id)
	c, ok := clientCalls.Get().(*clientCall)
	if !ok {
		c = new(clientCall)
		c.sendTask = c.send
	}
	c.s, c.node = s, node
	c.env = transport.Envelope{
		Kind: transport.KindCall, ID: id,
		ActorType: to.Type, ActorKey: to.Key,
		Method: method, Payload: args,
	}
	if from != nil {
		c.env.CallerType, c.env.CallerKey = from.Type, from.Key
	}
	var sendWait *atomic.Int64
	if sp != nil {
		c.env.Trace = &transport.Trace{TraceID: sp.TraceID, SpanID: sp.SpanID, ParentID: sp.ParentID}
		sendWait = new(atomic.Int64)
	}
	c.sendWait = sendWait
	if s.sendStage.SubmitTimed(c.sendTask) != nil {
		c.release()
		s.pendDeliver(id, outcome{err: fmt.Errorf("%w: send queue", ErrOverloaded)})
	}
	out, err := s.await(w, timeout)
	reply := out.reply
	switch {
	case errors.Is(err, ErrTimeout):
		return nil, fmt.Errorf("%w: %s.%s @%s", err, to, method, node)
	case err != nil:
		return nil, err
	case reply == nil:
		return nil, out.err // the send (or its submit) failed
	}
	if sp != nil {
		sp.SendQueue = time.Duration(sendWait.Load())
		if rt := reply.Trace; rt != nil {
			sp.RecvQueue = time.Duration(rt.RecvQueueNs)
			sp.WorkQueue = time.Duration(rt.WorkQueueNs)
			sp.Exec = time.Duration(rt.ExecNs)
			sp.Epoch = rt.Epoch
			sp.DedupHit = rt.Flags&transport.TraceFlagDedupHit != 0
			sp.Snapshot = rt.Flags&transport.TraceFlagSnapshot != 0
		}
	}
	payload, errStr := detachReply(reply)
	if errStr != "" {
		if strings.HasPrefix(errStr, redirectPrefix) {
			return nil, redirectError{node: transport.NodeID(strings.TrimPrefix(errStr, redirectPrefix))}
		}
		return nil, rehydrateWireErr(errStr)
	}
	return payload, nil
}

// detachReply releases a reply envelope, keeping what its waiting caller
// needs: the error text and the payload, which is then the caller's own.
func detachReply(r *transport.Envelope) (payload []byte, errStr string) {
	payload, errStr = r.Payload, r.Err
	r.Payload = nil
	transport.Release(r)
	return payload, errStr
}

// onEnvelope is the transport inbound handler. Calls and control verbs
// funnel through the receive stage (deserialization/demux — Fig. 2), whose
// measured queue wait lands in a traced call's server span. Replies are
// demuxed inline on the transport goroutine: demux is non-blocking (a
// striped map lookup plus a send into the waiter's empty cap-1 channel), and
// routing replies through the stage deadlocked the receive plane whenever
// every receive worker was parked in a synchronous control call (a call
// delivery's remote directory lookup) — the replies those workers were
// waiting for sat in the queue behind them until the call timeout fired.
func (s *System) onEnvelope(env *transport.Envelope) {
	e := env
	// Any inbound envelope is proof of life for its sender: passive failure
	// detection on top of the active ping loop. Under load the active loop
	// false-positives — pings starve while real traffic still flows — and a
	// node wrongly marked dead stops being consulted for snapshot recovery
	// and directory ownership, which turns a detector hiccup into lost
	// state. Resetting on every received envelope heals the verdict at the
	// next message from the peer. (A half-partitioned peer that can send
	// but not receive reads as alive — the classic passive-detection
	// tradeoff; the active loop still degrades it once its replies stop.)
	if e.From != "" {
		s.markPeerAlive(e.From)
	}
	if e.Kind == transport.KindReply {
		s.pendDeliver(e.ID, outcome{reply: e})
		return
	}
	var err error
	from, id := e.From, e.ID // a refused call releases e before the rejection is built
	switch e.Kind {
	case transport.KindControl:
		// Control verbs ride their own stage (see ctlStage): they are the
		// dependencies the parked receive workers wait on, so they must
		// stay serviceable when the receive pool is saturated.
		err = s.ctlStage.Submit(func() { s.handleControl(e) })
	case transport.KindCall:
		c := s.newServerCall(e)
		if err = s.recvStage.SubmitTimed(c.recvTask); err != nil {
			c.release()
		}
	}
	if err != nil {
		// Receive queue full: reject calls outright (§6.1 saturation). This
		// is the connection's read loop, which must never write to a socket
		// (transport.Handler), so the rejection rides the send stage; if that
		// is full too it is dropped and the caller's attempt timeout stands
		// in for it.
		_ = s.sendStage.Submit(func() { s.reply(from, id, nil, ErrOverloaded) })
	}
}

// --- reply dedup window (at-most-once turns under call retries) ---

// dedupKey identifies one logical call: the caller's node, by its
// node-table index, plus its call id (stable across that call's retry
// attempts).
type dedupKey struct {
	id   uint64
	from nodeIdx
}

// hash spreads keys over the stripes (its top dedupShardBits) and over a
// stripe's index (the bits below those): Fibonacci hashing, so one caller's
// consecutive ids land apart.
func (k dedupKey) hash() uint64 { return (k.id ^ uint64(k.from)<<48) * 0x9e3779b97f4a7c15 }

// home is k's first probe in its stripe's index.
func (k dedupKey) home() int {
	return int(k.hash()>>(64-dedupShardBits-dedupIndexBits)) & (dedupIndexLen - 1)
}

// dedupSlot records a call's outcome, in place in its stripe's ring. While
// the turn is still running the slot is pending (done=false) and duplicate
// deliveries are simply dropped — the running turn's reply carries the same
// id the retrying caller is waiting on. Once done, duplicates are answered
// from the record. canceled marks a delivery that resolved without a turn
// (see dedupCancel); the next delivery of the key runs as if it were first.
// The key's two fields lie beside the flags, so a slot is 56 bytes.
type dedupSlot struct {
	id             uint64
	from           nodeIdx
	done, canceled bool
	errStr         string
	payload        []byte // the slot's own copy; its capacity serves the slot's next call
}

func (sl *dedupSlot) key() dedupKey { return dedupKey{id: sl.id, from: sl.from} }

// dedupWindow bounds the recorded-reply window (FIFO eviction, split
// evenly across dedupShardCount stripes). Entries must outlive one call's
// retry schedule, and a count is not a time span: a node taking ~10 K
// remote deliveries a second (the benchmark ledger's presence_remote and
// heartbeat_churn run at 9–13 K) cycles 8192 slots in under a second —
// less than one attempt timeout (2 s at the default HeartbeatInterval). A
// retry sent after an attempt timed out then finds its key evicted and runs
// the turn a second time. DESIGN.md "Retries and the reply-dedup window"
// and the ROADMAP keep the fix: entries kept for a time span.
const dedupWindow = 8192

const (
	dedupPerStripe = dedupWindow / dedupShardCount
	// A stripe's index has twice as many places as the stripe has slots:
	// at most half full, a probe is short.
	dedupIndexBits = 10
	dedupIndexLen  = 1 << dedupIndexBits
)

// dedupShard is one stripe of the window: a ring of slots (made on first
// use) whose oldest is overwritten in place, and an open-addressed index
// (linear probing) of the resident ones: each place holds a slot number
// plus one, 0 is empty, and a key is found by comparing the slot it names.
type dedupShard struct {
	mu    sync.Mutex
	slots []dedupSlot
	next  int // the slot the next new key takes
	index [dedupIndexLen]uint16
}

// dedupShardOf stripes by the key's hash: one caller's consecutive calls
// spread across stripes, and distinct callers never collide on a stripe
// systematically.
func (s *System) dedupShardOf(key dedupKey) *dedupShard {
	return &s.dedupShards[key.hash()>>(64-dedupShardBits)]
}

// lookup returns key's slot, or -1 when it is not resident (caller holds mu).
func (d *dedupShard) lookup(key dedupKey) int {
	for p := key.home(); d.index[p] != 0; p = (p + 1) & (dedupIndexLen - 1) {
		if i := int(d.index[p]) - 1; d.slots[i].key() == key {
			return i
		}
	}
	return -1
}

// insert indexes slot i, which holds key (caller holds mu).
func (d *dedupShard) insert(key dedupKey, i int) {
	p := key.home()
	for d.index[p] != 0 {
		p = (p + 1) & (dedupIndexLen - 1)
	}
	d.index[p] = uint16(i + 1)
}

// remove drops slot i, which holds key, from the index if it is there
// (caller holds mu). The places after it shift back into the hole until one
// is empty or already at its home, so no probe ever stops short of its key.
func (d *dedupShard) remove(key dedupKey, i int) {
	const mask = dedupIndexLen - 1
	p := key.home()
	for d.index[p] != uint16(i+1) {
		if d.index[p] == 0 {
			return // never indexed: the slot was unused
		}
		p = (p + 1) & mask
	}
	d.index[p] = 0
	for q := (p + 1) & mask; d.index[q] != 0; q = (q + 1) & mask {
		home := d.slots[d.index[q]-1].key().home()
		if (q-home)&mask >= (q-p)&mask { // the hole lies between q's home and q
			d.index[p], d.index[q] = d.index[q], 0
			p = q
		}
	}
}

// dedupBegin claims the dedup slot for a call delivery. It returns
// proceed=true exactly once per key while the key is resident — the
// caller must finish with dedupResolve or dedupCancel. Duplicate deliveries
// return the recorded reply (nil while the original is still executing), as
// a copy taken under the stripe lock: the slot may be reused once it is gone.
func (s *System) dedupBegin(key dedupKey) (proceed bool, prior *dedupSlot) {
	d := s.dedupShardOf(key)
	d.mu.Lock()
	defer d.mu.Unlock()
	if i := d.lookup(key); i >= 0 {
		sl := &d.slots[i]
		if sl.canceled {
			// A prior delivery answered with routing control flow, not a
			// turn; revive the slot so this delivery resolves fresh.
			sl.canceled = false
			return true, nil
		}
		if !sl.done {
			return false, nil
		}
		return false, &dedupSlot{payload: append([]byte(nil), sl.payload...), errStr: sl.errStr}
	}
	if d.slots == nil {
		d.slots = make([]dedupSlot, dedupPerStripe)
	}
	sl := &d.slots[d.next]
	d.remove(sl.key(), d.next) // the oldest resident key, once the ring has wrapped
	if cap(sl.payload) > 4<<10 {
		sl.payload = nil // not handed on: one large reply would stay pinned for good
	}
	*sl = dedupSlot{id: key.id, from: key.from, payload: sl.payload[:0]}
	d.insert(key, d.next)
	d.next = (d.next + 1) % len(d.slots)
	return true, nil
}

// dedupResolve records a call's reply so later duplicate deliveries resend
// it instead of re-executing. The payload is copied into the slot: the
// original slice is recycled by the caller once its reply round trip
// completes. A key the window has evicted meanwhile records nothing.
func (s *System) dedupResolve(key dedupKey, payload []byte, errStr string) {
	d := s.dedupShardOf(key)
	d.mu.Lock()
	if i := d.lookup(key); i >= 0 {
		sl := &d.slots[i]
		sl.done, sl.errStr = true, errStr
		sl.payload = append(sl.payload[:0], payload...)
	}
	d.mu.Unlock()
}

// dedupCancel releases a pending dedup slot whose delivery resolved
// without executing a turn (a redirect or a routing dead end). Those
// outcomes describe the routing plane at one instant, not the call: a
// retried id must re-consult routing, not replay a recorded redirect —
// recording one pins every retry of that call to a stale route for the
// rest of the window (the actor has often arrived here by then). The slot
// is marked rather than vacated so its place in the eviction order stays
// unique; dedupBegin revives it as pending on the next delivery.
func (s *System) dedupCancel(key dedupKey) {
	d := s.dedupShardOf(key)
	d.mu.Lock()
	if i := d.lookup(key); i >= 0 {
		d.slots[i].canceled = true
	}
	d.mu.Unlock()
}

// serverCall is the callee-side half of one remote call delivery: the
// request, the completer its turn reports to, and the reply envelope.
// Pooled and handed along a single chain — receive stage, the turn (or the
// routing verdict), send stage, back to the pool — with both stage tasks
// built once per object, so a delivery allocates no closure and no reply
// envelope.
type serverCall struct {
	s        *System
	env      *transport.Envelope
	key      dedupKey  // the caller's (node, call id): the dedup slot's key
	srvStart time.Time // zero unless the served-call summary is on
	// preTurn is true until the delivery is handed to an activation. What
	// is decided before that point — a redirect, a routing dead end, an
	// activation failure such as a recovery pull against a dying replica —
	// describes the routing plane at one instant, not the call: recorded, it
	// would replay a stale answer to every retry of the call id for the rest
	// of the window. Whatever a turn returned, whatever its text, is recorded.
	preTurn bool
	// Traced deliveries only: the server span, completed and published by
	// the send worker, and the turn's timing record.
	sp    *trace.Span
	trc   *turnTiming
	reply transport.Envelope

	recvTask, sendTask func(wait time.Duration)
}

var serverCalls sync.Pool

func (s *System) newServerCall(env *transport.Envelope) *serverCall {
	c, ok := serverCalls.Get().(*serverCall)
	if !ok {
		c = new(serverCall)
		c.recvTask, c.sendTask = c.handle, c.flush
	}
	c.s, c.env, c.preTurn = s, env, true
	return c
}

// handle delivers a remote invocation to the local activation, or
// redirects the caller if the actor lives elsewhere now. Deliveries are
// funneled through the dedup window so a retried call never executes a
// second turn on this node. recvWait is the envelope's receive-stage queue
// wait; a traced call builds the server span here and ships its measured
// components back on the reply as pure durations, so cross-node clock skew
// never enters the decomposition.
func (c *serverCall) handle(recvWait time.Duration) {
	s, env := c.s, c.env
	to := Ref{Type: env.ActorType, Key: env.ActorKey}
	if tr := env.Trace; tr != nil {
		c.sp = &trace.Span{
			TraceID: tr.TraceID, SpanID: tr.SpanID, ParentID: tr.ParentID,
			Node: string(s.Node()), Kind: "server", Actor: to.String(), Method: env.Method,
			Start: time.Now(), RecvQueue: recvWait,
		}
	}
	from, ok := s.intern(env.From)
	if !ok {
		// The window cannot key a caller the full node table cannot name,
		// and a turn without a slot would run again on a retry: refuse.
		c.send(nil, errNodeTableFull.Error(), 0)
		return
	}
	c.key = dedupKey{id: env.ID, from: from}
	proceed, prior := s.dedupBegin(c.key)
	if !proceed {
		s.failures.DedupHits.Add(1)
		if prior == nil {
			// Still executing: drop the duplicate; the running turn's
			// reply answers the caller's current attempt (same id).
			c.release()
			return
		}
		var flags uint64
		if c.sp != nil {
			c.sp.DedupHit = true
			flags = transport.TraceFlagDedupHit
		}
		c.send(prior.payload, prior.errStr, flags)
		return
	}
	if s.srvDur != nil {
		c.srvStart = time.Now()
	}
	act, err := s.host(to, time.Now().Add(s.cfg.CallTimeout))
	if err != nil {
		c.complete(nil, nil, err)
		return
	}
	if env.CallerType != "" && s.sampleEdge() {
		// The callee's half of edge monitoring (§4.3): this node is the
		// host, so the edge is incident to one of its actors, and the
		// caller's turn is running on env.From right now. Past the dedup
		// window, so a retried delivery is not observed twice.
		caller := Ref{Type: env.CallerType, Key: env.CallerKey}
		s.cacheHint(caller, env.From)
		s.observeEdge(caller, to)
	}
	if sp := c.sp; sp != nil {
		c.trc = &turnTiming{traceID: sp.TraceID, spanID: sp.SpanID, enqueuedAt: time.Now()}
	}
	c.preTurn = false
	act.enqueue(invocation{method: env.Method, args: env.Payload, trc: c.trc, done: c}, s)
}

// complete records the delivery's outcome in the dedup window and replies.
// It runs exactly once per delivery that passed dedupBegin, on whichever
// goroutine resolved it.
func (c *serverCall) complete(data []byte, _ interface{}, err error) {
	s := c.s
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	if s.srvDur != nil {
		s.srvDur.Observe(time.Since(c.srvStart), c.env.Method)
	}
	if c.preTurn { // no turn ran: the retry resolves afresh
		s.dedupCancel(c.key)
	} else {
		s.dedupResolve(c.key, data, errStr)
	}
	c.send(data, errStr, 0)
}

// send ships the reply envelope through the send stage (inline as a best
// effort under overload). A traced reply carries the callee's hop-timing
// record; the turn (if any) has completed, so trc's timings are ordered
// before this call by the turn's own completion.
func (c *serverCall) send(payload []byte, errStr string, flags uint64) {
	c.reply = transport.Envelope{Kind: transport.KindReply, ID: c.env.ID, Payload: payload, Err: errStr}
	if sp := c.sp; sp != nil {
		rt := &transport.Trace{
			TraceID: sp.TraceID, SpanID: sp.SpanID, ParentID: sp.ParentID,
			RecvQueueNs: uint64(sp.RecvQueue), Flags: flags,
		}
		sp.Err = errStr
		if trc := c.trc; trc != nil {
			sp.WorkQueue, sp.Exec, sp.Epoch, sp.Snapshot = trc.workQueue, trc.exec, trc.epoch, trc.snapshot
			rt.WorkQueueNs, rt.ExecNs, rt.Epoch = uint64(trc.workQueue), uint64(trc.exec), trc.epoch
			if trc.snapshot {
				rt.Flags |= transport.TraceFlagSnapshot
			}
		}
		c.reply.Trace = rt
	}
	if c.s.sendStage.SubmitTimed(c.sendTask) != nil {
		c.flush(0)
	}
}

// flush runs on a send worker: it sends the reply, completes and publishes
// the server span with the reply's own queue wait — the span is owned by
// exactly one goroutine at every point, so no turn-side write can race a
// ring reader — and returns c to the pool.
func (c *serverCall) flush(wait time.Duration) {
	_ = c.s.tr.Send(c.env.From, &c.reply)
	if sp := c.sp; sp != nil {
		sp.ReplySend = wait
		sp.Total = time.Since(sp.Start)
		c.s.spans.Put(sp)
	}
	c.release()
}

// release ends the delivery: the request envelope and its payload (the
// turn's args) go back to the transport's pools, and c to its own.
func (c *serverCall) release() {
	transport.Release(c.env)
	*c = serverCall{recvTask: c.recvTask, sendTask: c.sendTask}
	serverCalls.Put(c)
}

// reply answers request id of node `to` inline, outside the send stage:
// control verbs, and whatever the receive plane refused.
func (s *System) reply(to transport.NodeID, id uint64, payload []byte, err error) {
	r := &transport.Envelope{Kind: transport.KindReply, ID: id, Payload: payload}
	if err != nil {
		r.Err = err.Error()
	}
	_ = s.tr.Send(to, r)
}

// controlCall is a generic request/response over KindControl envelopes,
// bounded by the configured CallTimeout.
func (s *System) controlCall(node transport.NodeID, verb string, args, reply interface{}) error {
	return s.controlCallT(node, verb, args, reply, s.cfg.CallTimeout)
}

// controlCallT is controlCall with an explicit timeout (heartbeat pings and
// deadline-bounded directory lookups use shorter budgets). Nil args send an
// empty payload; a nil reply ignores the answer's payload, which for an
// acknowledgement is empty too.
func (s *System) controlCallT(node transport.NodeID, verb string, args, reply interface{}, timeout time.Duration) error {
	var data []byte
	if args != nil {
		// Room for a directory request in one allocation, not four doublings.
		var err error
		if data, err = codec.MarshalAppend(make([]byte, 0, 96), args); err != nil {
			return err
		}
	}
	out, err := s.controlRoundTrip(node, verb, data, timeout)
	if err != nil || reply == nil {
		return err
	}
	return codec.Unmarshal(out, reply)
}

// controlRoundTrip performs one control round trip with an encoded payload
// and returns the raw reply payload. A verb addressed to this node runs
// inline.
func (s *System) controlRoundTrip(node transport.NodeID, verb string, payload []byte, timeout time.Duration) ([]byte, error) {
	if node == s.Node() {
		return s.handleControlVerb(verb, payload, s.Node())
	}
	id := s.nextID.Add(1)
	w := s.waiter(id)
	env := &transport.Envelope{Kind: transport.KindControl, ID: id, Method: verb, Payload: payload}
	if err := s.tr.Send(node, env); err != nil {
		s.pendDeliver(id, outcome{err: err})
	}
	out, err := s.await(w, timeout)
	r := out.reply
	switch {
	case errors.Is(err, ErrTimeout):
		return nil, fmt.Errorf("%w: control %s @%s", err, verb, node)
	case err != nil:
		return nil, err
	case r == nil:
		return nil, out.err // the send failed
	}
	reply, errStr := detachReply(r) // the payload is kept for good: a snapshot record aliases it
	if errStr != "" {
		return nil, rehydrateWireErr(errStr)
	}
	return reply, nil
}

func (s *System) handleControl(env *transport.Envelope) {
	out, err := s.handleControlVerb(env.Method, env.Payload, env.From)
	s.reply(env.From, env.ID, out, err)
}

func (s *System) handleControlVerb(verb string, payload []byte, from transport.NodeID) ([]byte, error) {
	switch verb {
	case ctlDirLookup, ctlDirUpdate, ctlDirRemove:
		return s.handleDir(verb, payload)
	case ctlMigratePut:
		return s.handleMigratePut(payload)
	case ctlMigrateDrop:
		return s.handleMigrateDrop(payload)
	case ctlSnap:
		return s.handleSnapPut(payload)
	case ctlSnapGet:
		return s.handleSnapGet(payload)
	case ctlExchange:
		return s.handleExchange(payload, from)
	case ctlTraces:
		var traceID uint64
		if err := codec.Unmarshal(payload, &traceID); err != nil {
			return nil, err
		}
		return codec.Marshal(s.spans.ForTrace(traceID))
	case ctlHotspots:
		var n int
		if err := codec.Unmarshal(payload, &n); err != nil {
			return nil, err
		}
		return codec.Marshal(s.LocalHotspots(n))
	case ctlPing:
		// Receiving a ping is proof of life for the sender, whatever our
		// own pings to it have been doing (asymmetric partitions heal both
		// views faster this way) — and onEnvelope has taken it already, from
		// the envelope's From, as it does for every inbound message. The
		// empty acknowledgement is all the pinger needs.
		return nil, nil
	default:
		return nil, fmt.Errorf("actor: unknown control verb %q", verb)
	}
}

// observeEdge feeds the communication monitor (§4.3) with one sampled
// message. It runs on both ends of an actor→actor call — in call on the
// caller's node, in serverCall.handle on the callee's — so a vertex's home
// node sees every edge incident to it. Migration decisions map a vertex back
// to its ref through the ref's state entry (refOf): the activation at the
// home node, the cached route of the remote end.
func (s *System) observeEdge(from, to Ref) {
	fv, tv := from.Vertex(), to.Vertex()
	s.monMu.Lock()
	s.monitor.ObserveMessage(fv, tv, edgeSample)
	s.monMu.Unlock()
}

// sampleEdge decides whether the next actor→actor message is observed: one
// in edgeSample is, and counts for edgeSample. The partitioner ranks edges
// by relative weight, and a heavy edge is sampled often enough within a
// statistics epoch for that. The draw is pseudo-random per message — every
// eighth would alias with a caller walking eight callees in a loop — and
// until the node has observed one message, every message is.
func (s *System) sampleEdge() bool {
	return s.edgeSampler.Sample() || (!s.edgeWarm.Load() && s.edgeWarm.CompareAndSwap(false, true))
}

// edgeSample is the edge monitor's sampling period.
const edgeSample = 8
