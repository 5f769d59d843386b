// Package actor is a distributed virtual-actor runtime in the style of
// Orleans (§2): actors are addressed by type/key references, instantiated
// on demand on some server, invoked location-transparently (local calls
// deep-copy arguments, remote calls serialize them), and can be migrated
// between servers live — the property ActOp's partitioner exploits.
//
// Each node runs a SEDA pipeline (receive → execute → send) with resizable
// thread pools, so ActOp's thread controller (internal/core) can retune it
// from the queuing model.
package actor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/graph"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// Ref addresses a virtual actor: a type name (registered with the system)
// plus an application key. Refs are location-transparent; the runtime finds
// or creates the activation.
type Ref struct {
	Type string
	Key  string
}

// String renders "type/key".
func (r Ref) String() string { return r.Type + "/" + r.Key }

// Vertex maps the ref onto the communication-graph vertex id used by the
// partitioner: a 64-bit FNV-1a of the printable form. The mapping is
// deterministic and coordination-free across nodes, and doubles as the
// state-plane shard key (shard.go) — computed allocation-free, since it
// sits on the per-call hot path.
func (r Ref) Vertex() graph.Vertex { return graph.Vertex(refHash(r)) }

// Actor is the application-facing actor contract: a single Receive method
// dispatching on the method name with codec-encoded arguments. Activations
// are single-threaded: the runtime never calls Receive concurrently for
// one activation. args is a view into a pooled buffer the runtime recycles
// once the turn is answered: Receive must not keep it, or any slice of it,
// past its return (codec's Unmarshaler contract asks the same). The slice
// it returns must be the actor's to give away: the caller recycles it.
type Actor interface {
	Receive(ctx *Context, method string, args []byte) ([]byte, error)
}

// ValueReceiver is optionally implemented by actors that accept local
// calls as plain values, skipping serialization entirely. The runtime
// invokes ReceiveValue instead of Receive when the callee is co-located
// with the caller and the arguments implement codec.Copier (or are nil).
// args is already isolated — the runtime calls CopyValue before the turn,
// unless the value is reference-free (codec.RefFree) and so can alias
// nothing — and the returned value is isolated again before it crosses
// back (via its own CopyValue when implemented, skipped likewise for a
// reference-free value; else a serialization round trip). Remote calls and
// non-Copier arguments continue to arrive through Receive, so
// implementations must keep both paths semantically identical.
type ValueReceiver interface {
	ReceiveValue(ctx *Context, method string, args interface{}) (interface{}, error)
}

// Migratable is optionally implemented by actors whose state must survive
// migration and explicit deactivation: Snapshot is taken on the old node,
// Restore runs on the new one.
type Migratable interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// Durable is the opt-in marker for actors whose state must survive node
// death, not just migration: the runtime periodically captures their state
// off the turn path (every 16 dirty turns, or after Config.SnapshotInterval),
// ships it to Config.DurableReplicas rendezvous-chosen peers, and on failover
// re-activation restores the highest-epoch replica snapshot before
// admitting the first turn. The DurableActor method is a pure marker.
// Durability is only active when Config.DurableReplicas > 0.
//
// Actors that additionally implement codec.Copier get the cheap capture:
// the turn lock is held only for the deep copy, and the Snapshot encode
// runs on the background snapshotter stage.
type Durable interface {
	Migratable
	DurableActor()
}

// Factory creates a fresh (empty) actor instance of one type.
type Factory func() Actor

// PlacementPolicy decides where a new activation lives.
type PlacementPolicy int

// Placement policies (§3 discusses both).
const (
	// PlaceRandom places new activations uniformly at random — Orleans's
	// default; balances load, forgoes locality.
	PlaceRandom PlacementPolicy = iota
	// PlaceLocal places new activations on the node that first called them
	// — good when the callee is exclusively owned by its first caller,
	// pathological otherwise (§3).
	PlaceLocal
)

// Config configures one node of the actor system.
type Config struct {
	// Transport connects this node to its peers.
	Transport transport.Transport
	// Peers is the full static cluster membership. A node that lists
	// itself is a member: it hosts actors and owns a range of the
	// directory. A node that does not is a client (the paper's frontend):
	// it calls into the members and heartbeats them, but hosts nothing and
	// owns no directory record.
	Peers []transport.NodeID

	// Workers sizes the worker stage (default 4) and QueueCap every stage's
	// queue (default 4096). The receive and send stages start at two
	// workers; Stages exposes all three for resizing.
	Workers  int
	QueueCap int

	// CallTimeout bounds a single actor call round trip (default 5s).
	CallTimeout time.Duration

	// Placement selects the new-activation policy (default PlaceRandom).
	Placement PlacementPolicy

	// LocCacheSize bounds the node's location cache (resident routes across
	// all state shards; default 128K). Eviction is per-shard clock
	// (second-chance): hot routes survive, cold ones are recycled one at a
	// time — never a wholesale reset.
	LocCacheSize int

	// ExchangeRejectWindow is Algorithm 1's cooldown on the receiving side
	// of a partition exchange: requests arriving sooner after this node's
	// last exchange are rejected (default one minute, as in the paper).
	ExchangeRejectWindow time.Duration

	// HeartbeatInterval is the failure detector's ping period; each ping
	// must round-trip within one interval or it counts as a miss
	// (default 1s). The detector only runs on multi-node clusters.
	HeartbeatInterval time.Duration
	// SuspectAfter is the consecutive missed heartbeats before a peer is
	// marked Suspect (default 2). Suspect peers get short per-attempt call
	// timeouts and are excluded from partition exchanges.
	SuspectAfter int
	// DeadAfter is the consecutive missed heartbeats before a peer is
	// declared Dead (default 5). Death triggers failover: routing state
	// pointing at the peer is purged, its directory ranges rehash to
	// survivors, and its actors re-activate elsewhere on next call.
	DeadAfter int
	// RetryBackoff is the initial delay between call retry attempts;
	// backoff doubles per retry (with ±50% jitter) up to 16× this value,
	// always within the CallTimeout budget (default 10ms).
	RetryBackoff time.Duration

	// DurableReplicas is the number of peer replicas each Durable actor's
	// snapshots are shipped to (K in the durability protocol). Zero — the
	// default — disables durability entirely: no captures, no snapshot
	// traffic, no recovery pulls.
	DurableReplicas int
	// SnapshotInterval is the wall-clock bound on snapshot staleness: a
	// dirty Durable activation captures at its next turn once this much
	// time has passed since its last capture, even below the 16 dirty
	// turns that trigger one anyway (default 2s).
	SnapshotInterval time.Duration

	// DisableThreadControl turns off the live thread-allocation control
	// loop (§5) that core.NewOptimizer attaches to this node's stages; the
	// initial stage sizes then stay fixed.
	DisableThreadControl bool

	// TraceSampleRate is the fraction of root calls that carry a trace
	// (0 disables tracing entirely — the default; unsampled calls pay one
	// branch). Sampling is decided once at the root: nested calls inherit
	// the decision, so rates never compound across hops.
	TraceSampleRate float64
	// TraceRingSize caps the per-node ring of completed spans kept for
	// /debug/actop/traces and cluster trace assembly (default 4096).
	TraceRingSize int
	// Metrics, when set, receives the node's per-method call latency and
	// latency-component summaries (and lets embedders export them via
	// metrics.Registry.Write; TestMetricSeriesBounded in internal/core bounds
	// their series count). Nil disables registry recording.
	Metrics *metrics.Registry

	// DisableHotspots turns off the per-actor hot-spot profiler. On by
	// default: per-turn accounting batched per eight turns into a
	// bounded heavy-hitter sketch (internal/hotspot) of 512 entries.
	DisableHotspots bool
	// SLOTarget, when non-zero, arms the p99 SLO watcher: call latency
	// feeds a rolling window, and a window whose p99 exceeds the target
	// triggers a debounced flight-recorder dump. Zero (the default)
	// disables the watcher and its per-call clock reads.
	SLOTarget time.Duration

	// Seed drives placement randomness.
	Seed int64
}

func (c *Config) fill() error {
	if c.Transport == nil {
		return fmt.Errorf("actor: config needs a transport")
	}
	if len(c.Peers) == 0 {
		c.Peers = []transport.NodeID{c.Transport.Node()}
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4096
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.LocCacheSize <= 0 {
		c.LocCacheSize = 1 << 17
	}
	if c.ExchangeRejectWindow <= 0 {
		c.ExchangeRejectWindow = time.Minute
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 2 * time.Second
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 4096
	}
	return nil
}

// Context is passed to Actor.Receive; it exposes the actor's identity and
// outbound calls (which the monitor observes as communication edges). It is
// valid until Receive returns: the runtime reuses it for the next turn.
type Context struct {
	sys  *System
	self Ref
	// trc carries the executing turn's trace identity so calls made from
	// the turn join the same trace (nil when the turn is unsampled).
	trc *traceCtx
	// callsOut and bytesOut count the calls the turn made and their encoded
	// argument bytes, for the hot-spot profile; the drain moves them to the
	// activation after each turn. Atomic because a turn may call from
	// several goroutines at once.
	callsOut, bytesOut atomic.Uint32
}

var contexts = sync.Pool{New: func() interface{} { return new(Context) }}

// Self reports the receiving actor's reference.
func (c *Context) Self() Ref { return c.self }

// Node reports the hosting node.
func (c *Context) Node() transport.NodeID { return c.sys.Node() }

// Call invokes another actor and decodes the result into reply (pass nil to
// ignore results). The call blocks the current activation turn, like an
// awaited call in Orleans.
//
// Because the turn holds a worker-stage thread while waiting, size
// Config.Workers above the expected number of concurrently blocked
// outbound calls (as with any synchronous-RPC thread pool), or let ActOp's
// thread controller grow the pool from measurements. Deep synchronous
// call cycles can deadlock, exactly as in Orleans.
func (c *Context) Call(to Ref, method string, args, reply interface{}) error {
	return c.sys.call(c, to, method, args, reply)
}
