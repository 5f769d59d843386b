// Package transport carries actor-runtime messages between nodes. Two
// implementations are provided: an in-memory transport for single-process
// multi-node clusters (tests, examples, simulations of deployments) and a
// TCP transport (length-prefixed binary frames; senders write, one reader
// goroutine per connection) for real distributed runs.
//
// Ownership: an Envelope handed to a Handler, with its Payload and Trace,
// is owned by the receiver and may be retained indefinitely; a receiver that
// is done with it may hand it to Release, which recycles what the TCP read
// path drew from a pool and ignores everything else. TCP's Send is
// synchronous: the frame is encoded and written when it returns, and env,
// its Payload and its Trace are never read afterwards. The in-memory fabric
// copies the envelope and its Trace but aliases the Payload straight into
// the receiver, so code that may run over either leaves a sent payload
// unmodified until the receiver is provably done with it (the runtime
// recycles a call's argument buffer only once the reply proves the turn
// ended).
package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"actop/internal/codec"
)

// NodeID names a cluster node (host:port for TCP, any label in-memory).
type NodeID string

// Kind classifies envelopes.
type Kind uint8

// Envelope kinds.
const (
	// KindCall is an actor method invocation.
	KindCall Kind = iota
	// KindReply answers a KindCall with the same ID.
	KindReply
	// KindControl carries runtime control-plane traffic (directory lookups,
	// migration, partition exchanges).
	KindControl
)

// Envelope is the wire message of the actor runtime.
type Envelope struct {
	Kind Kind
	// pooled marks what Release recycles: an envelope the TCP read path drew
	// from envPool, with a Payload from codec's buffer pool. Beside Kind it
	// costs the struct no word (160 bytes, one size class).
	pooled bool
	// ID correlates calls with replies and control requests with responses.
	ID   uint64
	From NodeID

	// ActorType/ActorKey address the target actor for calls; for control
	// messages they are repurposed by the runtime (e.g. directory subject).
	ActorType string
	ActorKey  string
	// Method is the invoked method name (calls) or control verb.
	Method string
	// Payload is the encoded argument or result (codec.Marshal's tagged
	// form for calls and replies; control verbs define their own).
	Payload []byte
	// Err carries an application or runtime error back on replies.
	Err string

	// Trace is the hop-carried trace context; nil on unsampled traffic.
	Trace *Trace

	// CallerType/CallerKey name the actor whose turn made this call, so the
	// callee's node can monitor the edge too. Empty on calls from outside
	// any actor, on replies and on control traffic.
	CallerType string
	CallerKey  string
}

var envPool = sync.Pool{New: func() interface{} { return new(Envelope) }}

// Release ends the receiver's ownership of env: an envelope decoded off a
// TCP connection goes back to its pool and its Payload to codec's, so
// neither may be touched afterwards (to keep the payload, set env.Payload
// to nil first). Any other envelope is left alone, and whatever is never
// released is simply collected.
func Release(env *Envelope) {
	if !env.pooled {
		return
	}
	codec.PutBuffer(env.Payload)
	*env = Envelope{}
	envPool.Put(env)
}

// Trace is the optional per-envelope trace context. Calls carry identity
// (TraceID, SpanID, ParentID) so the callee can attribute its work; replies
// echo the identity and ship the callee's measured components back. All
// durations cross the wire as nanosecond counts — never timestamps — so
// cross-node clock skew cannot corrupt a decomposition.
type Trace struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64

	// Reply-borne server-side duration components, in nanoseconds.
	RecvQueueNs uint64 // receive-stage queue wait
	WorkQueueNs uint64 // actor mailbox wait
	ExecNs      uint64 // handler execution

	// Reply-borne annotations.
	Flags uint64 // TraceFlag* bits
	Epoch uint64 // activation epoch that served the call
}

// TraceFlagDedupHit marks a reply served from the receiver's dedup window
// rather than by re-executing the call.
const TraceFlagDedupHit uint64 = 1 << 0

// TraceFlagSnapshot marks a reply whose turn triggered a durable snapshot
// capture (the copy under the turn lock; encode + ship happen off-path).
const TraceFlagSnapshot uint64 = 1 << 1

// clone returns an independent copy (nil-safe).
func (tr *Trace) clone() *Trace {
	if tr == nil {
		return nil
	}
	cp := *tr
	return &cp
}

// Handler consumes inbound envelopes. It runs on the transport's own
// delivery goroutine (for TCP, the connection's read loop), so it must not
// block — least of all in a Send: two nodes whose read loops both wait on a
// write to the other stop reading, and deadlock once the socket buffers
// fill. The runtime hands envelopes to its stages with non-blocking submits.
type Handler func(env *Envelope)

// Transport moves envelopes between nodes.
type Transport interface {
	// Node is this endpoint's identity.
	Node() NodeID
	// Send hands env to the given node's fabric and returns once it no
	// longer needs the envelope (the payload: see the package comment).
	// Delivery itself is asynchronous; errors surface as returned errors
	// when detectable.
	Send(to NodeID, env *Envelope) error
	// SetHandler installs the inbound envelope consumer. Must be called
	// before any traffic arrives.
	SetHandler(Handler)
	// Close releases resources.
	Close() error
}

// ErrUnknownNode is returned when sending to a node the transport cannot
// resolve (the id is not part of the fabric at all).
var ErrUnknownNode = errors.New("transport: unknown node")

// ErrUnreachable is returned when a known address cannot be dialed — the
// node exists in the membership but is transiently unreachable. Callers
// that treat ErrUnknownNode as permanent should treat ErrUnreachable as
// retryable.
var ErrUnreachable = errors.New("transport: peer unreachable")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")

// --- in-memory ---

// Network is an in-process cluster fabric: each Join returns a Transport
// endpoint; Send delivers to the peer's handler on a fresh goroutine after
// the configured latency.
type Network struct {
	mu      sync.RWMutex
	nodes   map[NodeID]*memNode
	latency time.Duration
}

// NewNetwork creates a fabric with the given one-way delivery latency
// (0 is allowed).
func NewNetwork(latency time.Duration) *Network {
	return &Network{nodes: make(map[NodeID]*memNode), latency: latency}
}

// Join adds a node and returns its endpoint. Joining an existing id
// replaces the previous endpoint.
func (n *Network) Join(id NodeID) Transport {
	m := &memNode{net: n, id: id}
	n.mu.Lock()
	n.nodes[id] = m
	n.mu.Unlock()
	return m
}

// Nodes lists joined nodes in sorted order.
func (n *Network) Nodes() []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type memNode struct {
	net *Network
	id  NodeID

	mu      sync.RWMutex
	handler Handler
	closed  bool
}

func (m *memNode) Node() NodeID { return m.id }

func (m *memNode) SetHandler(h Handler) {
	m.mu.Lock()
	m.handler = h
	m.mu.Unlock()
}

func (m *memNode) Send(to NodeID, env *Envelope) error {
	m.mu.RLock()
	closed := m.closed
	m.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	m.net.mu.RLock()
	dest, ok := m.net.nodes[to]
	latency := m.net.latency
	m.net.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	cp := *env
	cp.From = m.id
	cp.pooled = false            // the payload stays the sender's: see Release
	cp.Trace = env.Trace.clone() // receiver owns its envelope outright
	deliver := func() {
		dest.mu.RLock()
		h := dest.handler
		closed := dest.closed
		dest.mu.RUnlock()
		if h != nil && !closed {
			h(&cp)
		}
	}
	if latency > 0 {
		time.AfterFunc(latency, deliver)
	} else {
		go deliver()
	}
	return nil
}

func (m *memNode) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.net.mu.Lock()
	if m.net.nodes[m.id] == m {
		delete(m.net.nodes, m.id)
	}
	m.net.mu.Unlock()
	return nil
}
