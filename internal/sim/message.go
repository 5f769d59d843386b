package sim

import (
	"actop/internal/des"
	"actop/internal/graph"
)

// ActorID identifies a simulated actor; it doubles as the vertex id in the
// communication graph.
type ActorID = graph.Vertex

// ServerID identifies a simulated server (alias of graph.ServerID).
type ServerID = graph.ServerID

// MsgKind distinguishes the pipeline paths a message takes.
type MsgKind uint8

// Message kinds.
const (
	// KindClientRequest enters from a frontend: network → receiver → worker.
	KindClientRequest MsgKind = iota
	// KindActor is an actor→actor call: worker → [server sender → network →
	// receiver when remote] → worker.
	KindActor
	// KindClientReply exits to a frontend: client sender → network → done.
	KindClientReply
)

// Message is one message traversing the cluster.
type Message struct {
	From, To ActorID
	Kind     MsgKind
	// Type is a workload-defined tag selecting handler behavior and
	// optional per-type worker cost overrides.
	Type string
	// Payload carries workload state (opaque to the simulator).
	Payload interface{}
	// Req ties the message to the client request whose processing caused
	// it, for end-to-end latency accounting. Nil for background traffic.
	Req *Request

	// Remote records whether this actor message crossed servers (set at
	// routing time).
	Remote bool

	createdAt des.Time // when the message was produced
	enqueued  des.Time // when it entered the current stage queue
}

// Request is one external client request and its accounting.
type Request struct {
	Start des.Time

	done bool // the reply reached the client, or the request was rejected
}

// Ctx is the environment an actor handler runs in.
type Ctx struct {
	Cluster *Cluster
	Self    ActorID
	Now     des.Time
}

// Handler is an actor's application logic, invoked in the worker stage of
// the actor's current server. Side effects (Send/ReplyToClient) take effect
// when the worker finishes processing the message.
type Handler func(ctx *Ctx, msg *Message)

// Send issues an actor→actor call from the handler's actor. Local calls
// skip serialization (LPC); remote calls traverse the sender/receiver
// pipelines (RPC), exactly as Fig. 3 contrasts.
func (ctx *Ctx) Send(to ActorID, typ string, payload interface{}, req *Request) {
	ctx.Cluster.sendActorMessage(ctx.Self, to, typ, payload, req)
}

// ReplyToClient completes req's round trip through the client-sender stage
// and the network back to the frontend.
func (ctx *Ctx) ReplyToClient(req *Request) {
	ctx.Cluster.sendClientReply(ctx.Self, req)
}

// State returns the actor's workload-defined state object.
func (ctx *Ctx) State() interface{} {
	return ctx.Cluster.actorState(ctx.Self)
}
