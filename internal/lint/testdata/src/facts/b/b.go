// Fixture for cross-package fact consumption: facts/a exported the
// facts; every violation here is a call that looks innocent and is
// condemned only by the callee's imported summary. Each positive has a
// local near miss proving the fact is what fires, not the call shape.
package b

import (
	"sync"

	"actop/internal/codec"
	"facts/a"

	"actor"
	"transport"
)

type node struct {
	mu   sync.Mutex
	conn *transport.Conn
	ch   chan int
}

// Receive is a turn: calling a.Blocky synchronously blocks the worker
// stage, which only a's BlockerFact can reveal.
func (n *node) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	a.Blocky()    // want `a\.Blocky blocks in actor turn \(node\)\.Receive: time\.Sleep`
	go a.Blocky() // near miss: off-turn
	return nil, nil
}

// stashPooled releases a pooled buffer it also leaked into a.Stash —
// the RetainsFact escape.
func stashPooled(v interface{}) {
	buf := codec.GetBuffer()
	a.Stash(buf) // want `pooled buffer is passed to Stash, which retains it, but is also returned to the pool`
	codec.PutBuffer(buf)
}

// handPooled transfers ownership without releasing: near miss (the
// callee retains it, but nobody puts it back).
func handPooled() {
	buf := codec.GetBuffer()
	a.Stash(buf)
}

// notifyLocked sends on the transport one hop away while holding the
// mutex — only a.SendIt's DirectIOFact sees the send.
func (n *node) notifyLocked(to transport.NodeID, env *transport.Envelope) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return a.SendIt(n.conn, to, env) // want `call to a\.SendIt while n\.mu is held; it sends on the transport`
}

// politeLocked calls the select+default helper under the same lock:
// near miss — the callee cannot block, so no fact, no finding.
func (n *node) politeLocked(v int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return a.Polite(n.ch, v)
}
