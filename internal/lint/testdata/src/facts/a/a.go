// Fixture dependency for cross-package fact flow: every helper here is
// innocuous at its call site and condemned (or cleared) only by what
// its body does — the importing package (facts/b) holds the want
// comments. Exports: BlockerFact (Blocky), RetainsFact (Stash),
// DirectIOFact (SendIt). Polite is the near miss: its only send hides
// behind select+default, so it carries no fact.
package a

import (
	"time"

	"transport"
)

// Blocky sleeps: importers' turns must not call it (BlockerFact).
func Blocky() {
	time.Sleep(time.Millisecond)
}

// Stash retains its []byte parameter in a package variable
// (RetainsFact, param 0): passing a pooled buffer here aliases the
// pool's next user.
var stashed []byte

func Stash(b []byte) {
	stashed = b
}

// SendIt performs a transport send (DirectIOFact): calling it with a
// mutex held pins the lock on an unreachable peer.
func SendIt(c *transport.Conn, to transport.NodeID, env *transport.Envelope) error {
	return c.Send(to, env)
}

// Polite only sends when there is room — the select+default fast path —
// so it must NOT carry a DirectIOFact: calling it under a lock is fine.
func Polite(ch chan int, n int) bool {
	select {
	case ch <- n:
		return true
	default:
		return false
	}
}
