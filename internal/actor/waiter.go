package actor

import (
	"sync"
	"time"

	"actop/internal/transport"
)

// completer receives the single outcome of one queued invocation: a
// *callWaiter when a caller on this node blocks for it, a *serverCall when
// it goes back over the wire.
type completer interface {
	complete(data []byte, val interface{}, err error)
}

// outcome is what a waiting call receives: a local turn's result (data or
// val, or err), a remote reply envelope, or the error of a failed send.
type outcome struct {
	data  []byte
	val   interface{}
	err   error
	reply *transport.Envelope
}

// callWaiter is the one blocking-call mechanism: a cap-1 outcome channel
// and a reusable deadline timer. The caller that took it from the pool owns
// it; it goes back only through await, and only when the outcome was
// consumed and the timer stopped before firing. A waiter that timed out or
// was stopped under is abandoned to the GC — its outcome may still be on
// the way, and must land in a channel nobody reuses (DESIGN.md "Call
// waiters: ownership rules").
type callWaiter struct {
	ch    chan outcome
	timer *time.Timer
	// id is the call id the owner registered the waiter under in the
	// pending-reply table; zero for a local call.
	id uint64
}

var callWaiters = sync.Pool{New: func() interface{} {
	t := time.NewTimer(time.Hour)
	t.Stop() // never fired: the channel is empty and Reset is safe
	return &callWaiter{ch: make(chan outcome, 1), timer: t}
}}

// complete hands a local turn's outcome to the waiting caller. Each
// invocation completes exactly once, so the cap-1 send never blocks.
func (w *callWaiter) complete(data []byte, val interface{}, err error) {
	w.ch <- outcome{data: data, val: val, err: err}
}

// await blocks until w's outcome arrives, d elapses (ErrTimeout) or the
// system stops (ErrStopped). Either way w is out of the caller's hands.
func (s *System) await(w *callWaiter, d time.Duration) (out outcome, err error) {
	w.timer.Reset(d)
	select {
	case out = <-w.ch:
		// Under go 1.22 timer semantics a failed Stop means the tick is
		// already in timer.C, where the next Reset would find it.
		if w.timer.Stop() {
			callWaiters.Put(w)
		}
		return out, nil
	case <-w.timer.C:
		err = ErrTimeout
	case <-s.done:
		w.timer.Stop()
		err = ErrStopped
	}
	// Unregister. Attempts of one call id are sequential, so the entry is
	// w's own, or already gone because the outcome was delivered meanwhile.
	if w.id != 0 {
		p := &s.pend[w.id&(pendShardCount-1)]
		p.mu.Lock()
		delete(p.m, w.id)
		p.mu.Unlock()
	}
	return out, err
}

// --- pending reply table (striped by call id) ---

type pendShard struct {
	mu sync.Mutex
	m  map[uint64]*callWaiter
}

// waiter takes a waiter from the pool and, for a non-zero call id,
// registers it for the reply to that id.
func (s *System) waiter(id uint64) *callWaiter {
	w := callWaiters.Get().(*callWaiter)
	if w.id = id; id != 0 {
		p := &s.pend[id&(pendShardCount-1)]
		p.mu.Lock()
		p.m[id] = w
		p.mu.Unlock()
	}
	return w
}

// pendDeliver hands out to the waiter registered under id and unregisters
// it, all under the stripe lock: a registration receives at most one
// outcome, so its channel has room, and a late or duplicate reply finds no
// entry instead of a recycled waiter.
func (s *System) pendDeliver(id uint64, out outcome) {
	p := &s.pend[id&(pendShardCount-1)]
	p.mu.Lock()
	if w := p.m[id]; w != nil {
		delete(p.m, id)
		select {
		case w.ch <- out:
		default: // unreachable while the rule above holds; never block under the lock
		}
	}
	p.mu.Unlock()
}
