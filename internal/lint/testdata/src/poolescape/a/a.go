// Fixture for the poolescape analyzer, importing the real codec and
// transport packages so GetBuffer/PutBuffer and Release resolve to the
// genuine pool API. Covers use-after-release, aliases that outlive a
// release, and the sanctioned ownership-transfer shapes.
package a

import (
	"actop/internal/codec"
	"actop/internal/transport"
)

type holder struct{ buf []byte }

var sink []byte

func use([]byte) {}

func useAfterRelease() byte {
	buf := codec.GetBuffer()
	buf = append(buf, 1)
	codec.PutBuffer(buf)
	return buf[0] // want `use of pooled buffer buf after codec\.PutBuffer`
}

func fieldAliasOutlivesRelease(h *holder) {
	buf := codec.GetBuffer()
	h.buf = buf // want `pooled buffer is stored in a field but is also returned to the pool`
	codec.PutBuffer(buf)
}

func globalAliasOutlivesRelease() {
	buf := codec.GetBuffer()
	sink = buf // want `pooled buffer is stored in a package-level variable but is also returned to the pool`
	codec.PutBuffer(buf)
}

func sendThenRelease(ch chan []byte) {
	buf := codec.GetBuffer()
	ch <- buf // want `pooled buffer is sent on a channel but is also returned to the pool`
	codec.PutBuffer(buf)
}

func goroutineCapture() {
	buf := codec.GetBuffer()
	go use(buf) // want `pooled buffer is captured by a spawned goroutine but is also returned to the pool`
	codec.PutBuffer(buf)
}

// ownershipTransfer is a near miss: returning the buffer hands the
// caller ownership; nothing is released here.
func ownershipTransfer() []byte {
	buf := codec.GetBuffer()
	buf = append(buf, 1)
	return buf
}

// retainWithoutRelease is a near miss: keeping a buffer out of the pool
// forever is wasteful but never dangles.
func retainWithoutRelease(h *holder) {
	buf := codec.GetBuffer()
	h.buf = buf
}

// deferredRelease is a near miss: the blessed idiom — uses precede the
// deferred PutBuffer.
func deferredRelease(v interface{}) error {
	buf, err := codec.MarshalAppend(codec.GetBuffer(), v)
	defer codec.PutBuffer(buf)
	if err != nil {
		return err
	}
	use(buf)
	return nil
}

// reacquire is a near miss: reassigning from GetBuffer re-arms the
// variable after its release.
func reacquire() byte {
	buf := codec.GetBuffer()
	codec.PutBuffer(buf)
	buf = codec.GetBuffer()
	buf = append(buf, 2)
	b := buf[0]
	codec.PutBuffer(buf)
	return b
}

// useAfterEnvelopeRelease reads the payload of an envelope it gave back.
func useAfterEnvelopeRelease(env *transport.Envelope) int {
	transport.Release(env)
	return len(env.Payload) // want `use of released envelope env after transport\.Release`
}

// payloadAliasOutlivesRelease keeps the payload of an envelope it gives
// back: Release recycles both.
func payloadAliasOutlivesRelease(h *holder, env *transport.Envelope) {
	h.buf = env.Payload // want `released envelope is stored in a field but is also returned to the pool with transport\.Release`
	transport.Release(env)
}

// detachThenRelease is a near miss: the payload moves to a local and leaves
// the envelope before the release, so only the envelope goes back.
func detachThenRelease(h *holder, env *transport.Envelope) {
	payload := env.Payload
	env.Payload = nil
	transport.Release(env)
	h.buf = payload
}
