package transport

import (
	"bytes"
	"sync/atomic"
	"testing"

	"actop/internal/codec"
)

// appendEnvelopeLegacy is the pre-trace wire format, frozen here to pin
// compatibility in both directions.
func appendEnvelopeLegacy(dst []byte, env *Envelope) []byte {
	dst = append(dst, byte(env.Kind))
	dst = codec.AppendUvarint(dst, env.ID)
	dst = codec.AppendString(dst, string(env.From))
	dst = codec.AppendString(dst, env.ActorType)
	dst = codec.AppendString(dst, env.ActorKey)
	dst = codec.AppendString(dst, env.Method)
	dst = codec.AppendString(dst, env.Err)
	dst = codec.AppendBytes(dst, env.Payload)
	return dst
}

func sampleTrace() *Trace {
	return &Trace{
		TraceID: 0xFEEDFACE, SpanID: 12, ParentID: 3,
		RecvQueueNs: 1500, WorkQueueNs: 250, ExecNs: 98000,
		Flags: TraceFlagDedupHit, Epoch: 4,
	}
}

func TestTraceWireRoundTrip(t *testing.T) {
	env := &Envelope{
		Kind: KindReply, ID: 77, From: "127.0.0.1:9", ActorType: "player",
		ActorKey: "p1", Method: "Status", Payload: []byte("state"),
		Trace: sampleTrace(),
	}
	got, err := decodeEnvelope(appendEnvelope(nil, env), newInterner())
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil || *got.Trace != *env.Trace {
		t.Fatalf("trace = %+v, want %+v", got.Trace, env.Trace)
	}
	if got.ID != 77 || string(got.Payload) != "state" {
		t.Fatalf("envelope fields lost: %+v", got)
	}
}

// TestTraceWireUnsampledIdentical: without a trace the new encoder must be
// byte-identical to the old format — unsampled traffic pays zero bytes.
func TestTraceWireUnsampledIdentical(t *testing.T) {
	env := &Envelope{Kind: KindCall, ID: 5, From: "a", ActorType: "t", ActorKey: "k", Method: "M", Payload: []byte{9}}
	if !bytes.Equal(appendEnvelope(nil, env), appendEnvelopeLegacy(nil, env)) {
		t.Fatal("untraced encoding diverged from the legacy format")
	}
}

// TestTraceWireOldReaderNewFrame: an old decoder (which stops at the
// payload) must parse a traced frame's envelope fields untouched.
func TestTraceWireOldReaderNewFrame(t *testing.T) {
	env := &Envelope{Kind: KindCall, ID: 8, Method: "M", Payload: []byte("p"), Trace: sampleTrace()}
	frame := appendEnvelope(nil, env)
	legacy := appendEnvelopeLegacy(nil, env)
	if !bytes.Equal(frame[:len(legacy)], legacy) {
		t.Fatal("trace section is not a pure suffix of the legacy encoding")
	}
	// The current decoder ignores trailing bytes past the payload unless
	// they form a recognized section — emulating an old reader by feeding it
	// a frame with an unknown future tag.
	future := append(append([]byte(nil), legacy...), 0x7F, 1, 2, 3)
	got, err := decodeEnvelope(future, newInterner())
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != nil || got.ID != 8 || string(got.Payload) != "p" {
		t.Fatalf("unknown trailing section mishandled: %+v", got)
	}
}

// TestTraceWireNewReaderOldFrame: frames from a pre-trace peer decode with
// a nil trace.
func TestTraceWireNewReaderOldFrame(t *testing.T) {
	env := &Envelope{Kind: KindReply, ID: 6, Err: "nope"}
	got, err := decodeEnvelope(appendEnvelopeLegacy(nil, env), newInterner())
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != nil || got.Err != "nope" {
		t.Fatalf("legacy frame mishandled: %+v", got)
	}
}

// TestTraceWireTruncatedSection: a damaged trace section degrades to
// untraced instead of failing the whole frame.
func TestTraceWireTruncatedSection(t *testing.T) {
	env := &Envelope{Kind: KindCall, ID: 2, Method: "M", Trace: sampleTrace()}
	frame := appendEnvelope(nil, env)
	for cut := len(frame) - 1; cut > len(frame)-6; cut-- {
		got, err := decodeEnvelope(frame[:cut], newInterner())
		if err != nil {
			t.Fatalf("truncated section at %d errored: %v", cut, err)
		}
		if got.Trace != nil {
			t.Fatalf("truncated section at %d produced a trace: %+v", cut, got.Trace)
		}
		if got.ID != 2 || got.Method != "M" {
			t.Fatalf("envelope fields lost at cut %d: %+v", cut, got)
		}
	}
}

// TestInMemTraceDeepCopy: the in-memory transport must hand the receiver an
// independent Trace, not a pointer shared with the sender.
func TestInMemTraceDeepCopy(t *testing.T) {
	net := NewNetwork(0)
	a := net.Join("a")
	b := net.Join("b")
	defer a.Close()
	defer b.Close()
	var got atomic.Pointer[Envelope]
	b.SetHandler(func(env *Envelope) { got.Store(env) })
	sent := &Envelope{Kind: KindCall, ID: 1, Trace: sampleTrace()}
	if err := a.Send("b", sent); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() != nil }, "no delivery")
	env := got.Load()
	if env.Trace == sent.Trace {
		t.Fatal("receiver shares the sender's Trace pointer")
	}
	if *env.Trace != *sent.Trace {
		t.Fatalf("trace content diverged: %+v vs %+v", env.Trace, sent.Trace)
	}
}

// TestTCPTraceRoundTrip carries a trace over real sockets.
func TestTCPTraceRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var got atomic.Pointer[Envelope]
	b.SetHandler(func(env *Envelope) { got.Store(env) })
	want := sampleTrace()
	if err := a.Send(b.Node(), &Envelope{Kind: KindCall, ID: 4, Method: "M", Trace: want}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() != nil }, "no tcp delivery")
	if env := got.Load(); env.Trace == nil || *env.Trace != *want {
		t.Fatalf("tcp trace = %+v, want %+v", got.Load().Trace, want)
	}
}

// --- caller section ---

// appendEnvelopeTraced is the format that knew the trace section and
// nothing after it, frozen like appendEnvelopeLegacy.
func appendEnvelopeTraced(dst []byte, env *Envelope) []byte {
	cp := *env
	cp.CallerType, cp.CallerKey = "", ""
	return appendEnvelope(dst, &cp)
}

func callerEnv(tr *Trace) *Envelope {
	return &Envelope{
		Kind: KindCall, ID: 31, From: "n2", ActorType: "presence", ActorKey: "17",
		Method: "get", Payload: []byte("p"), Trace: tr,
		CallerType: "game", CallerKey: "2",
	}
}

// TestCallerWireRoundTrip: the caller survives the wire alone and together
// with a trace, and costs what the issue says (about 20 bytes, here 9).
func TestCallerWireRoundTrip(t *testing.T) {
	for _, tr := range []*Trace{nil, sampleTrace()} {
		env := callerEnv(tr)
		frame := appendEnvelope(nil, env)
		got, err := decodeEnvelope(frame, newInterner())
		if err != nil {
			t.Fatal(err)
		}
		if got.CallerType != "game" || got.CallerKey != "2" {
			t.Fatalf("caller = %q/%q", got.CallerType, got.CallerKey)
		}
		if (tr == nil) != (got.Trace == nil) || (tr != nil && *got.Trace != *tr) {
			t.Fatalf("trace = %+v, want %+v", got.Trace, tr)
		}
		if extra := len(frame) - len(appendEnvelopeTraced(nil, env)); extra != 1+1+4+1+1 {
			t.Fatalf("caller section takes %d bytes", extra)
		}
	}
}

// TestCallerWireAbsentIdentical: a frame without a caller — driver calls,
// replies, control — is byte-identical to the format before the section.
func TestCallerWireAbsentIdentical(t *testing.T) {
	plain := &Envelope{Kind: KindCall, ID: 5, From: "a", ActorType: "t", ActorKey: "k", Method: "M", Payload: []byte{9}}
	if !bytes.Equal(appendEnvelope(nil, plain), appendEnvelopeLegacy(nil, plain)) {
		t.Fatal("caller-less, untraced encoding diverged from the legacy format")
	}
	// A key without a type is no caller.
	keyOnly := *plain
	keyOnly.CallerKey = "x"
	if !bytes.Equal(appendEnvelope(nil, &keyOnly), appendEnvelopeLegacy(nil, plain)) {
		t.Fatal("a caller key without a type reached the wire")
	}
}

// TestCallerWireOldReaderNewFrame: a reader that predates the section
// parses the prefix it knows and ignores the rest, so what it keeps is what
// the new frame has as a prefix: for the pre-trace reader its whole format,
// for the pre-caller reader the trace as well — the trace section comes
// first for that reason.
func TestCallerWireOldReaderNewFrame(t *testing.T) {
	for _, tr := range []*Trace{nil, sampleTrace()} {
		env := callerEnv(tr)
		frame := appendEnvelope(nil, env)
		legacy := appendEnvelopeLegacy(nil, env)
		if !bytes.Equal(frame[:len(legacy)], legacy) {
			t.Fatal("sections are not a pure suffix of the legacy encoding")
		}
		traced := appendEnvelopeTraced(nil, env)
		if !bytes.Equal(frame[:len(traced)], traced) {
			t.Fatal("caller section is not a pure suffix of the traced encoding")
		}
	}
}

// TestCallerWireNewReaderOldFrame: frames from peers that know neither
// section, or only the trace, decode with no caller.
func TestCallerWireNewReaderOldFrame(t *testing.T) {
	env := callerEnv(sampleTrace())
	for name, frame := range map[string][]byte{
		"legacy": appendEnvelopeLegacy(nil, env),
		"traced": appendEnvelopeTraced(nil, env),
	} {
		got, err := decodeEnvelope(frame, newInterner())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.CallerType != "" || got.CallerKey != "" {
			t.Fatalf("%s frame produced a caller: %q/%q", name, got.CallerType, got.CallerKey)
		}
		if got.ID != 31 || (name == "traced") != (got.Trace != nil) {
			t.Fatalf("%s frame mishandled: %+v", name, got)
		}
	}
}

// TestCallerWireTruncatedSection: a damaged caller section reads as "no
// caller" and leaves the envelope and its trace alone.
func TestCallerWireTruncatedSection(t *testing.T) {
	env := callerEnv(sampleTrace())
	frame := appendEnvelope(nil, env)
	whole := len(appendEnvelopeTraced(nil, env))
	for cut := len(frame) - 1; cut > whole; cut-- {
		got, err := decodeEnvelope(frame[:cut], newInterner())
		if err != nil {
			t.Fatalf("truncated section at %d errored: %v", cut, err)
		}
		if got.CallerType != "" || got.CallerKey != "" {
			t.Fatalf("truncated section at %d produced a caller: %q/%q", cut, got.CallerType, got.CallerKey)
		}
		if got.ID != 31 || got.Trace == nil || *got.Trace != *env.Trace {
			t.Fatalf("envelope or trace lost at cut %d: %+v", cut, got)
		}
	}
}

// TestInMemCallerCopied: the in-memory fabric hands the caller over with
// the rest of the envelope.
func TestInMemCallerCopied(t *testing.T) {
	net := NewNetwork(0)
	a, b := net.Join("a"), net.Join("b")
	defer a.Close()
	defer b.Close()
	var got atomic.Pointer[Envelope]
	b.SetHandler(func(env *Envelope) { got.Store(env) })
	if err := a.Send("b", callerEnv(nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() != nil }, "no delivery")
	if env := got.Load(); env.CallerType != "game" || env.CallerKey != "2" {
		t.Fatalf("caller = %q/%q", env.CallerType, env.CallerKey)
	}
}
