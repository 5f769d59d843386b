package transport

import (
	"bytes"
	"testing"
)

// FuzzDecodeEnvelope feeds arbitrary frames to the envelope decoder: it
// must either error or produce an envelope that re-encodes to the same
// fields — never panic, and never retain more payload than the frame
// carried.
func FuzzDecodeEnvelope(f *testing.F) {
	seedEnvs := []*Envelope{
		{Kind: KindCall, ID: 1, From: "n0", ActorType: "counter", ActorKey: "k", Method: "Add", Payload: []byte("hi")},
		{Kind: KindReply, ID: 42, Err: "boom"},
		{Kind: KindControl, ID: 7, Method: "dir.lookup", Payload: bytes.Repeat([]byte{0xAB}, 200)},
		{},
		// Traced call and reply exercise the optional trailing section.
		{Kind: KindCall, ID: 3, From: "n1", ActorType: "counter", ActorKey: "k", Method: "Add",
			Trace: &Trace{TraceID: 0xDEADBEEF, SpanID: 5, ParentID: 2}},
		{Kind: KindReply, ID: 3, Payload: []byte("ok"),
			Trace: &Trace{TraceID: 0xDEADBEEF, SpanID: 5, RecvQueueNs: 1200, WorkQueueNs: 900, ExecNs: 55000,
				Flags: TraceFlagDedupHit, Epoch: 9}},
		// Actor→actor calls carry the caller section, alone and after a trace.
		{Kind: KindCall, ID: 11, From: "n2", ActorType: "presence", ActorKey: "17", Method: "get",
			CallerType: "game", CallerKey: "2"},
		{Kind: KindCall, ID: 12, From: "n2", ActorType: "presence", ActorKey: "17", Method: "get",
			Trace:      &Trace{TraceID: 0xDEADBEEF, SpanID: 6, ParentID: 5},
			CallerType: "game", CallerKey: ""},
	}
	for _, env := range seedEnvs {
		frame := appendEnvelope(nil, env)
		f.Add(frame)
		// Truncations exercise every partial-field error path.
		for cut := 0; cut < len(frame); cut += 3 {
			f.Add(frame[:cut])
		}
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, frame []byte) {
		env, err := decodeEnvelope(frame, newInterner())
		if err != nil {
			return
		}
		if len(env.Payload) > len(frame) {
			t.Fatalf("decoded payload of %d bytes from a %d-byte frame", len(env.Payload), len(frame))
		}
		// Round trip: a successfully decoded envelope re-encodes and decodes
		// to identical fields.
		re := appendEnvelope(nil, env)
		env2, err := decodeEnvelope(re, newInterner())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if env.Kind != env2.Kind || env.ID != env2.ID || env.From != env2.From ||
			env.ActorType != env2.ActorType || env.ActorKey != env2.ActorKey ||
			env.Method != env2.Method || env.Err != env2.Err ||
			!bytes.Equal(env.Payload, env2.Payload) {
			t.Fatalf("round trip mismatch: %+v vs %+v", env, env2)
		}
		if env.CallerType != env2.CallerType || env.CallerKey != env2.CallerKey {
			t.Fatalf("caller round trip mismatch: %q/%q vs %q/%q", env.CallerType, env.CallerKey, env2.CallerType, env2.CallerKey)
		}
		if (env.Trace == nil) != (env2.Trace == nil) ||
			(env.Trace != nil && *env.Trace != *env2.Trace) {
			t.Fatalf("trace round trip mismatch: %+v vs %+v", env.Trace, env2.Trace)
		}
	})
}
