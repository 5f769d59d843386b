package transport

import (
	"fmt"

	"actop/internal/codec"
)

// Hand-rolled binary envelope encoding for the TCP transport: the envelope
// scaffolding (kind, id, addressing strings) is written field by field with
// varint/length-prefixed primitives — no reflection, no per-message type
// descriptors — and the payload rides along as opaque bytes. One envelope
// per codec frame.
//
// Wire compatibility: the trace context and the caller's identity are
// optional tagged sections after the payload, in that order. A decoder that
// predates a section stops at the first tag it does not know and ignores the
// rest, and this decoder treats an absent, unrecognized or damaged section
// as unset — so nodes with and without either section interoperate in both
// directions (a pre-caller reader still finds the trace, which comes
// first), and a frame that carries neither is byte-identical to the
// original format.

const (
	// traceSectionV1 tags the version-1 trace section.
	traceSectionV1 = 0x01
	// callerSectionV1 tags the caller section: the ref of the actor whose
	// turn made the call, as two strings.
	callerSectionV1 = 0x02
)

// appendEnvelope appends env's wire encoding to dst.
func appendEnvelope(dst []byte, env *Envelope) []byte {
	dst = append(dst, byte(env.Kind))
	dst = codec.AppendUvarint(dst, env.ID)
	dst = codec.AppendString(dst, string(env.From))
	dst = codec.AppendString(dst, env.ActorType)
	dst = codec.AppendString(dst, env.ActorKey)
	dst = codec.AppendString(dst, env.Method)
	dst = codec.AppendString(dst, env.Err)
	dst = codec.AppendBytes(dst, env.Payload)
	if tr := env.Trace; tr != nil {
		dst = append(dst, traceSectionV1)
		dst = codec.AppendUvarint(dst, tr.TraceID)
		dst = codec.AppendUvarint(dst, tr.SpanID)
		dst = codec.AppendUvarint(dst, tr.ParentID)
		dst = codec.AppendUvarint(dst, tr.RecvQueueNs)
		dst = codec.AppendUvarint(dst, tr.WorkQueueNs)
		dst = codec.AppendUvarint(dst, tr.ExecNs)
		dst = codec.AppendUvarint(dst, tr.Flags)
		dst = codec.AppendUvarint(dst, tr.Epoch)
	}
	if env.CallerType != "" {
		dst = append(dst, callerSectionV1)
		dst = codec.AppendString(dst, env.CallerType)
		dst = codec.AppendString(dst, env.CallerKey)
	}
	return dst
}

// decodeTrace parses a version-1 trace section body and returns what
// follows it. A malformed section yields nil and no rest: the section is
// advisory, so damage degrades to "untraced" rather than dropping the
// connection.
func decodeTrace(data []byte) (*Trace, []byte) {
	tr := &Trace{}
	var err error
	for _, dst := range []*uint64{
		&tr.TraceID, &tr.SpanID, &tr.ParentID,
		&tr.RecvQueueNs, &tr.WorkQueueNs, &tr.ExecNs,
		&tr.Flags, &tr.Epoch,
	} {
		if *dst, data, err = codec.ReadUvarint(data); err != nil {
			return nil, nil
		}
	}
	return tr, data
}

// internerCap bounds a connection's string-intern table; on overflow the
// table resets (steady-state traffic re-warms it immediately).
const internerCap = 4096

// interner deduplicates the envelope's addressing strings (From, actor
// type/key, method, caller) per connection: the same peer sends the same handful of
// strings on every message, so after warm-up decode allocates nothing for
// them. The map lookup on a []byte key compiles to zero allocations.
type interner struct{ m map[string]string }

func newInterner() *interner { return &interner{m: make(map[string]string)} }

func (in *interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	if len(in.m) >= internerCap {
		in.m = make(map[string]string)
	}
	s := string(b)
	in.m[s] = s
	return s
}

// readInterned consumes a length-prefixed string through the interner.
func readInterned(data []byte, in *interner) (string, []byte, error) {
	b, rest, err := codec.ReadBytes(data)
	if err != nil {
		return "", nil, err
	}
	return in.intern(b), rest, nil
}

// decodeEnvelope parses one envelope from a frame. The frame buffer is
// transient (it belongs to the connection's FrameReader), so the payload is
// copied out and the strings are interned through the connection's table.
// Calls and replies are decoded into a pooled envelope and payload buffer,
// which the receiver may hand back with Release; control envelopes are plain
// allocations, because their handlers keep payloads and release nothing.
func decodeEnvelope(frame []byte, in *interner) (*Envelope, error) {
	if len(frame) < 1 {
		return nil, fmt.Errorf("transport: empty frame")
	}
	var env *Envelope
	if kind := Kind(frame[0]); kind == KindControl {
		env = &Envelope{Kind: kind}
	} else {
		env = envPool.Get().(*Envelope)
		env.Kind, env.pooled = kind, true
	}
	data := frame[1:]
	var err error
	var id uint64
	if id, data, err = codec.ReadUvarint(data); err != nil {
		return nil, fmt.Errorf("transport: decode envelope id: %w", err)
	}
	env.ID = id
	var s string
	if s, data, err = readInterned(data, in); err != nil {
		return nil, fmt.Errorf("transport: decode envelope from: %w", err)
	}
	env.From = NodeID(s)
	if env.ActorType, data, err = readInterned(data, in); err != nil {
		return nil, fmt.Errorf("transport: decode envelope type: %w", err)
	}
	if env.ActorKey, data, err = readInterned(data, in); err != nil {
		return nil, fmt.Errorf("transport: decode envelope key: %w", err)
	}
	if env.Method, data, err = readInterned(data, in); err != nil {
		return nil, fmt.Errorf("transport: decode envelope method: %w", err)
	}
	// Err is not interned: error strings are often unique and would churn
	// the table; they are also rare, so the copy is cheap.
	if env.Err, data, err = codec.ReadString(data); err != nil {
		return nil, fmt.Errorf("transport: decode envelope err: %w", err)
	}
	var p []byte
	if p, data, err = codec.ReadBytes(data); err != nil {
		return nil, fmt.Errorf("transport: decode envelope payload: %w", err)
	}
	switch {
	case len(p) == 0:
	case env.pooled:
		env.Payload = append(codec.GetBuffer(), p...)
	default:
		env.Payload = append(make([]byte, 0, len(p)), p...)
	}
	// Optional trailing sections; an unknown tag byte means a future format
	// and ends the parse.
	if len(data) > 0 && data[0] == traceSectionV1 {
		env.Trace, data = decodeTrace(data[1:])
	}
	if len(data) > 0 && data[0] == callerSectionV1 {
		// Advisory like the trace: a damaged section reads as "no caller".
		if typ, rest, err := readInterned(data[1:], in); err == nil && typ != "" {
			if key, _, err := readInterned(rest, in); err == nil {
				env.CallerType, env.CallerKey = typ, key
			}
		}
	}
	return env, nil
}
