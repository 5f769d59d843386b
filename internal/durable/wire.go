// Package durable is the snapshot plane of the actor runtime (ISSUE 8):
// a compact wire format for actor state snapshots, an epoch-ordered
// in-memory replica store, and the background snapshotter stage that keeps
// encoding and shipping off the turn path (Aumayr & Gonzalez Boix:
// checkpoints must never block the processing of messages).
//
// The package is deliberately free of actor-runtime imports: the actor
// layer hands it opaque state bytes and closures, so the dependency points
// one way and the wire format stays independently fuzzable.
package durable

import (
	"encoding/binary"
	"fmt"
)

// Record is one actor snapshot as it travels to (and rests on) a replica:
// the actor's identity, the migration epoch of the incarnation that
// captured it, a per-incarnation sequence number, and the opaque state.
// (Epoch, Seq) totally orders a ref's snapshots: epochs advance on every
// migration or failover re-activation, sequence numbers on every capture
// within one incarnation — so a delayed snapshot from an older incarnation
// can never clobber a newer one.
type Record struct {
	Type, Key string
	Epoch     uint64
	Seq       uint64
	State     []byte
}

// recordVersion is the wire-format version byte leading every record.
const recordVersion = 1

// maxSnapField caps any single decoded field so a corrupt or hostile
// length prefix cannot drive an over-allocation (the fuzz target's main
// invariant). Decoding also bounds every claim by the bytes actually
// present, so this is a second fence, not the first.
const maxSnapField = 1 << 26 // 64 MiB

// AppendRecord encodes r onto dst and returns the extended slice. The
// layout is a version byte followed by uvarint-length-prefixed Type, Key,
// raw-uvarint Epoch and Seq, then the length-prefixed State.
func AppendRecord(dst []byte, r Record) []byte {
	dst = append(dst, recordVersion)
	dst = binary.AppendUvarint(dst, uint64(len(r.Type)))
	dst = append(dst, r.Type...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, r.Epoch)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.State)))
	dst = append(dst, r.State...)
	return dst
}

// DecodeRecord parses one snapshot record. Every length claim is checked
// against the bytes remaining before anything is allocated, and trailing
// garbage is an error — a record is exactly one frame.
func DecodeRecord(data []byte) (Record, error) {
	var r Record
	if len(data) == 0 {
		return r, fmt.Errorf("durable: empty record")
	}
	if data[0] != recordVersion {
		return r, fmt.Errorf("durable: unknown record version %d", data[0])
	}
	rest := data[1:]
	var err error
	if r.Type, rest, err = takeString(rest, "type"); err != nil {
		return Record{}, err
	}
	if r.Key, rest, err = takeString(rest, "key"); err != nil {
		return Record{}, err
	}
	if r.Epoch, rest, err = takeUvarint(rest, "epoch"); err != nil {
		return Record{}, err
	}
	if r.Seq, rest, err = takeUvarint(rest, "seq"); err != nil {
		return Record{}, err
	}
	var state []byte
	if state, rest, err = takeBytes(rest, "state"); err != nil {
		return Record{}, err
	}
	if len(state) > 0 {
		// Copy out of the caller's buffer: records outlive the envelope
		// payloads they arrive in (the store keeps them resident).
		r.State = append(make([]byte, 0, len(state)), state...)
	}
	if len(rest) != 0 {
		return Record{}, fmt.Errorf("durable: %d trailing bytes after record", len(rest))
	}
	return r, nil
}

func takeUvarint(data []byte, field string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("durable: bad %s varint", field)
	}
	return v, data[n:], nil
}

func takeBytes(data []byte, field string) ([]byte, []byte, error) {
	n, rest, err := takeUvarint(data, field)
	if err != nil {
		return nil, nil, err
	}
	if n > maxSnapField || n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("durable: %s length %d exceeds remaining %d bytes", field, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

func takeString(data []byte, field string) (string, []byte, error) {
	b, rest, err := takeBytes(data, field)
	if err != nil {
		return "", nil, err
	}
	return string(b), rest, nil
}
