// Package codec provides argument serialization for RPC and the pieces the
// actor runtime isolates LPC arguments with.
//
// Orleans serializes arguments for remote calls and deep-copies them for
// local calls so actors never share mutable state (§2). Serialization is two
// tiers: message types may implement the fast-path interfaces
// (Marshaler/Unmarshaler) for reflection-free, allocation-light encoding;
// every other type falls back to encoding/gob. Payloads are self-describing —
// a one-byte tag selects the decoder — so fast-path and fallback types can
// mix freely on the wire. A local call hands a RefFree value over as it is,
// copies a Copier by its CopyValue, and isolates anything else by an encode
// and a decode.
//
// Buffer ownership: GetBuffer/PutBuffer recycle payload buffers through a
// sync.Pool. A buffer passed to PutBuffer must have no other live
// references; the transport and runtime follow the ownership rules spelled
// out in DESIGN.md ("Message plane").
package codec

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// Marshaler is the fast-path encoder interface: implementations append
// their binary encoding to dst (which may have existing data and spare
// capacity) and return the extended slice, bypassing reflection entirely.
// Implement it on the value receiver so both T and *T hit the fast path.
type Marshaler interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// Unmarshaler is the fast-path decoder interface (the standard library's
// encoding.BinaryUnmarshaler contract): data holds exactly one value
// previously produced by AppendBinary. Implementations must not retain
// data — it may be a view into a pooled buffer.
type Unmarshaler interface {
	UnmarshalBinary(data []byte) error
}

// Copier is the fast-path deep-copy interface for local calls: CopyValue
// returns a copy sharing no mutable state with the receiver. To match the
// gob fallback's semantics, implementations should normalize zero-length
// slices and maps to nil. It must be a pure copy: the runtime does not call
// it for reference-free values (RefFree), which it hands over as they are.
type Copier interface {
	CopyValue() interface{}
}

// refFree caches RefFree's verdict per dynamic type (reflect.Type → bool).
var refFree sync.Map

// RefFree reports whether v's dynamic type holds nothing one could write
// through: scalars, strings, and arrays and structs of those — never a
// pointer, slice, map, interface, func or chan, at any depth. A boxed value
// of such a type is immutable (an interface's value cannot be assigned
// through, and a string's bytes cannot be written), so its receiver can
// alias nothing the sender still holds and it needs no copy to cross
// between actors. nil holds nothing and is reference-free.
func RefFree(v interface{}) bool {
	if v == nil {
		return true
	}
	t := reflect.TypeOf(v)
	if free, ok := refFree.Load(t); ok {
		return free.(bool)
	}
	free := typeRefFree(t)
	refFree.Store(t, free)
	return free
}

func typeRefFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return typeRefFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !typeRefFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// Payload tags: the first byte of every Marshal output selects the decoder.
const (
	tagGob byte = 'G' // gob-encoded fallback
	tagBin byte = 'B' // Marshaler fast path
)

// gobOps counts trips through the gob fallback, encodes and decodes alike.
var gobOps atomic.Uint64

// GobOps reports how many values this process has encoded or decoded with
// the gob fallback. A message type that implements Marshaler and
// Unmarshaler never moves it, so a rising count names traffic that pays
// for reflection and a fresh gob encoder or decoder per value.
func GobOps() uint64 { return gobOps.Load() }

// Register makes a concrete type encodable when passed through interface
// fields (a thin wrapper over gob.Register so callers need not import gob).
func Register(v interface{}) { gob.Register(v) }

// --- pooled buffers ---

// Pooled buffers have between minPooledBuf and maxPooledBuf of capacity:
// every GetBuffer starts with room for a typical message, whatever was put
// before it, and one huge payload does not pin memory in the pool forever.
const (
	minPooledBuf = 512
	maxPooledBuf = 64 << 10
)

// bufPool holds buffers in *[]byte cells (a bare slice would be boxed on
// every Put); bufCells holds the cells GetBuffer emptied, so a warm
// Put/Get cycle allocates nothing.
var bufPool, bufCells sync.Pool

// GetBuffer returns a zero-length buffer with pooled capacity. Pass it to
// MarshalAppend and return it with PutBuffer when no reference to it (or
// any slice of it) remains live.
func GetBuffer() []byte {
	cell, ok := bufPool.Get().(*[]byte)
	if !ok {
		return make([]byte, 0, minPooledBuf)
	}
	b := *cell
	*cell = nil
	bufCells.Put(cell)
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer (or anywhere else —
// the pool does not care about provenance). Buffers outside the pooled
// capacity range are dropped.
func PutBuffer(b []byte) {
	if cap(b) < minPooledBuf || cap(b) > maxPooledBuf {
		return
	}
	cell, ok := bufCells.Get().(*[]byte)
	if !ok {
		cell = new([]byte)
	}
	*cell = b[:0]
	bufPool.Put(cell)
}

// gobBufPool recycles the scratch buffers behind gob fallback encoding.
var gobBufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// MarshalAppend appends the encoding of v to dst and returns the extended
// slice. Types implementing Marshaler encode reflection-free; everything
// else goes through gob (a fresh encoder per value, so the output is
// self-contained — stream-sticky encoders live in the transport layer).
func MarshalAppend(dst []byte, v interface{}) ([]byte, error) {
	if m, ok := v.(Marshaler); ok {
		out, err := m.AppendBinary(append(dst, tagBin))
		if err != nil {
			return nil, fmt.Errorf("codec: marshal %T: %w", v, err)
		}
		return out, nil
	}
	gobOps.Add(1)
	buf := gobBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		gobBufPool.Put(buf)
		return nil, fmt.Errorf("codec: marshal %T: %w", v, err)
	}
	dst = append(append(dst, tagGob), buf.Bytes()...)
	gobBufPool.Put(buf)
	return dst, nil
}

// Marshal serializes v into a fresh buffer of exactly its length, encoded in
// pooled scratch: a warm fast-path Marshal up to maxPooledBuf allocates once.
// A larger encoding grew out of the scratch into a buffer the pool would drop,
// so that buffer is returned as it is and the scratch goes back.
func Marshal(v interface{}) ([]byte, error) {
	scratch := GetBuffer()
	buf, err := MarshalAppend(scratch, v)
	if err != nil {
		return nil, err
	}
	if cap(buf) > maxPooledBuf {
		PutBuffer(scratch)
		return buf, nil
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	PutBuffer(buf)
	return out, nil
}

// Unmarshal deserializes data into v (a non-nil pointer), dispatching on
// the payload tag.
func Unmarshal(data []byte, v interface{}) error {
	if len(data) == 0 {
		return fmt.Errorf("codec: unmarshal into %T: empty payload", v)
	}
	switch data[0] {
	case tagBin:
		u, ok := v.(Unmarshaler)
		if !ok {
			return fmt.Errorf("codec: %T cannot decode a fast-path payload (no UnmarshalBinary)", v)
		}
		if err := u.UnmarshalBinary(data[1:]); err != nil {
			return fmt.Errorf("codec: unmarshal into %T: %w", v, err)
		}
		return nil
	case tagGob:
		gobOps.Add(1)
		if err := gob.NewDecoder(bytes.NewReader(data[1:])).Decode(v); err != nil {
			return fmt.Errorf("codec: unmarshal into %T: %w", v, err)
		}
		return nil
	default:
		return fmt.Errorf("codec: unmarshal into %T: unknown payload tag %#x", v, data[0])
	}
}

// Assign sets the value pointed to by dst to src. src may be a pointer of
// dst's type or a value assignable to dst's element type. It is the last
// step of a fast-path local call: src is already isolated (copied by
// CopyValue, or reference-free), Assign only stores it.
func Assign(dst, src interface{}) error {
	dv := reflect.ValueOf(dst)
	if dv.Kind() != reflect.Pointer || dv.IsNil() {
		return fmt.Errorf("codec: assign target must be a non-nil pointer, got %T", dst)
	}
	sv := reflect.ValueOf(src)
	switch {
	case !sv.IsValid():
		return fmt.Errorf("codec: cannot assign nil to %T", dst)
	case sv.Kind() == reflect.Pointer && sv.Type() == dv.Type():
		dv.Elem().Set(sv.Elem())
	case sv.Type().AssignableTo(dv.Elem().Type()):
		dv.Elem().Set(sv)
	default:
		return fmt.Errorf("codec: cannot assign %T to %T", src, dst)
	}
	return nil
}
