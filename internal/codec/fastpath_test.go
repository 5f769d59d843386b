package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// fastMsg implements the full fast-path interface set for these tests.
type fastMsg struct {
	ID   uint64
	Name string
	Bits []byte
}

func (m fastMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = AppendUvarint(dst, m.ID)
	dst = AppendString(dst, m.Name)
	return AppendBytes(dst, m.Bits), nil
}

func (m fastMsg) MarshalBinary() ([]byte, error) { return m.AppendBinary(nil) }

func (m *fastMsg) UnmarshalBinary(data []byte) error {
	var err error
	if m.ID, data, err = ReadUvarint(data); err != nil {
		return err
	}
	if m.Name, data, err = ReadString(data); err != nil {
		return err
	}
	view, _, err := ReadBytes(data)
	if err != nil {
		return err
	}
	m.Bits = nil
	if len(view) > 0 {
		m.Bits = append([]byte(nil), view...) // the view aliases data
	}
	return nil
}

func (m fastMsg) CopyValue() interface{} {
	if len(m.Bits) == 0 {
		m.Bits = nil
		return m
	}
	m.Bits = append([]byte(nil), m.Bits...)
	return m
}

// TestTagDispatch pins the self-describing payload format: fast-path types
// emit tagBin and decode through UnmarshalBinary; everything else emits
// tagGob and decodes through gob. Both kinds coexist on one wire.
func TestTagDispatch(t *testing.T) {
	fast, err := Marshal(fastMsg{ID: 7, Name: "n", Bits: []byte{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if fast[0] != tagBin {
		t.Fatalf("fast-path payload tagged %q, want %q", fast[0], tagBin)
	}
	var fm fastMsg
	if err := Unmarshal(fast, &fm); err != nil {
		t.Fatal(err)
	}
	if fm.ID != 7 || fm.Name != "n" || !bytes.Equal(fm.Bits, []byte{1, 2}) {
		t.Fatalf("fast round trip: %+v", fm)
	}

	slow, err := Marshal(payload{Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if slow[0] != tagGob {
		t.Fatalf("fallback payload tagged %q, want %q", slow[0], tagGob)
	}
	var pm payload
	if err := Unmarshal(slow, &pm); err != nil {
		t.Fatal(err)
	}
	if pm.Name != "g" {
		t.Fatalf("gob round trip: %+v", pm)
	}

	// A fast-path payload aimed at a type without UnmarshalBinary is a
	// clear error, not silent garbage.
	var wrong payload
	if err := Unmarshal(fast, &wrong); err == nil {
		t.Fatal("expected error decoding tagBin into a gob-only type")
	}
}

func TestAssign(t *testing.T) {
	var dst fastMsg
	if err := Assign(&dst, fastMsg{ID: 1, Name: "v"}); err != nil {
		t.Fatal(err)
	}
	if dst.ID != 1 || dst.Name != "v" {
		t.Fatalf("assign from value: %+v", dst)
	}
	src := fastMsg{ID: 2}
	if err := Assign(&dst, &src); err != nil {
		t.Fatal(err)
	}
	if dst.ID != 2 {
		t.Fatalf("assign from pointer: %+v", dst)
	}
	if err := Assign(&dst, "not a fastMsg"); err == nil {
		t.Fatal("expected type-mismatch error")
	}
	if err := Assign(dst, fastMsg{}); err == nil {
		t.Fatal("expected non-pointer-target error")
	}
	if err := Assign(&dst, nil); err == nil {
		t.Fatal("expected nil-source error")
	}
}

// TestRefFree pins what may cross between actors without a copy: only a
// type with nothing to write through, at any depth.
func TestRefFree(t *testing.T) {
	type flat struct {
		A uint64
		S string
	}
	for _, v := range []interface{}{
		nil, true, 7, uint8(7), int64(-7), uintptr(7), 2.5, complex(1, 2), "s",
		[4]uint64{}, flat{}, [2]flat{}, struct{ F flat }{}, struct{}{},
	} {
		if !RefFree(v) {
			t.Errorf("%T is reference-free, RefFree says it is not", v)
		}
	}
	n := 1
	for _, v := range []interface{}{
		&n, &flat{}, []byte{1}, []byte(nil), map[string]int{}, func() {}, make(chan int),
		struct{ P *int }{}, struct{ B []byte }{}, struct{ M map[int]int }{},
		struct{ I interface{} }{I: 1}, struct{ E error }{}, struct{ F func() }{},
		struct{ C chan int }{}, struct {
			A uint64
			F struct{ B []byte }
		}{}, [2]*int{}, [1][]byte{}, [0]*int{}, fastMsg{}, reflect.ValueOf(1),
	} {
		if RefFree(v) {
			t.Errorf("%T can be written through, RefFree says it is reference-free", v)
		}
	}
	// The verdict is per type, cached: the second answer is the first.
	if !RefFree(flat{A: 1}) || RefFree(fastMsg{ID: 1}) {
		t.Error("cached verdicts differ from the first ones")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	fw := NewFrameWriter(&wire)
	frames := [][]byte{[]byte("alpha"), {}, []byte("a much longer frame body to cross buffer boundaries")}
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&wire)
	for i, want := range frames {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
}

// TestFrameOversizeRejected crafts a corrupt length prefix beyond
// MaxFrameSize: the reader must fail fast, not attempt the allocation.
func TestFrameOversizeRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	fr := NewFrameReader(bytes.NewReader(hdr[:]))
	if _, err := fr.ReadFrame(); err == nil {
		t.Fatal("expected oversize-frame error")
	}
}

// TestBinaryPrimitivesProperty round-trips a chain of every primitive.
func TestBinaryPrimitivesProperty(t *testing.T) {
	f := func(u uint64, i int64, b bool, fl float64, s string, raw []byte) bool {
		var dst []byte
		dst = AppendUvarint(dst, u)
		dst = AppendVarint(dst, i)
		dst = AppendBool(dst, b)
		dst = AppendFloat64(dst, fl)
		dst = AppendString(dst, s)
		dst = AppendBytes(dst, raw)

		gu, dst2, err := ReadUvarint(dst)
		if err != nil {
			return false
		}
		gi, dst2, err := ReadVarint(dst2)
		if err != nil {
			return false
		}
		gb, dst2, err := ReadBool(dst2)
		if err != nil {
			return false
		}
		gf, dst2, err := ReadFloat64(dst2)
		if err != nil {
			return false
		}
		gs, dst2, err := ReadString(dst2)
		if err != nil {
			return false
		}
		graw, dst2, err := ReadBytes(dst2)
		if err != nil || len(dst2) != 0 {
			return false
		}
		return gu == u && gi == i && gb == b &&
			(gf == fl || (fl != fl && gf != gf)) && // NaN round-trips as NaN
			gs == s && bytes.Equal(graw, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReadPrimitivesShortBuffer checks every reader reports truncation as
// ErrShortBuffer instead of panicking or reading garbage.
func TestReadPrimitivesShortBuffer(t *testing.T) {
	if _, _, err := ReadBool(nil); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("ReadBool(nil) = %v", err)
	}
	if _, _, err := ReadFloat64([]byte{1, 2}); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short ReadFloat64 = %v", err)
	}
	if _, _, err := ReadUvarint(nil); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("ReadUvarint(nil) = %v", err)
	}
	// Length prefix claims more bytes than remain.
	short := AppendUvarint(nil, 100)
	if _, _, err := ReadString(short); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated ReadString = %v", err)
	}
	if _, _, err := ReadBytes(short); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("truncated ReadBytes = %v", err)
	}
}

// TestMarshalAppendReusesCapacity confirms the pooled-buffer contract: with
// enough spare capacity, a fast-path MarshalAppend performs zero
// allocations.
func TestMarshalAppendReusesCapacity(t *testing.T) {
	// Box the message once: the interface conversion at a call site is the
	// caller's allocation, not the encoder's.
	var msg interface{} = fastMsg{ID: 42, Name: "player", Bits: []byte{1, 2, 3}}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := MarshalAppend(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if allocs != 0 {
		t.Fatalf("fast-path MarshalAppend into spare capacity: %.1f allocs/op, want 0", allocs)
	}
}

// TestMarshalAllocatesOnce: a warm fast-path Marshal encodes into pooled
// scratch and allocates only the exact-size result, for a 30-byte value and
// a 3 KB one alike; growing the result from a nil slice took one allocation
// per growth step. An encoding past maxPooledBuf outgrows the scratch and is
// returned as it is, still in one allocation.
func TestMarshalAllocatesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	for _, size := range []int{30, 3 << 10, 2 * maxPooledBuf} {
		// Boxed once: the interface conversion is the caller's allocation.
		var msg interface{} = fastMsg{ID: 42, Bits: make([]byte, size)}
		want, _ := MarshalAppend(nil, msg)
		var out []byte
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if out, err = Marshal(msg); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(out, want) || (size < maxPooledBuf && cap(out) != len(want)) {
			t.Fatalf("Marshal of a %d-byte value: len %d cap %d, want the %d-byte encoding exactly", size, len(out), cap(out), len(want))
		}
		if allocs != 1 {
			t.Fatalf("warm Marshal of a %d-byte encoding: %.1f allocs/op, want 1", len(want), allocs)
		}
	}
}

// TestGobFallbackStillHandlesAnything sanity-checks that a type with no
// fast-path methods round-trips through the fallback unchanged.
func TestGobFallbackStillHandlesAnything(t *testing.T) {
	type anything struct {
		M map[string][]int
		P *int
	}
	n := 5
	in := anything{M: map[string][]int{"a": {1, 2}}, P: &n}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out anything
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.M, out.M) || out.P == nil || *out.P != n {
		t.Fatalf("fallback round trip: %+v", out)
	}
}
