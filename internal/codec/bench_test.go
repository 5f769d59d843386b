package codec

import (
	"testing"
)

// benchMsg mirrors a typical actor-call argument: a couple of scalars, a
// slice and a map, the shape gob is slowest at. It implements the fast-path
// interfaces, as the hot workload message types do, so the headline
// benchmarks measure the message plane as actually used; gobBenchMsg below
// is the same shape without methods, benchmarked as the fallback.
type benchMsg struct {
	Name  string
	Score int64
	Tags  []string
	Meta  map[string]int64
}

func (m benchMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = AppendString(dst, m.Name)
	dst = AppendVarint(dst, m.Score)
	dst = AppendUvarint(dst, uint64(len(m.Tags)))
	for _, t := range m.Tags {
		dst = AppendString(dst, t)
	}
	dst = AppendUvarint(dst, uint64(len(m.Meta)))
	for k, v := range m.Meta {
		dst = AppendString(dst, k)
		dst = AppendVarint(dst, v)
	}
	return dst, nil
}

func (m benchMsg) MarshalBinary() ([]byte, error) { return m.AppendBinary(nil) }

func (m *benchMsg) UnmarshalBinary(data []byte) error {
	var err error
	if m.Name, data, err = ReadString(data); err != nil {
		return err
	}
	if m.Score, data, err = ReadVarint(data); err != nil {
		return err
	}
	var n uint64
	if n, data, err = ReadUvarint(data); err != nil {
		return err
	}
	m.Tags = nil
	if n > 0 {
		m.Tags = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			var s string
			if s, data, err = ReadString(data); err != nil {
				return err
			}
			m.Tags = append(m.Tags, s)
		}
	}
	if n, data, err = ReadUvarint(data); err != nil {
		return err
	}
	m.Meta = nil
	if n > 0 {
		m.Meta = make(map[string]int64, n)
		for i := uint64(0); i < n; i++ {
			var k string
			var v int64
			if k, data, err = ReadString(data); err != nil {
				return err
			}
			if v, data, err = ReadVarint(data); err != nil {
				return err
			}
			m.Meta[k] = v
		}
	}
	return nil
}

func (m benchMsg) CopyValue() interface{} {
	if len(m.Tags) > 0 {
		m.Tags = append([]string(nil), m.Tags...)
	} else {
		m.Tags = nil
	}
	if len(m.Meta) > 0 {
		meta := make(map[string]int64, len(m.Meta))
		for k, v := range m.Meta {
			meta[k] = v
		}
		m.Meta = meta
	} else {
		m.Meta = nil
	}
	return m
}

// gobBenchMsg is benchMsg stripped of its methods: the reflection-gob
// fallback path.
type gobBenchMsg benchMsg

func newBenchMsg() benchMsg {
	return benchMsg{
		Name:  "player/42",
		Score: 123456,
		Tags:  []string{"lobby", "game-7", "na-east"},
		Meta:  map[string]int64{"joined": 1700000000, "beats": 99},
	}
}

// BenchmarkCodecMarshal measures one argument serialization per op — the
// per-message cost every remote call pays — through the fast path.
func BenchmarkCodecMarshal(b *testing.B) {
	msg := newBenchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		_ = data
	}
}

// BenchmarkCodecMarshalGobFallback is the same message through the
// reflection-gob fallback, for comparison.
func BenchmarkCodecMarshalGobFallback(b *testing.B) {
	msg := gobBenchMsg(newBenchMsg())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		_ = data
	}
}

// BenchmarkCodecMarshalAppendPooled is the transport's actual pattern:
// encode into a recycled buffer — steady state allocates only what the
// encoding itself needs.
func BenchmarkCodecMarshalAppendPooled(b *testing.B) {
	msg := newBenchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := MarshalAppend(GetBuffer(), msg)
		if err != nil {
			b.Fatal(err)
		}
		PutBuffer(buf)
	}
}

// BenchmarkCodecUnmarshal measures the decode side of the fast path.
func BenchmarkCodecUnmarshal(b *testing.B) {
	data, err := Marshal(newBenchMsg())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out benchMsg
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}
