package durable

import (
	"bytes"
	"testing"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{},
		{Type: "counter", Key: "a", Epoch: 0, Seq: 1, State: []byte("x")},
		{Type: "lobby", Key: "slot-42", Epoch: 7, Seq: 190, State: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: "t\x00weird", Key: "k\xffkey", Epoch: 1<<63 + 5, Seq: 1 << 62, State: nil},
	}
	for _, want := range cases {
		enc := AppendRecord(nil, want)
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("DecodeRecord(%q): %v", want.Key, err)
		}
		if got.Type != want.Type || got.Key != want.Key || got.Epoch != want.Epoch || got.Seq != want.Seq {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
		}
		if !bytes.Equal(got.State, want.State) {
			t.Fatalf("state mismatch for %q: got %d bytes want %d", want.Key, len(got.State), len(want.State))
		}
	}
}

func TestDecodeRecordStateCopied(t *testing.T) {
	enc := AppendRecord(nil, Record{Type: "t", Key: "k", State: []byte("hello")})
	got, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	if string(got.State) != "hello" {
		t.Fatalf("decoded state aliases the input buffer: %q", got.State)
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	good := AppendRecord(nil, Record{Type: "t", Key: "k", Epoch: 1, Seq: 2, State: []byte("s")})
	cases := map[string][]byte{
		"empty":          nil,
		"bad version":    {0x7F},
		"truncated":      good[:len(good)-2],
		"trailing bytes": append(append([]byte(nil), good...), 0x00),
		"huge length": func() []byte {
			// Claims a state length far beyond both the cap and the buffer.
			b := AppendRecord(nil, Record{Type: "t", Key: "k"})
			b = b[:len(b)-1] // strip the zero state length
			return append(b, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: expected decode error, got none", name)
		}
	}
}

func TestStoreEpochSeqOrdering(t *testing.T) {
	s := NewStore()
	put := func(epoch, seq uint64) bool {
		return s.Put(Record{Type: "t", Key: "k", Epoch: epoch, Seq: seq, State: []byte{byte(seq)}})
	}
	if !put(0, 1) {
		t.Fatal("first record rejected")
	}
	if !put(0, 2) {
		t.Fatal("newer seq same epoch rejected")
	}
	if put(0, 2) {
		t.Fatal("duplicate (epoch, seq) accepted")
	}
	if put(0, 1) {
		t.Fatal("older seq accepted")
	}
	// New incarnation: epoch advances, seq restarts.
	if !put(1, 1) {
		t.Fatal("newer epoch with restarted seq rejected")
	}
	// The delayed pre-migration snapshot must lose even with a higher seq.
	if put(0, 99) {
		t.Fatal("stale-epoch snapshot with high seq accepted")
	}
	got, ok := s.Get("t", "k")
	if !ok || got.Epoch != 1 || got.Seq != 1 {
		t.Fatalf("resident record = %+v, want epoch 1 seq 1", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	s.Drop("t", "k")
	if _, ok := s.Get("t", "k"); ok {
		t.Fatal("record survived Drop")
	}
}

func TestStoreBytes(t *testing.T) {
	s := NewStore()
	s.Put(Record{Type: "a", Key: "1", Seq: 1, State: make([]byte, 10)})
	s.Put(Record{Type: "b", Key: "2", Seq: 1, State: make([]byte, 32)})
	if got := s.Bytes(); got != 42 {
		t.Fatalf("Bytes = %d, want 42", got)
	}
}
