package codec

import (
	"testing"
	"testing/quick"
)

type payload struct {
	Name  string
	Score int
	Tags  []string
	Meta  map[string]int
}

func TestMarshalRoundTrip(t *testing.T) {
	in := payload{Name: "p1", Score: 42, Tags: []string{"a", "b"}, Meta: map[string]int{"x": 1}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Score != in.Score || len(out.Tags) != 2 || out.Meta["x"] != 1 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestUnmarshalError(t *testing.T) {
	var out payload
	if err := Unmarshal([]byte{0xff, 0x01}, &out); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(name string, score int, tags []string) bool {
		in := payload{Name: name, Score: score, Tags: tags}
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		var out payload
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		if out.Name != in.Name || out.Score != in.Score || len(out.Tags) != len(in.Tags) {
			return false
		}
		for i := range tags {
			if out.Tags[i] != tags[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type iface struct{ V interface{} }

func TestRegisterInterfacePayload(t *testing.T) {
	Register(payload{})
	in := iface{V: payload{Name: "x"}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out iface
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if p, ok := out.V.(payload); !ok || p.Name != "x" {
		t.Fatalf("interface payload lost: %+v", out)
	}
}
