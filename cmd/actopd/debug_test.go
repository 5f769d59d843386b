package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"actop/internal/actor"
	"actop/internal/metrics"
	"actop/internal/trace"
	"actop/internal/transport"
)

// newDebugNode builds a single in-memory node with the kv type, full
// sampling, and a registry — enough to exercise every debug endpoint.
func newDebugNode(t *testing.T) (*actor.System, *metrics.Registry) {
	t.Helper()
	net := transport.NewNetwork(0)
	tr := net.Join("node-a")
	reg := metrics.NewRegistry()
	sys, err := actor.NewSystem(actor.Config{
		Transport: tr, Peers: []transport.NodeID{"node-a"},
		CallTimeout:     2 * time.Second,
		TraceSampleRate: 1.0,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.RegisterType("kv", func() actor.Actor { return &kvActor{} })
	t.Cleanup(sys.Stop)
	return sys, reg
}

func getBody(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugEndpointUptime(t *testing.T) {
	sys, reg := newDebugNode(t)
	started := time.Now().Add(-3 * time.Second)
	srv := httptest.NewServer(newDebugMux(sys, nil, reg, started))
	defer srv.Close()

	code, body := getBody(t, srv, "/debug/actop")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var p debugPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if p.Node != "node-a" {
		t.Errorf("node = %q", p.Node)
	}
	if p.UptimeSeconds < 3 {
		t.Errorf("uptime_seconds = %v, want >= 3", p.UptimeSeconds)
	}
	if p.Now.IsZero() || time.Since(p.Now) > time.Minute {
		t.Errorf("server timestamp bogus: %v", p.Now)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	sys, reg := newDebugNode(t)
	srv := httptest.NewServer(newDebugMux(sys, nil, reg, time.Now()))
	defer srv.Close()

	for i := 0; i < 5; i++ {
		if err := sys.Call(actor.Ref{Type: "kv", Key: fmt.Sprintf("k%d", i)}, "Put", "v", nil); err != nil {
			t.Fatal(err)
		}
	}
	code, body := getBody(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		`# TYPE actop_call_duration_seconds summary`,
		`actop_call_duration_seconds{method="Put",quantile="0.5"}`,
		`actop_call_duration_seconds{method="Put",quantile="0.95"}`,
		`actop_call_duration_seconds{method="Put",quantile="0.99"}`,
		`actop_call_duration_seconds_count{method="Put"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %s\n%s", want, body)
		}
	}
}

func TestTracesEndpoint(t *testing.T) {
	sys, reg := newDebugNode(t)
	srv := httptest.NewServer(newDebugMux(sys, nil, reg, time.Now()))
	defer srv.Close()

	if err := sys.Call(actor.Ref{Type: "kv", Key: "traced"}, "Put", "v", nil); err != nil {
		t.Fatal(err)
	}
	// The span lands synchronously for a local call; list it.
	code, body := getBody(t, srv, "/debug/actop/traces")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var p tracesPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if p.Recorded == 0 || len(p.Spans) == 0 {
		t.Fatalf("no spans listed: %+v", p)
	}
	var sp trace.Span
	for _, s := range p.Spans {
		if s.Method == "Put" {
			sp = s
		}
	}
	if sp.TraceID == 0 {
		t.Fatalf("no Put span in %+v", p.Spans)
	}

	// Cluster assembly by id, both decimal and hex forms.
	for _, sel := range []string{
		fmt.Sprintf("%d", sp.TraceID),
		fmt.Sprintf("%x", sp.TraceID),
	} {
		code, body = getBody(t, srv, "/debug/actop/traces?trace="+sel)
		if code != http.StatusOK {
			t.Fatalf("status %d for trace=%s", code, sel)
		}
		var tp tracesPayload
		if err := json.Unmarshal([]byte(body), &tp); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if tp.TraceID != sp.TraceID || len(tp.Trees) != 1 {
			t.Fatalf("trace=%s: got id %d, %d trees", sel, tp.TraceID, len(tp.Trees))
		}
		if tp.Trees[0].Client == nil || tp.Trees[0].Client.Method != "Put" {
			t.Fatalf("assembled tree wrong: %+v", tp.Trees[0])
		}
	}

	if code, _ = getBody(t, srv, "/debug/actop/traces?trace=not-an-id"); code != http.StatusBadRequest {
		t.Errorf("bad trace id served status %d, want 400", code)
	}
}

func TestHotspotsEndpoint(t *testing.T) {
	sys, reg := newDebugNode(t)
	srv := httptest.NewServer(newDebugMux(sys, nil, reg, time.Now()))
	defer srv.Close()

	// Skew the traffic: one hot key, a few cold ones.
	for i := 0; i < 50; i++ {
		if err := sys.Call(actor.Ref{Type: "kv", Key: "hot"}, "Put", "v", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := sys.Call(actor.Ref{Type: "kv", Key: fmt.Sprintf("cold%d", i)}, "Put", "v", nil); err != nil {
			t.Fatal(err)
		}
	}
	for path, cluster := range map[string]bool{"/debug/actop/hotspots?n=5": false, "/debug/actop/hotspots?cluster=1&n=5": true} {
		code, body := getBody(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		var p hotspotsPayload
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", path, err, body)
		}
		if p.Node != "node-a" || p.Tracked == 0 || p.Cluster != cluster {
			t.Fatalf("%s: payload header wrong: %+v", path, p)
		}
		if len(p.Top) == 0 || p.Top[0].Actor != "kv/hot" {
			t.Fatalf("%s: rank 1 = %+v, want kv/hot", path, p.Top)
		}
		if len(p.Top) > 5 {
			t.Fatalf("%s: n=5 returned %d entries", path, len(p.Top))
		}
	}
}

func TestFlightEndpoint(t *testing.T) {
	sys, reg := newDebugNode(t)
	srv := httptest.NewServer(newDebugMux(sys, nil, reg, time.Now()))
	defer srv.Close()

	// A panic is both a flight event and an anomaly trigger.
	if err := sys.Call(actor.Ref{Type: "kv", Key: "victim"}, "NoSuchMethod", "x", nil); err == nil {
		t.Fatal("expected an error from an unknown method")
	}
	sys.FlightRecorder().Trigger("test_trigger", "endpoint smoke")

	code, body := getBody(t, srv, "/debug/actop/flight?limit=50")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var p flightPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if p.Node != "node-a" || p.Recorded == 0 || len(p.Events) == 0 {
		t.Fatalf("flight payload empty: %+v", p)
	}
	if p.Dumps != 1 || len(p.DumpList) != 1 {
		t.Fatalf("dumps = %d / %d retained, want 1", p.Dumps, len(p.DumpList))
	}
	d := p.DumpList[0]
	if d.Trigger != "test_trigger" || d.Runtime.Goroutines <= 0 {
		t.Fatalf("dump malformed: %+v", d)
	}
}
