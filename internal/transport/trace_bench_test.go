package transport

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// Benchmarks and the overhead guard for the trace section on the wire: the
// envelope fast path must not slow down when tracing is configured off, and
// 1% sampling (the operational default in actopd) must stay within noise.

// blastTCP sends n envelopes a→recv and returns delivered msgs/sec.
// traceEvery attaches a hop-timing record to every k-th envelope (0 = never
// — the tracing-disabled wire format, byte-identical to the pre-trace one).
func blastTCP(tb testing.TB, n int, traceEvery int) float64 {
	tb.Helper()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer a.Close()
	recv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer recv.Close()

	var got atomic.Int64
	recv.SetHandler(func(env *Envelope) { got.Add(1) })

	payload := make([]byte, 256)
	env := &Envelope{
		Kind: KindCall, ActorType: "player", ActorKey: "p42",
		Method: "Status", Payload: payload,
	}
	tr := &Trace{TraceID: 7, SpanID: 9, RecvQueueNs: 1200, WorkQueueNs: 3400, ExecNs: 56000}
	if err := a.Send(recv.Node(), env); err != nil {
		tb.Fatal(err)
	}
	for got.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	got.Store(0)

	start := time.Now()
	for i := 0; i < n; i++ {
		env.ID = uint64(i)
		env.Trace = nil
		if traceEvery > 0 && i%traceEvery == 0 {
			env.Trace = tr
		}
		if err := a.Send(recv.Node(), env); err != nil {
			tb.Fatal(err)
		}
	}
	for got.Load() < int64(n) {
		time.Sleep(100 * time.Microsecond)
	}
	return float64(n) / time.Since(start).Seconds()
}

// BenchmarkTCPSendThroughputTraceOff is the baseline with the trace plane
// compiled in but disabled — must match the pre-trace BenchmarkTCPSendThroughput.
func BenchmarkTCPSendThroughputTraceOff(b *testing.B) {
	rate := blastTCP(b, b.N, 0)
	b.ReportMetric(rate, "msgs/sec")
}

// BenchmarkTCPSendThroughputTrace1pct attaches a trace record to 1% of
// envelopes — the actopd default sampling rate.
func BenchmarkTCPSendThroughputTrace1pct(b *testing.B) {
	rate := blastTCP(b, b.N, 100)
	b.ReportMetric(rate, "msgs/sec")
}

// BenchmarkTCPSendThroughputTraceAll attaches a trace record to every
// envelope — the worst-case wire overhead (sampling 1.0).
func BenchmarkTCPSendThroughputTraceAll(b *testing.B) {
	rate := blastTCP(b, b.N, 1)
	b.ReportMetric(rate, "msgs/sec")
}

// TestTraceOverheadGuard asserts 1% sampling costs <2% of message-plane
// throughput against the tracing-off baseline. Timing-sensitive by nature,
// so it only runs when ACTOP_OVERHEAD_GUARD=1 (CI noise would flake it);
// the benchmark ledger reads tracing's end-to-end cost as
// trace.overhead_pct.
func TestTraceOverheadGuard(t *testing.T) {
	if os.Getenv("ACTOP_OVERHEAD_GUARD") != "1" {
		t.Skip("set ACTOP_OVERHEAD_GUARD=1 to run the timing guard")
	}
	const msgs = 200_000
	const trials = 5
	median := func(every int) float64 {
		rates := make([]float64, 0, trials)
		for i := 0; i < trials; i++ {
			rates = append(rates, blastTCP(t, msgs, every))
		}
		sort.Float64s(rates)
		return rates[trials/2]
	}
	// Interleaving would be better still, but medians of alternating runs
	// already squash scheduler drift well enough for a 2% band.
	base := median(0)
	sampled := median(100)
	loss := 100 * (base - sampled) / base
	fmt.Printf("overhead guard: baseline %.0f msgs/sec, 1%% sampled %.0f msgs/sec, loss %.2f%%\n",
		base, sampled, loss)
	if loss >= 2.0 {
		t.Fatalf("1%% sampling costs %.2f%% throughput, budget is 2%%", loss)
	}
}
