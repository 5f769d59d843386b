package actor

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"actop/internal/codec"
	"actop/internal/flight"
	"actop/internal/hotspot"
	"actop/internal/metrics"
)

// The observability plane (ISSUE 9): the per-actor hot-spot profiler
// (internal/hotspot, fed from the drain loop), the black-box flight
// recorder (internal/flight, fed from every state-transition site), the
// SLO watcher that turns latency regressions into anomaly dumps, and the
// cluster-wide hot-actor assembly over the actop.hotspots control verb.

// obsTick is the SLO watcher's check cadence: one p99 verdict per window
// of this length.
const obsTick = time.Second

// sloMinSamples is the minimum window population before a p99 verdict —
// a handful of calls is noise, not an SLO.
const sloMinSamples = 16

// obsLoop is the background observability ticker: SLO-window checks every
// obsTick (when a target is armed) and profiler cost decay every
// hotspotDecay. Runs on a tracked goroutine, gated on s.done.
func (s *System) obsLoop() {
	tick := obsTick
	if s.sloWin == nil {
		// No SLO watcher: the only periodic duty is decay, so tick at its
		// cadence instead of waking every second for nothing.
		tick = hotspotDecay
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	lastDecay := time.Now()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if s.sloWin != nil {
				s.sloCheck()
			}
			if s.prof != nil && time.Since(lastDecay) >= hotspotDecay {
				s.prof.Decay()
				lastDecay = time.Now()
			}
		}
	}
}

// sloCheck takes one p99 verdict over the rolling window and resets it.
// A breach fires the flight recorder's slo_breach trigger — debounced
// there, so a sustained breach produces one dump per debounce interval,
// not one per violating call or per tick.
func (s *System) sloCheck() {
	h := s.sloWin.Snapshot()
	s.sloWin.Reset()
	if h.Count() < sloMinSamples {
		return
	}
	if p99 := h.Quantile(0.99); p99 > s.cfg.SLOTarget {
		s.flight.Trigger(flight.KindSLOBreach,
			fmt.Sprintf("p99 %v > target %v over %d calls", p99, s.cfg.SLOTarget, h.Count()))
	}
}

// FlightRecorder exposes the node's black-box flight recorder (read-only
// use: Snapshot/Dumps/stat accessors).
func (s *System) FlightRecorder() *flight.Recorder { return s.flight }

// HotspotProfiler exposes the hot-spot sketch (nil when disabled).
func (s *System) HotspotProfiler() *hotspot.Profiler { return s.prof }

// LocalHotspots reports this node's n hottest actors, cost-descending,
// with the Node field stamped for cluster assembly. Nil when the profiler
// is disabled.
func (s *System) LocalHotspots(n int) []hotspot.Entry {
	if s.prof == nil {
		return nil
	}
	top := s.prof.Top(n)
	node := string(s.Node())
	for i := range top {
		top[i].Node = node
	}
	return top
}

// ClusterHotspots assembles the cluster-wide hot-actor table: this node's
// entries plus a control RPC to each live peer (the ClusterSpans pattern —
// dead and unreachable peers are skipped, a partial table still ranks). The
// merged table is cost-descending and truncated to n; per-node decayed costs
// are directly comparable because every node runs the same cost formula and
// decay cadence.
func (s *System) ClusterHotspots(n int) []hotspot.Entry {
	out := s.LocalHotspots(n)
	for _, p := range s.livePeers() {
		if p == s.Node() {
			continue
		}
		var remote []hotspot.Entry
		if err := s.controlCall(p, ctlHotspots, n, &remote); err == nil {
			out = append(out, remote...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		if out[i].Actor != out[j].Actor {
			return out[i].Actor < out[j].Actor
		}
		return out[i].Node < out[j].Node
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// hotspotRanks is how many top entries the registry mirrors as gauges.
const hotspotRanks = 10

// rankLabels pre-renders the rank label values — the fixed-table idiom
// (see shardLabels) that keeps metric label cardinality bounded by
// construction.
var rankLabels = func() [hotspotRanks]string {
	var out [hotspotRanks]string
	for i := range out {
		out[i] = strconv.Itoa(i + 1)
	}
	return out
}()

// registerObsMetrics exposes the observability plane's own health on the
// registry: trace-ring and sampler coverage (dropped spans were silent
// before), flight-recorder activity, the codec's gob-fallback count, and the
// top-K hot-actor costs — all refreshed at scrape time via OnCollect.
func (s *System) registerObsMetrics() {
	reg := s.cfg.Metrics
	spansRec := reg.Counter("actop_trace_spans_recorded_total",
		"spans published to the trace ring, including since-overwritten ones")
	spansOver := reg.Counter("actop_trace_spans_overwritten_total",
		"spans lost to trace-ring wraparound")
	sampAcc := reg.Counter("actop_trace_sampler_accepted_total",
		"root-call sampling decisions that chose to trace")
	sampRej := reg.Counter("actop_trace_sampler_rejected_total",
		"root-call sampling decisions that declined to trace")
	flightRec := reg.Counter("actop_flight_events_total",
		"events recorded by the flight recorder, including overwritten ones")
	flightOver := reg.Counter("actop_flight_events_overwritten_total",
		"flight events lost to ring wraparound")
	flightDumps := reg.Counter("actop_flight_dumps_total",
		"anomaly-triggered black-box dumps captured")
	flightSupp := reg.Counter("actop_flight_triggers_suppressed_total",
		"anomaly triggers debounced away without a dump")
	gobOps := reg.Counter("actop_codec_gob_ops_total",
		"values this process encoded or decoded with the gob fallback (message types without Marshaler/Unmarshaler, and the traces and hotspots debug verbs)")
	var hotCost, hotTracked *metrics.GaugeFamily
	if s.prof != nil {
		hotCost = reg.Gauge("actop_hotspot_cost",
			"decayed cost of the rank-N hottest local actor", "rank")
		hotTracked = reg.Gauge("actop_hotspot_tracked",
			"actors resident in the hot-spot sketch")
	}
	reg.OnCollect(func(*metrics.Registry) {
		spansRec.SetTotal(s.spans.Recorded())
		spansOver.SetTotal(s.spans.Overwritten())
		sampAcc.SetTotal(s.sampler.Accepted())
		sampRej.SetTotal(s.sampler.Rejected())
		flightRec.SetTotal(s.flight.Recorded())
		flightOver.SetTotal(s.flight.Overwritten())
		flightDumps.SetTotal(s.flight.DumpsTaken())
		flightSupp.SetTotal(s.flight.Suppressed())
		gobOps.SetTotal(codec.GobOps())
		if s.prof != nil {
			hotTracked.Set(float64(s.prof.Tracked()))
			top := s.prof.Top(hotspotRanks)
			for i := 0; i < hotspotRanks; i++ {
				v := 0.0
				if i < len(top) {
					v = float64(top[i].Cost)
				}
				hotCost.Set(v, rankLabels[i])
			}
		}
	})
}
