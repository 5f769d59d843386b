package actor

import (
	"time"

	"actop/internal/trace"
)

// This file is the actor-layer half of the tracing plane (internal/trace):
// sampling at the root call, hop-carried context on envelopes, per-turn
// timing through the activation mailbox, and cluster-wide span collection.

// traceCtx is the sampled-trace identity a call runs under: the trace it
// belongs to and the span that issued it. A nil traceCtx means unsampled —
// the whole capture path reduces to nil checks.
type traceCtx struct {
	traceID  uint64
	parentID uint64
}

// turnTiming rides a traced invocation through the activation mailbox:
// trace identity in (so calls the turn makes join the trace), measured
// mailbox wait and execution time out. The worker running the turn writes
// the timings before the invocation's completer fires — a waiter's channel
// send, or the same goroutine replying — which orders them before any reader.
type turnTiming struct {
	traceID uint64
	spanID  uint64

	enqueuedAt time.Time
	workQueue  time.Duration
	exec       time.Duration
	epoch      uint64
	// snapshot marks a turn that triggered a durable snapshot capture, so
	// the span annotates durability cost the way it annotates retries.
	snapshot bool
}

// ctx builds the trace context turns executed under this timing inherit.
func (t *turnTiming) ctx() *traceCtx {
	return &traceCtx{traceID: t.traceID, parentID: t.spanID}
}

// finishCall completes a call's client-side accounting: the span total, the
// network residual, the ring publish, and the per-method registry series.
// Durations shipped in the reply are already in the span; Network is what
// remains of the measured total after every attributed component, so a
// client span's components always sum to its total (clamped at zero when
// retries make the last attempt cheaper than the whole call).
func (s *System) finishCall(sp *trace.Span, start time.Time, method string, err error) {
	if sp == nil && s.callDur == nil && s.sloWin == nil {
		return
	}
	total := time.Since(start)
	if s.sloWin != nil {
		// SLO watcher window: the obs loop snapshots and resets this on
		// every check tick (obs.go), so it always holds roughly the last
		// second of call latency.
		s.sloWin.Record(total)
	}
	if s.callDur != nil {
		if sp != nil {
			// Traced call: offer its trace id as a tail-latency exemplar so
			// a p99 spike on the scrape page links to a full span tree.
			s.callDur.ObserveExemplar(total, sp.TraceID, method)
		} else {
			s.callDur.Observe(total, method)
		}
	}
	if sp == nil {
		return
	}
	sp.Total = total
	if err != nil {
		sp.Err = err.Error()
	}
	if sp.Kind == "client" {
		if resid := total - sp.ComponentSum(); resid > 0 {
			sp.Network = resid
		}
	}
	s.spans.Put(sp)
	if s.callComp != nil {
		for _, c := range trace.Components {
			if v := sp.Component(c); v > 0 {
				s.callComp.Observe(v, method, c)
			}
		}
	}
}

// TraceRing exposes this node's completed-span ring (read-only use:
// Snapshot/ForTrace).
func (s *System) TraceRing() *trace.Ring { return s.spans }

// ClusterSpans collects every buffered span of one trace from the whole
// cluster — this node's ring plus a control RPC to each live peer. Dead
// peers are not asked (each would hold the call for a full CallTimeout) and
// unreachable ones are skipped: a partial tree still renders, with the
// missing hops absent (Assemble tolerates one-sided spans).
func (s *System) ClusterSpans(traceID uint64) []trace.Span {
	spans := s.spans.ForTrace(traceID)
	for _, p := range s.livePeers() {
		if p == s.Node() {
			continue
		}
		var remote []trace.Span
		if err := s.controlCall(p, ctlTraces, traceID, &remote); err == nil {
			spans = append(spans, remote...)
		}
	}
	return spans
}

// ClusterTrace assembles the cross-node call tree for one trace.
func (s *System) ClusterTrace(traceID uint64) []*trace.TreeNode {
	return trace.Assemble(s.ClusterSpans(traceID))
}
