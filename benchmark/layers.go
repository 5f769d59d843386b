package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"time"

	"actop/internal/seda"
	"actop/internal/trace"
)

// Counts at the boundaries of a workload run, read through the runtime's
// public accessors only: System.Stats, Failures, Stages().Snapshot,
// Optimizer.ThreadStatus/Counters and the metrics.Registry handed to each
// node in Config.Metrics. Ratios are taken here, where the work happened.

// nodeCounts is the cluster-wide sum of the monotonic counters.
type nodeCounts struct {
	local, remote         uint64 // actor calls resolved on the caller's node / sent to a peer
	redirects, retries    uint64
	migrations            uint64
	activations           int
	locHits, locMisses    uint64
	locEvictions          uint64
	minActs, maxActs      int // per-node activation extremes (imbalance)
	rounds, moved         int // partition exchange rounds run, actors they moved
	ticks, applies, holds uint64
	skips                 uint64
}

// counts reads the counters. The location-cache counters exist only in the
// nodes' registries, whose whole exposition has to be rendered to get at
// them; cache asks for that, and the per-period readings do without.
func (c *cluster) counts(cache bool) nodeCounts {
	var n nodeCounts
	for i, sys := range c.nodes {
		st := sys.Stats()
		n.local += st.CallsLocal
		n.remote += st.CallsRemote
		n.redirects += st.Redirects
		n.migrations += st.MigrationsIn
		n.retries += sys.Failures().Retries
		n.activations += st.Activations
		if i == 0 || st.Activations < n.minActs {
			n.minActs = st.Activations
		}
		if st.Activations > n.maxActs {
			n.maxActs = st.Activations
		}
	}
	for _, reg := range c.regs {
		if !cache {
			break
		}
		var buf bytes.Buffer
		reg.Write(&buf)
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			name, value, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				continue
			}
			switch name {
			case "actop_loccache_hits_total":
				n.locHits += v
			case "actop_loccache_misses_total":
				n.locMisses += v
			case "actop_loccache_evictions_total":
				n.locEvictions += v
			}
		}
	}
	for _, o := range c.opts {
		rounds, moved, _ := o.Counters()
		n.rounds += rounds
		n.moved += moved
		ts := o.ThreadStatus()
		n.ticks += ts.Ticks
		n.applies += ts.Applies
		n.holds += ts.Holds
		n.skips += ts.Skips
	}
	return n
}

// remoteFraction is the share of actor calls between a and b that crossed
// a wire.
func remoteFraction(a, b nodeCounts) float64 {
	local, remote := b.local-a.local, b.remote-a.remote
	if local+remote == 0 {
		return 0
	}
	return float64(remote) / float64(local+remote)
}

var stageNames = [3]string{"recv", "work", "send"}

// stageCounts is one view of the three stages, summed over the nodes.
type stageCounts struct {
	waitUs, busyUs [3]float64 // mean per task
	workers        [3]float64 // mean per node
}

// resetStages opens a fresh measurement window on every stage. Not for
// workloads with thread tuning on: there the controller owns the windows.
func (c *cluster) resetStages() {
	for _, sys := range c.nodes {
		recv, work, send := sys.Stages()
		for _, st := range []*seda.Stage{recv, work, send} {
			st.Snapshot()
		}
	}
}

// stages reads the stage windows. With thread tuning on, Snapshot would
// steal the window the controller measures, so the controller's own last
// view (window medians) is read through ThreadStatus instead.
func (c *cluster) stages() stageCounts {
	var out stageCounts
	var wait, busy [3]time.Duration
	var processed [3]uint64
	for n, sys := range c.nodes {
		recv, work, send := sys.Stages()
		for i, st := range []*seda.Stage{recv, work, send} {
			out.workers[i] += float64(st.Workers()) / float64(len(c.nodes))
			if c.w.threadTuning {
				if ts := c.opts[n].ThreadStatus(); i < len(ts.Stages) {
					out.waitUs[i] += ts.Stages[i].WaitP50 * 1e3 / float64(len(c.nodes))
					out.busyUs[i] += ts.Stages[i].BusyP50 * 1e3 / float64(len(c.nodes))
				}
				continue
			}
			snap := st.Snapshot()
			wait[i] += snap.QueueWait
			busy[i] += snap.BusyTime
			processed[i] += snap.Processed
		}
	}
	if !c.w.threadTuning {
		for i := range processed {
			if processed[i] > 0 {
				out.waitUs[i] = float64(wait[i]) / float64(processed[i]) / 1e3
				out.busyUs[i] = float64(busy[i]) / float64(processed[i]) / 1e3
			}
		}
	}
	return out
}

// runtimeTrace is what the traced run reads from the runtime's own spans.
type runtimeTrace struct {
	clientSpans int
	share       map[string]float64 // component → share of the summed component means
	sumUs       float64            // mean component sum of a client (remote-call) span
}

// readRuntimeTrace decomposes, with trace.Decompose, the remote calls that
// began in [from, to) and are still in the nodes' span rings (the most
// recent 64 K per node) — the measured phase, not the populate before it.
func (c *cluster) readRuntimeTrace(from, to time.Time) runtimeTrace {
	var client []trace.Span
	for _, sys := range c.nodes {
		for _, sp := range sys.TraceRing().Snapshot(0) {
			if sp.Kind == "client" && sp.Err == "" && !sp.Start.Before(from) && sp.Start.Before(to) {
				client = append(client, sp)
			}
		}
	}
	rt := runtimeTrace{clientSpans: len(client), share: make(map[string]float64, len(trace.Components))}
	if len(client) == 0 {
		return rt
	}
	d := trace.Decompose(client)
	var total float64
	for _, comp := range trace.Components {
		total += float64(d.ComponentHistogram(comp).Mean())
	}
	for _, comp := range trace.Components {
		if total > 0 {
			rt.share[comp] = float64(d.ComponentHistogram(comp).Mean()) / total
		}
	}
	rt.sumUs = float64(d.SumMean()) / 1e3
	return rt
}
