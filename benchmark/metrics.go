package main

// The metric ledger: every name the benchmark reports, with its unit, its
// direction, and for the end-to-end metrics the share of the parent's
// median by which it may worsen. BENCHMARK.json carries the same table for
// the driver; TestLedgerMatchesBenchmarkJSON keeps the two equal.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only
}

// endToEnd is what a user of the cluster sees, measured with tracing off.
// Every workload reports every one, so the latency of the workload's second
// op — status on the presence workloads, open on heartbeat_churn — shares
// one name. The bounds are what this shared host can resolve (README,
// "Bounds"): on one CPU, over their quiet spans, identical runs spread
// 6–14 % in anything timed, and now and then a neighbour slows a whole run
// by a third, so a bound much tighter than twice that spread would reject
// noise; allocations are counted, not timed, and repeat within 1.5 %. Tail
// latencies (p95, p99) are measured and printed on every run but moved
// 15–27 % between identical runs, so they are in the per-layer list, which
// carries no bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.25},
	{"beat_p50_us", "us", "lower", 0.25},
	{"status_or_open_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us/op", "lower", 0.25},
	{"allocs_per_op", "allocs/op", "lower", 0.05},
	{"heap_mb", "MiB", "lower", 0.25},
}

// perLayer is what the traced invocation reports; the prefix is the module.
var perLayer = []metricDef{
	// Ladder probes.
	{name: "codec.marshal_ns", unit: "ns", better: "lower"},
	{name: "codec.marshal_allocs", unit: "allocs/op", better: "lower"},
	{name: "codec.unmarshal_ns", unit: "ns", better: "lower"},
	{name: "codec.unmarshal_allocs", unit: "allocs/op", better: "lower"},
	{name: "codec.copy_ns", unit: "ns", better: "lower"},
	{name: "codec.copy_allocs", unit: "allocs/op", better: "lower"},
	{name: "codec.frame_bytes", unit: "B", better: "lower"},
	{name: "transport.send_ns", unit: "ns", better: "lower"},
	{name: "transport.send_allocs", unit: "allocs/op", better: "lower"},
	{name: "transport.rtt_us", unit: "us", better: "lower"},
	{name: "transport.msgs_per_s", unit: "1/s", better: "higher"},
	{name: "seda.hop_ns", unit: "ns", better: "lower"},
	{name: "seda.submit_allocs", unit: "allocs/op", better: "lower"},
	{name: "actor.local_call_ns", unit: "ns", better: "lower"},
	{name: "actor.local_call_allocs", unit: "allocs/op", better: "lower"},
	{name: "actor.remote_call_us", unit: "us", better: "lower"},
	{name: "actor.remote_call_allocs", unit: "allocs/op", better: "lower"},
	{name: "actor.first_call_us", unit: "us", better: "lower"},
	{name: "actor.migrate_us", unit: "us", better: "lower"},
	{name: "sampling.observe_ns", unit: "ns", better: "lower"},
	{name: "partition.decide_ms", unit: "ms", better: "lower"},
	{name: "partition.engine_cut_fraction", unit: "ratio", better: "lower"},
	{name: "partition.multilevel_cut_fraction", unit: "ratio", better: "lower"},
	{name: "queuing.solve_ns", unit: "ns", better: "lower"},
	{name: "metrics.record_ns", unit: "ns", better: "lower"},
	{name: "hotspot.observe_ns", unit: "ns", better: "lower"},
	// Counts at the boundaries of the workload run.
	{name: "actor.calls_per_op", unit: "count", better: "lower"},
	{name: "actor.remote_call_fraction", unit: "ratio", better: "lower"},
	{name: "actor.redirects", unit: "count", better: "lower"},
	{name: "actor.retries", unit: "count", better: "lower"},
	{name: "actor.migrations", unit: "count", better: "lower"},
	{name: "actor.loccache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "actor.loccache_evictions", unit: "count", better: "lower"},
	{name: "actor.heap_bytes_per_actor", unit: "B", better: "lower"},
	{name: "seda.recv_wait_us", unit: "us", better: "lower"},
	{name: "seda.work_wait_us", unit: "us", better: "lower"},
	{name: "seda.send_wait_us", unit: "us", better: "lower"},
	{name: "seda.recv_busy_us", unit: "us", better: "lower"},
	{name: "seda.work_busy_us", unit: "us", better: "lower"},
	{name: "seda.send_busy_us", unit: "us", better: "lower"},
	{name: "seda.recv_workers", unit: "count", better: "lower"},
	{name: "seda.work_workers", unit: "count", better: "lower"},
	{name: "seda.send_workers", unit: "count", better: "lower"},
	{name: "partition.remote_leg_fraction_start", unit: "ratio", better: "lower"},
	{name: "partition.remote_leg_fraction_steady", unit: "ratio", better: "lower"},
	{name: "partition.t_half_s", unit: "s", better: "lower"},
	{name: "partition.rounds", unit: "count", better: "lower"},
	{name: "partition.actors_moved", unit: "count", better: "lower"},
	{name: "partition.moves_per_s_steady", unit: "1/s", better: "lower"},
	{name: "partition.imbalance", unit: "count", better: "lower"},
	{name: "partition.oracle_gap", unit: "ratio", better: "higher"},
	{name: "core.ticks", unit: "count", better: "higher"},
	{name: "core.applies", unit: "count", better: "lower"},
	{name: "core.holds", unit: "count", better: "higher"},
	{name: "core.skips", unit: "count", better: "lower"},
	{name: "bench.beat_p95_us", unit: "us", better: "lower"},
	{name: "bench.beat_p99_us", unit: "us", better: "lower"},
	{name: "bench.status_or_open_p95_us", unit: "us", better: "lower"},
	{name: "bench.status_or_open_p99_us", unit: "us", better: "lower"},
	// Traced run.
	{name: "actor.turn_self_us", unit: "us", better: "lower"},
	{name: "actor.local_call_overhead_us", unit: "us", better: "lower"},
	{name: "actor.remote_call_overhead_us", unit: "us", better: "lower"},
	{name: "bench.driver_self_us", unit: "us", better: "lower"},
	{name: "trace.serialize_share", unit: "ratio", better: "lower"},
	{name: "trace.send_queue_share", unit: "ratio", better: "lower"},
	{name: "trace.network_share", unit: "ratio", better: "lower"},
	{name: "trace.recv_queue_share", unit: "ratio", better: "lower"},
	{name: "trace.work_queue_share", unit: "ratio", better: "lower"},
	{name: "trace.exec_share", unit: "ratio", better: "higher"},
	{name: "trace.reply_send_share", unit: "ratio", better: "lower"},
	{name: "trace.closure_pct", unit: "%", better: "higher"},
	{name: "trace.unattributed_pct", unit: "%", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// secondOp is the workload's op beside beat.
func secondOp(w *workload) opKind {
	if w.sessions > 0 {
		return opOpen
	}
	return opStatus
}

// endToEndValues names a plain run's measurements.
func endToEndValues(w *workload, r *runResult) map[string]float64 {
	second := r.lat[secondOp(w)]
	return map[string]float64{
		"setup_s":               r.setupS,
		"throughput_ops_s":      r.opsPerSec,
		"beat_p50_us":           r.lat[opBeat].p50Us,
		"status_or_open_p50_us": second.p50Us,
		"cpu_us_per_op":         r.cpuUsPerOp,
		"allocs_per_op":         r.allocsPerOp,
		"heap_mb":               r.heapMB,
	}
}

// layerValues names a traced invocation's measurements: the ladder, the
// counted pass, the traced pass, and for presence_converge the throughput
// of a presence_local pass (the oracle placement).
func layerValues(w *workload, ladder map[string]float64, counted, traced *runResult, oracleOpsPerSec float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for k, v := range ladder {
		m[k] = v
	}
	a, b := counted.before, counted.after
	calls := float64((b.local - a.local) + (b.remote - a.remote))
	if counted.ops > 0 {
		m["actor.calls_per_op"] = calls / float64(counted.ops)
	}
	m["actor.remote_call_fraction"] = remoteFraction(a, b)
	m["actor.redirects"] = float64(b.redirects - a.redirects)
	m["actor.retries"] = float64(b.retries - a.retries)
	m["actor.migrations"] = float64(b.migrations - a.migrations)
	if lookups := float64((b.locHits - a.locHits) + (b.locMisses - a.locMisses)); lookups > 0 {
		m["actor.loccache_hit_ratio"] = float64(b.locHits-a.locHits) / lookups
	}
	m["actor.loccache_evictions"] = float64(b.locEvictions - a.locEvictions)
	m["actor.heap_bytes_per_actor"] = counted.heapPerActor
	for i, st := range stageNames {
		m["seda."+st+"_wait_us"] = counted.stage.waitUs[i]
		m["seda."+st+"_busy_us"] = counted.stage.busyUs[i]
		m["seda."+st+"_workers"] = counted.stage.workers[i]
	}
	m["partition.remote_leg_fraction_start"] = counted.fractionStart
	m["partition.remote_leg_fraction_steady"] = counted.fractionSteady
	m["partition.t_half_s"] = counted.tHalfS
	m["partition.rounds"] = float64(b.rounds)
	m["partition.actors_moved"] = float64(b.moved)
	m["partition.moves_per_s_steady"] = counted.movesPerS
	m["partition.imbalance"] = float64(b.maxActs - b.minActs)
	if oracleOpsPerSec > 0 {
		m["partition.oracle_gap"] = counted.opsPerSec / oracleOpsPerSec
	}
	m["core.ticks"] = float64(b.ticks)
	m["core.applies"] = float64(b.applies)
	m["core.holds"] = float64(b.holds)
	m["core.skips"] = float64(b.skips)
	beat, second := counted.lat[opBeat], counted.lat[secondOp(w)]
	m["bench.beat_p95_us"], m["bench.beat_p99_us"] = beat.p95Us, beat.p99Us
	m["bench.status_or_open_p95_us"], m["bench.status_or_open_p99_us"] = second.p95Us, second.p99Us

	sp := traced.spans
	m["actor.turn_self_us"] = sp.TurnSelfUs
	m["actor.local_call_overhead_us"] = sp.LocalCallOverheadUs
	m["actor.remote_call_overhead_us"] = sp.RemoteCallOverheadUs
	m["bench.driver_self_us"] = sp.DriverSelfUs
	for comp, share := range traced.rt.share {
		m["trace."+comp+"_share"] = share
	}
	if sp.RemoteCallUs > 0 {
		m["trace.closure_pct"] = 100 * traced.rt.sumUs / sp.RemoteCallUs
	}
	m["trace.unattributed_pct"] = unattributedPct(sp, traced.rt)
	if counted.opsPerSec > 0 {
		m["trace.overhead_pct"] = 100 * (counted.opsPerSec - traced.opsPerSec) / counted.opsPerSec
	}
	for _, def := range perLayer { // a metric with nothing to measure on this workload reads 0
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0
		}
	}
	return m
}

// unattributedPct is the share of an op's latency — a status op's where the
// workload has them — that neither the benchmark's spans nor the runtime's
// components explain. Turn self time, local-call overhead and the driver's
// own time are named layers; a remote call's overhead is explained as far
// as the runtime's non-exec components of the same calls cover it.
func unattributedPct(sp spanStats, rt runtimeTrace) float64 {
	op := sp.Status
	if op.Ops == 0 {
		op = sp.All
	}
	if op.TotalUs <= 0 || sp.RemoteCallOverheadUs <= 0 {
		return 0
	}
	explained := rt.sumUs * (1 - rt.share["exec"]) / sp.RemoteCallOverheadUs
	if explained > 1 {
		explained = 1
	}
	return 100 * op.RemoteOvhUs * (1 - explained) / op.TotalUs
}
