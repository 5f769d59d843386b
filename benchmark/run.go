package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// runKind is what one pass over a workload is for.
type runKind int

const (
	// runPlain measures the end-to-end metrics: tracing off, no registry,
	// nothing observing the cluster but the clients.
	runPlain runKind = iota
	// runCounted is the same load with a metrics.Registry on every node
	// and the layer counters read at the phase boundaries.
	runCounted
	// runTraced is the same load with the runtime's TraceSampleRate at 1
	// and the benchmark's own spans recorded.
	runTraced
)

// An end-to-end run sets the cluster up again and again until setupBudget
// has gone — at least twice, at most setupRuns times — and setup_s is the
// fastest; only the last cluster carries the load. A cheap set-up (0.2 s on
// presence_local) is the one whose time a collection cycle or a neighbour's
// burst moves most, and the budget gives it the most tries.
const (
	setupRuns   = 8
	setupBudget = 2 * time.Second
)

// spanFileLimit bounds the span file a traced run writes: enough to rebuild
// call trees by hand without a 100 MB file.
const spanFileLimit = 50000

type runConfig struct {
	w       workload
	seed    uint64
	measure time.Duration
	kind    runKind
	setups  int       // cluster set-ups at most; setup_s is the fastest, the last one is driven
	outDir  string    // where a traced run writes its span file ("" = nowhere)
	log     io.Writer // progress lines
}

// opLatency is one op kind's latency: exact percentiles over the samples of
// the measured phase's quiet span.
type opLatency struct {
	p50Us, p95Us, p99Us float64
	samples             int // in the span: what the percentiles rest on
}

// runResult is everything one pass measured.
type runResult struct {
	attempted, failed, wrong uint64
	firstErr                 error // first failed op, audit failure or stall
	stalled                  bool

	setupS      float64
	opsPerSec   float64
	cpuUsPerOp  float64
	allocsPerOp float64
	heapMB      float64
	lat         [opKinds]opLatency

	// runCounted
	before, after  nodeCounts // around the measured phase
	stage          stageCounts
	heapPerActor   float64
	fractionStart  float64 // remote call fraction before the optimizers start
	fractionSteady float64 // over the measured phase
	tHalfS         float64 // optimizer start → fraction halfway to steady
	movesPerS      float64 // migrations per second of the measured phase
	ops            uint64  // ops answered in the measured phase

	// runTraced
	spans spanStats
	rt    runtimeTrace
}

func (r *runResult) correct() bool { return r.firstErr == nil && r.wrong == 0 && !r.stalled }

// fractionPoint is one sample of the cluster's remote call fraction.
type fractionPoint struct {
	at       time.Duration // since the optimizers started
	fraction float64
}

// runWorkload sets a cluster up, drives it through the workload's phases
// and tears it down.
func runWorkload(cfg runConfig) (*runResult, error) {
	w := &cfg.w
	ph := phasesFor(w, cfg.measure)
	res := &runResult{}
	pad := make([]byte, w.pad)
	for i := range pad {
		pad[i] = byte(i)
	}
	// Keys for the whole population, and for the sessions a run opens: at
	// 2 % of 65 K ops/s over a 60 s run, four times the initial population.
	// Past the table, key formats on the fly.
	keys := newKeyTable(max(w.games*membersPerGame, 4*w.sessions))
	d := newDriver(w, cfg.seed, keys, pad, cfg.measure)

	c, topo, heapBase, err := setUp(cfg, ph, keys, pad, res)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	if cfg.kind == runCounted {
		if acts := c.counts(false).activations; acts > 0 {
			res.heapPerActor = float64(liveHeap()-heapBase) / float64(acts)
		}
	}

	// Thread tuning runs from the start, so the controller has settled by
	// the time the clock starts; partitioning starts after the warm-up, so
	// the adapt phase begins from the random placement.
	if w.threadTuning {
		c.startOptimizers(ph.period)
	}
	d.start(c)
	var fractions []fractionPoint
	var optStart time.Time
	last := c.counts(false)
	// each runs about once per exchange period: churn, and on a counted run
	// one point of the remote-fraction curve.
	each := func() {
		if !w.partitioning {
			return
		}
		for _, s := range topo.tick() {
			for _, g := range []int{s.a, s.b} {
				if err := c.setMembers(g, topo.members[g], g%nodes, keys); err != nil && res.firstErr == nil {
					res.firstErr = fmt.Errorf("churn: set members of game %d: %w", g, err)
				}
			}
		}
		if cfg.kind == runCounted {
			now := c.counts(false)
			fractions = append(fractions, fractionPoint{at: time.Since(optStart), fraction: remoteFraction(last, now)})
			last = now
		}
	}
	var rates []reading // at the measured phase's window boundaries
	stalled := func(err error) bool {
		if err == nil {
			return false
		}
		res.stalled, res.firstErr = true, err
		return true
	}
	if !stalled(d.idle(ph.warm, 0, nil)) && w.partitioning {
		now := c.counts(false)
		res.fractionStart = remoteFraction(last, now)
		last = now
		c.startOptimizers(ph.period)
		optStart = time.Now()
		stalled(d.idle(ph.adapt, ph.period, each))
	}
	if !res.stalled {
		if cfg.kind == runCounted {
			if !w.threadTuning {
				c.resetStages()
			}
			res.before = c.counts(true)
		}
		m := modeMeasure
		if cfg.kind == runTraced {
			m = modeTraced
		}
		began := time.Now()
		rs, err := d.measure(m, ph.measure, ph.period, each)
		stalled(err)
		if cfg.kind == runTraced { // before the audit's calls wash through the rings
			res.rt = c.readRuntimeTrace(began, time.Now())
		}
		if cfg.kind == runCounted {
			res.after = c.counts(true)
			res.stage = c.stages()
		}
		rates = rs
	}

	// Quiesce. After a stall the ops in flight would sit out their timeouts;
	// stopping the cluster under them fails them now, and they are counted.
	d.halt()
	if res.stalled {
		c.stop()
	}
	d.wait()
	for _, o := range c.opts {
		o.Stop()
	}
	var clientErr error
	res.attempted, res.failed, res.wrong, clientErr = d.totals()
	if res.firstErr == nil {
		res.firstErr = clientErr
	}
	d.summarize(res, rates, heapBase, cfg.log)
	if !res.stalled {
		if err := d.audit(topo); err != nil && res.firstErr == nil {
			res.firstErr = err
		}
	}

	if cfg.kind == runCounted && w.partitioning {
		res.fractionSteady = remoteFraction(res.before, res.after)
		res.tHalfS = halfTime(fractions, res.fractionStart, res.fractionSteady)
		fmt.Fprintf(cfg.log, "# %s: remote call fraction by exchange period, from %.3f:", w.name, res.fractionStart)
		for _, p := range fractions {
			fmt.Fprintf(cfg.log, " %.2f", p.fraction)
		}
		fmt.Fprintln(cfg.log)
	}
	if cfg.kind == runTraced {
		spans := c.app.rec.spans()
		res.spans = analyzeSpans(spans)
		res.spans.Dropped = int(c.app.rec.dropped.Load())
		if cfg.outDir != "" {
			sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
			path := filepath.Join(cfg.outDir, "spans-"+w.name+".jsonl")
			first := spans[:min(len(spans), spanFileLimit)]
			if err := writeSpans(path, first); err != nil {
				return nil, fmt.Errorf("benchmark: write spans: %w", err)
			}
			fmt.Fprintf(cfg.log, "# %s: %d spans recorded (%d dropped), first %d written to %s\n",
				w.name, len(spans), res.spans.Dropped, len(first), path)
		}
	}
	return res, nil
}

// setUp starts a cluster and populates it, up to cfg.setups times over
// (see setupBudget); the last cluster is the one returned, and res.setupS
// the shortest of the times: a neighbour on the host only ever lengthens
// one, as with the quiet span. heapBase is the live heap just before that
// last cluster was started; the collection that reads it also gives every
// set-up the same start.
func setUp(cfg runConfig, ph phases, keys keyTable, pad []byte, res *runResult) (c *cluster, topo *topology, heapBase int64, err error) {
	w := &cfg.w
	var took []float64
	first := time.Now()
	for {
		heapBase = liveHeap()
		begin := time.Now()
		c, err = startCluster(w, clusterOpts{
			seed: cfg.seed, period: ph.period,
			registry: cfg.kind == runCounted, traced: cfg.kind == runTraced,
			spanCap: spanCapacity(w, cfg.measure),
		})
		if err != nil {
			return nil, nil, 0, err
		}
		topo = newTopology(w, cfg.seed)
		if err := c.populate(topo, keys, pad); err != nil {
			c.stop()
			return nil, nil, 0, fmt.Errorf("benchmark: populate %s: %w", w.name, err)
		}
		took = append(took, time.Since(begin).Seconds())
		if len(took) >= cfg.setups || (len(took) >= 2 && time.Since(first) >= setupBudget) {
			break
		}
		c.stop()
	}
	res.setupS = slices.Min(took)
	fmt.Fprintf(cfg.log, "# %s: set up %d time(s) in %.3f s, fastest %.3f s\n", w.name, len(took), took, res.setupS)
	return c, topo, heapBase, nil
}

// summarize turns the measured phase's samples and boundary readings into
// the run's numbers: it finds the quiet span and takes everything timed
// from it.
func (d *driver) summarize(res *runResult, rs []reading, heapBase int64, log io.Writer) {
	var (
		merged [opKinds]*latencyWindows
		ops    [windows]int
		total  int
	)
	for k := range merged {
		merged[k] = d.latencies(opKind(k))
		for w := range ops {
			ops[w] += merged[k].count(w)
		}
		total += len(merged[k].samples)
	}
	if total == 0 {
		return // stalled before the phase, or nothing was answered in it
	}
	first := quietSpan(&ops)
	inSpan := 0
	for _, n := range ops[first : first+spanWindows] {
		inSpan += n
	}
	windowSecs := float64(d.windowNs) / 1e9
	res.opsPerSec = float64(inSpan) / (spanWindows * windowSecs)
	var peak float64
	res.cpuUsPerOp, res.allocsPerOp, peak = phaseRates(rs, first)
	res.heapMB = (peak - float64(heapBase)) / (1 << 20)
	if len(rs) > 1 {
		a, b := rs[0], rs[len(rs)-1]
		res.ops = b.ops - a.ops
		res.movesPerS = float64(res.after.migrations-res.before.migrations) / (float64(b.atNs-a.atNs) / 1e9)
	}
	for k, lw := range merged {
		l := &res.lat[k]
		var ps []float64
		if ps, l.samples = lw.spanPercentiles(first, 0.50, 0.95, 0.99); l.samples > 0 {
			l.p50Us, l.p95Us, l.p99Us = ps[0]/1e3, ps[1]/1e3, ps[2]/1e3
		}
	}

	name := d.w.name
	fmt.Fprintf(log, "# %s ops/s by window (%d of %.0f ms):", name, windows, 1e3*windowSecs)
	for _, n := range ops {
		fmt.Fprintf(log, " %.0f", float64(n)/windowSecs)
	}
	fmt.Fprintln(log)
	whole := float64(total) / (windows * windowSecs)
	fmt.Fprintf(log, "# %s quiet span: windows %d-%d (%.2f-%.2f s into the phase), %.1f ops/s; whole phase %.1f ops/s (%.0f %% of it)\n",
		name, first, first+spanWindows-1, float64(first)*windowSecs, float64(first+spanWindows)*windowSecs,
		res.opsPerSec, whole, 100*whole/res.opsPerSec)
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// spanCapacity sizes the recorder for a traced phase: up to 150 K ops/s,
// one op in spanSampleEvery traced, at most 21 spans per op (a status).
func spanCapacity(w *workload, measure time.Duration) int {
	perOp := 3.0 // root, call, turn
	perOp += w.statusShare * 18
	return int(measure.Seconds()*150e3/spanSampleEvery*perOp) + 4096
}

// halfTime is when the remote fraction first got halfway from start to
// steady, in seconds since the optimizers started (0 when it never moved).
func halfTime(points []fractionPoint, start, steady float64) float64 {
	if start <= steady {
		return 0
	}
	half := (start + steady) / 2
	for _, p := range points {
		if p.fraction <= half {
			return p.at.Seconds()
		}
	}
	return 0
}
