package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"actop/internal/actor"
)

// The driver is a closed loop: each client sends its next op when the
// previous one has been answered, so a slower system is offered less load.
// Open-loop pacing is deliberately absent — on two shared cores the pacer
// competes with the system under test and p99 moved 2× between identical
// runs (README).

// mode is what the clients are doing right now; the controller flips it.
type mode uint32

const (
	modeIdle    mode = iota // drive load, record nothing (warm-up, adapt)
	modeMeasure             // drive load, record latencies
	modeTraced              // as modeMeasure, and record spans for sampled ops
	modeStop                // finish the op in hand and return
)

// spanSampleEvery is how many ops of a client share one set of benchmark
// spans in a traced phase. The runtime traces every call (TraceSampleRate
// 1) regardless; sampling the benchmark's own spans keeps a 100 K ops/s
// workload's buffers in tens of megabytes.
const spanSampleEvery = 4

// stallLimit aborts a run in which no op completes for this long: a wedged
// cluster should cost two seconds and a failed result, not the time cap.
const stallLimit = 2 * time.Second

var errStalled = errors.New("benchmark: no op completed within the stall limit; run aborted")

// client is one closed-loop caller. Only its own goroutine touches the
// unsynchronised fields until the driver has seen it return.
type client struct {
	id  int
	gen *opGen

	done atomic.Uint64 // ops answered, ok or not, in every mode

	lat       [opKinds]latencyWindows // latencies of the recording phase, ns
	window    int                     // window the client is filling
	attempted uint64                  // ops issued, in every mode
	failed    uint64                  // of those, answered with an error
	wrong     uint64                  // of those, answered with a wrong reply
	firstErr  error

	// acks counts acknowledged beats per record, in every mode; the audit
	// compares the records' counters against it. Indexed by record on a
	// presence workload and by the client's own session numbering otherwise.
	acks []uint32

	_ [64]byte // keep the next client's counters off this cache line
}

// driver owns the clients of one run.
type driver struct {
	w       *workload
	c       *cluster
	keys    keyTable
	pad     []byte
	clients []*client

	epoch      time.Time     // all of a run's times are offsets from here
	stall      time.Duration // stallLimit, shortened by the watchdog's test
	mode       atomic.Uint32
	phaseStart atomic.Int64 // offset at which the recording phase began
	windowNs   int64
	wg         sync.WaitGroup
}

// newDriver builds the clients and preallocates their sample buffers, before
// any cluster exists, so that the buffers are part of the heap baseline.
func newDriver(w *workload, seed uint64, keys keyTable, pad []byte, measure time.Duration) *driver {
	d := &driver{w: w, keys: keys, pad: pad, epoch: time.Now(), stall: stallLimit, windowNs: int64(measure) / windows}
	// Room for 150 K ops/s across the clients; a faster run grows the
	// slices by appending, which costs a few amortised allocations.
	room := measure.Seconds()*150e3/float64(w.clients) + 1024
	records := w.games * membersPerGame
	if w.sessions > 0 {
		records = w.sessions / w.clients * 2
	}
	for i := 0; i < w.clients; i++ {
		cl := &client{id: i, gen: newOpGen(w, seed, i), acks: make([]uint32, records)}
		for k, share := range [opKinds]float64{opBeat: 1 - w.statusShare - w.openShare, opStatus: w.statusShare, opOpen: w.openShare} {
			cl.lat[k].samples = make([]int64, 0, int(room*share*1.2))
		}
		d.clients = append(d.clients, cl)
	}
	return d
}

// start sets the clients loose on c, in modeIdle.
func (d *driver) start(c *cluster) {
	d.c = c
	d.mode.Store(uint32(modeIdle))
	for _, cl := range d.clients {
		d.wg.Add(1)
		go func(cl *client) {
			defer d.wg.Done()
			d.loop(cl)
		}(cl)
	}
}

// loop is one client's life.
func (d *driver) loop(cl *client) {
	var n uint64
	for {
		m := mode(d.mode.Load())
		if m == modeStop {
			return
		}
		o := cl.gen.next()
		n++
		var root, call spanHandle
		if m == modeTraced && n%spanSampleEvery == 0 {
			label := labelBeatOp
			if o.kind == opStatus {
				label = labelStatus
			}
			root = d.c.app.rec.begin(0, spanRoot, label, uint8(o.node))
			call = root.child(spanCall, label)
		}
		start := time.Since(d.epoch)
		err, wrong := d.issue(o, call.id)
		end := time.Since(d.epoch)
		call.end()
		cl.attempted++
		switch {
		case err != nil:
			cl.failed++
			if cl.firstErr == nil {
				cl.firstErr = fmt.Errorf("%s %d: %w", opNames[o.kind], o.target, err)
			}
		case wrong:
			cl.wrong++
		case o.kind == opBeat:
			cl.ack(d.ackIndex(o.target))
		}
		if err == nil && (m == modeMeasure || m == modeTraced) {
			cl.record(o.kind, int64(start), int64(end), d.phaseStart.Load(), d.windowNs)
		}
		root.end()
		cl.done.Add(1)
	}
}

// ackIndex maps a beat's target onto the client's acks slice.
func (d *driver) ackIndex(target int) int {
	if d.w.sessions > 0 {
		return target / d.w.clients
	}
	return target
}

// acked is how many beats to record i the client saw acknowledged.
func (cl *client) acked(i int) uint64 {
	if i >= len(cl.acks) {
		return 0 // opened, never beaten
	}
	return uint64(cl.acks[i])
}

func (cl *client) ack(i int) {
	for i >= len(cl.acks) {
		cl.acks = append(cl.acks, make([]uint32, len(cl.acks)+1)...)
	}
	cl.acks[i]++
}

// issue sends one op into the cluster and checks the reply's shape.
func (d *driver) issue(o op, span uint64) (err error, wrong bool) {
	sys := d.c.nodes[o.node]
	switch o.kind {
	case opStatus:
		var out roster
		err = sys.Call(actor.Ref{Type: kindConsole, Key: d.keys.key(o.target)}, mStatus, statusReq{Span: span}, &out)
		return err, err == nil && len(out.Members) != membersPerGame
	case opOpen:
		var out ack
		err = sys.Call(actor.Ref{Type: kindSession, Key: d.keys.key(o.target)}, mOpen, beatMsg{Span: span, Pad: d.pad}, &out)
		return err, err == nil && out.N != 0
	default:
		kind := kindPresence
		if d.w.sessions > 0 {
			kind = kindSession
		}
		var out ack
		err = sys.Call(actor.Ref{Type: kind, Key: d.keys.key(o.target)}, mBeat, beatMsg{Span: span, Seq: 1, Pad: d.pad}, &out)
		return err, err == nil && out.N == 0
	}
}

// record files one answered op of the recording phase under the window it
// completed in.
func (cl *client) record(k opKind, start, end, phaseStart, windowNs int64) {
	w := int((end - phaseStart) / windowNs)
	if w >= windows {
		w = windows - 1 // answered just after the phase closed
	}
	for cl.window < w {
		cl.window++
		for kk := range cl.lat {
			cl.lat[kk].bounds[cl.window] = len(cl.lat[kk].samples)
		}
	}
	cl.lat[k].samples = append(cl.lat[k].samples, end-start)
}

// closeWindows seals the bounds of windows the client never reached.
func (cl *client) closeWindows() {
	for w := cl.window + 1; w <= windows; w++ {
		for k := range cl.lat {
			cl.lat[k].bounds[w] = len(cl.lat[k].samples)
		}
	}
}

func (d *driver) totalDone() uint64 {
	var n uint64
	for _, cl := range d.clients {
		n += cl.done.Load()
	}
	return n
}

// idle drives load for dur without recording, watching for a stall. each
// is called about every tick (nil for none).
func (d *driver) idle(dur, tick time.Duration, each func()) error {
	d.mode.Store(uint32(modeIdle))
	_, err := d.watch(dur, 0, tick, each)
	return err
}

// measure drives load for dur in a recording mode and returns the readings
// at the window boundaries.
func (d *driver) measure(m mode, dur, tick time.Duration, each func()) ([]reading, error) {
	d.phaseStart.Store(int64(time.Since(d.epoch)))
	d.mode.Store(uint32(m))
	rs, err := d.watch(dur, windows, tick, each)
	d.mode.Store(uint32(modeIdle))
	return rs, err
}

// watch sleeps through one phase in short steps. It takes a reading at
// each of n equal boundaries (none when n is 0), calls each about every
// tick, and gives up when no op completes for the stall limit.
func (d *driver) watch(dur time.Duration, n int, tick time.Duration, each func()) ([]reading, error) {
	const step = 20 * time.Millisecond
	begin := time.Now()
	var rs []reading
	if n > 0 {
		rs = append(rs, d.read(begin, true))
	}
	lastDone, lastProgress := d.totalDone(), begin
	nextTick := tick
	for {
		now := time.Now()
		since := now.Sub(begin)
		// A loop held up past several boundaries (by each, or by the host)
		// still takes every reading, late.
		for n > 0 && len(rs) <= n && since >= dur*time.Duration(len(rs))/time.Duration(n) {
			rs = append(rs, d.read(begin, len(rs) == n))
		}
		if each != nil && tick > 0 && since >= nextTick {
			each()
			nextTick += tick
		}
		if since >= dur {
			return rs, nil
		}
		if done := d.totalDone(); done != lastDone {
			lastDone, lastProgress = done, now
		} else if now.Sub(lastProgress) > d.stall {
			return rs, errStalled
		}
		sleep := step
		if n > 0 && len(rs) <= n {
			if until := dur*time.Duration(len(rs))/time.Duration(n) - since; until < sleep {
				sleep = until
			}
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
	}
}

// read takes the process-wide reading for a window boundary. ReadMemStats
// stops the world, so only the phase's two ends (mem) pay for it.
func (d *driver) read(begin time.Time, mem bool) reading {
	r := reading{
		atNs:  int64(time.Since(begin)),
		ops:   d.totalDone(),
		cpuUs: processCPUUs(),
		live:  markedLive(),
	}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.mallocs = ms.Mallocs
	}
	return r
}

// markedLive is the heap the latest collection found live. Under load the
// collector runs many times a second, so this follows the live heap without
// forcing a collection into the measured phase.
func markedLive() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// processCPUUs is the process's user plus system CPU time so far.
func processCPUUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// halt tells the clients to finish the op in hand and issue no more.
func (d *driver) halt() { d.mode.Store(uint32(modeStop)) }

// wait returns once every client has come back.
func (d *driver) wait() {
	d.wg.Wait()
	for _, cl := range d.clients {
		cl.closeWindows()
	}
}

// totals sums the clients' counts once they have stopped.
func (d *driver) totals() (attempted, failed, wrong uint64, firstErr error) {
	for _, cl := range d.clients {
		attempted += cl.attempted
		failed += cl.failed
		wrong += cl.wrong
		if firstErr == nil {
			firstErr = cl.firstErr
		}
	}
	return
}

// latencies merges the clients' samples of one op kind.
func (d *driver) latencies(k opKind) *latencyWindows {
	parts := make([]*latencyWindows, len(d.clients))
	for i, cl := range d.clients {
		parts[i] = &cl.lat[k]
	}
	return mergeWindows(parts)
}

// audit reads every record back once the cluster is quiet and compares its
// counter with the beats the clients saw acknowledged: equal when no op
// failed, and never short of it. On a workload with games it also checks
// that every game still answers with the eight members the topology says
// it has — after churn and migration in presence_converge.
func (d *driver) audit(topo *topology) error {
	w := d.w
	_, failed, _, _ := d.totals()
	type expect struct {
		idx  int
		want uint64
	}
	var records []expect
	kind := kindPresence
	if w.sessions > 0 {
		kind = kindSession
		for _, cl := range d.clients {
			for j := 0; j < cl.gen.hi; j++ { // every session the client ever had live
				records = append(records, expect{idx: j*w.clients + cl.id, want: cl.acked(j)})
			}
		}
	} else {
		records = make([]expect, w.games*membersPerGame)
		for i := range records {
			records[i].idx = i
			for _, cl := range d.clients {
				records[i].want += cl.acked(i)
			}
		}
	}
	errs := make(chan error, populateWorkers)
	for p := 0; p < populateWorkers; p++ {
		go func(p int) {
			sys := d.c.nodes[p%nodes]
			for i := p; i < len(records); i += populateWorkers {
				e := records[i]
				var m member
				if err := sys.Call(actor.Ref{Type: kind, Key: d.keys.key(e.idx)}, mGet, statusReq{}, &m); err != nil {
					errs <- fmt.Errorf("audit: read %s/%d: %w", kind, e.idx, err)
					return
				}
				if m.ID != uint64(e.idx) || m.Beats < e.want || (failed == 0 && m.Beats != e.want) {
					errs <- fmt.Errorf("audit: %s/%d holds id %d with %d beats, %d were acknowledged", kind, e.idx, m.ID, m.Beats, e.want)
					return
				}
			}
			errs <- nil
		}(p)
	}
	var first error
	for p := 0; p < populateWorkers; p++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil || w.games == 0 {
		return first
	}
	for g, members := range topo.members {
		var r roster
		ref := actor.Ref{Type: kindConsole, Key: d.keys.key(g * membersPerGame)}
		if err := d.c.nodes[g%nodes].Call(ref, mStatus, statusReq{}, &r); err != nil {
			return fmt.Errorf("audit: status of game %d: %w", g, err)
		}
		if len(r.Members) != len(members) {
			return fmt.Errorf("audit: game %d answers with %d members, want %d", g, len(r.Members), len(members))
		}
		for i, m := range r.Members {
			if m.ID != members[i] || (failed == 0 && m.Beats != records[members[i]].want) {
				return fmt.Errorf("audit: game %d slot %d is presence %d with %d beats, want presence %d with %d",
					g, i, m.ID, m.Beats, members[i], records[members[i]].want)
			}
		}
	}
	return nil
}
