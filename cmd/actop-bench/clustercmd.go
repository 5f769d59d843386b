package main

// The cluster scale benchmark (ISSUE 6): a real multi-process actor cluster
// over loopback TCP, populated to 100K–1M live activations and driven with
// uniformly random cross-node calls. The parent re-execs this binary as
// "cluster-worker" children (one OS process per node, so nodes contend like
// real servers, not like goroutines sharing one scheduler) and speaks a
// JSON-line protocol on their stdin/stdout. It reports sustained calls/sec,
// latency quantiles (per-worker histograms merged via their binary
// encoding), activation memory footprint, and — in the spirit of the COST
// critique (McSherry et al.) — a single-threaded GOMAXPROCS=1 baseline the
// distributed configuration has to beat before claiming scalability.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/metrics"
	"actop/internal/transport"
)

// --- wire protocol (parent <-> worker, one JSON object per line) ---

type workerCmd struct {
	Cmd string `json:"cmd"`

	// start
	Peers     []string `json:"peers,omitempty"`
	Work      int      `json:"work,omitempty"`
	CacheSize int      `json:"cache_size,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	Seed      int64    `json:"seed,omitempty"`

	// populate
	Start int `json:"start,omitempty"`
	Count int `json:"count,omitempty"`

	// drive
	DurationMS  int `json:"duration_ms,omitempty"`
	Conc        int `json:"conc,omitempty"`
	TotalActors int `json:"total_actors,omitempty"`
}

type workerResp struct {
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
	Addr string `json:"addr,omitempty"`

	Activations int    `json:"activations,omitempty"`
	HeapDelta   uint64 `json:"heap_delta,omitempty"`
	HeapInuse   uint64 `json:"heap_inuse,omitempty"`
	Calls       uint64 `json:"calls,omitempty"`
	Errors      uint64 `json:"errors,omitempty"`
	Hist        []byte `json:"hist,omitempty"`
}

// cellActor is the benchmark actor: one counter plus a fixed spin of CPU
// work per call, so calls cost something to execute and the COST comparison
// is not a pure message-passing shootout.
type cellActor struct {
	n    uint64
	work int
}

var spinSink atomic.Uint64

func spin(n int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		x *= 0x2545f4914f6cdd1d
	}
	return x
}

func (c *cellActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Ping":
		spinSink.Add(spin(c.work))
		c.n++
		return nil, nil
	}
	return nil, fmt.Errorf("cell: no method %q", method)
}

// --- worker (child process) ---

func runClusterWorker() {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := json.NewEncoder(os.Stdout)
	fail := func(err error) {
		out.Encode(workerResp{Err: err.Error()})
		os.Exit(1)
	}

	tr, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	if err := out.Encode(workerResp{OK: true, Addr: string(tr.Node())}); err != nil {
		os.Exit(1)
	}

	var sys *actor.System
	for in.Scan() {
		var cmd workerCmd
		if err := json.Unmarshal(in.Bytes(), &cmd); err != nil {
			fail(err)
		}
		switch cmd.Cmd {
		case "start":
			peers := make([]transport.NodeID, len(cmd.Peers))
			for i, p := range cmd.Peers {
				peers[i] = transport.NodeID(p)
			}
			work := cmd.Work
			sys, err = actor.NewSystem(actor.Config{
				Transport:            tr,
				Peers:                peers,
				Placement:            actor.PlaceLocal,
				Workers:              cmd.Workers,
				QueueCap:             1 << 16,
				CallTimeout:          60 * time.Second,
				LocCacheSize:         cmd.CacheSize,
				DisableThreadControl: true,
				Seed:                 cmd.Seed,
			})
			if err != nil {
				fail(err)
			}
			sys.RegisterType("cell", func() actor.Actor { return &cellActor{work: work} })
			out.Encode(workerResp{OK: true})

		case "populate":
			// PlaceLocal: calling our own share of the keyspace activates
			// it here, so population is embarrassingly parallel across
			// workers with no cross-node chatter.
			before := heapInuse()
			var wg sync.WaitGroup
			var perr atomic.Value
			stride := (cmd.Count + 7) / 8
			for g := 0; g < 8; g++ {
				lo := cmd.Start + g*stride
				hi := lo + stride
				if hi > cmd.Start+cmd.Count {
					hi = cmd.Start + cmd.Count
				}
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for i := lo; i < hi; i++ {
						ref := actor.Ref{Type: "cell", Key: "c-" + strconv.Itoa(i)}
						if err := sys.Call(ref, "Ping", nil, nil); err != nil {
							perr.Store(err)
							return
						}
					}
				}(lo, hi)
			}
			wg.Wait()
			if err, _ := perr.Load().(error); err != nil {
				fail(err)
			}
			after := heapInuse()
			var delta uint64
			if after > before {
				delta = after - before
			}
			out.Encode(workerResp{
				OK:          true,
				Activations: sys.Stats().Activations,
				HeapDelta:   delta,
				HeapInuse:   after,
			})

		case "drive":
			var calls, errs atomic.Uint64
			hists := make([]metrics.Histogram, cmd.Conc)
			deadline := time.Now().Add(time.Duration(cmd.DurationMS) * time.Millisecond)
			var wg sync.WaitGroup
			for g := 0; g < cmd.Conc; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)*7919 + 1))
					h := &hists[g]
					for time.Now().Before(deadline) {
						k := rng.Intn(cmd.TotalActors)
						ref := actor.Ref{Type: "cell", Key: "c-" + strconv.Itoa(k)}
						start := time.Now()
						if err := sys.Call(ref, "Ping", nil, nil); err != nil {
							errs.Add(1)
							continue
						}
						h.Record(time.Since(start))
						calls.Add(1)
					}
				}(g)
			}
			wg.Wait()
			var merged metrics.Histogram
			for i := range hists {
				merged.Merge(&hists[i])
			}
			out.Encode(workerResp{
				OK:     true,
				Calls:  calls.Load(),
				Errors: errs.Load(),
				Hist:   merged.AppendBinary(nil),
			})

		case "stats":
			out.Encode(workerResp{
				OK:          true,
				Activations: sys.Stats().Activations,
				HeapInuse:   heapInuse(),
			})

		case "quit":
			if sys != nil {
				sys.Stop()
			}
			out.Encode(workerResp{OK: true})
			return
		default:
			fail(fmt.Errorf("cluster-worker: unknown command %q", cmd.Cmd))
		}
	}
}

func heapInuse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// --- parent (orchestrator) ---

type worker struct {
	cmd  *exec.Cmd
	in   *json.Encoder
	out  *bufio.Scanner
	addr string
}

func (w *worker) send(c workerCmd) error { return w.in.Encode(c) }

func (w *worker) recv() (workerResp, error) {
	if !w.out.Scan() {
		if err := w.out.Err(); err != nil {
			return workerResp{}, err
		}
		return workerResp{}, io.ErrUnexpectedEOF
	}
	var r workerResp
	if err := json.Unmarshal(w.out.Bytes(), &r); err != nil {
		return workerResp{}, err
	}
	if r.Err != "" {
		return r, fmt.Errorf("worker: %s", r.Err)
	}
	return r, nil
}

func spawnWorker(gomaxprocs int) (*worker, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "cluster-worker")
	cmd.Env = os.Environ()
	if gomaxprocs > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &worker{cmd: cmd, in: json.NewEncoder(stdin), out: bufio.NewScanner(stdout)}
	w.out.Buffer(make([]byte, 1<<20), 1<<20)
	hello, err := w.recv()
	if err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	w.addr = hello.Addr
	return w, nil
}

// scaleResult is one row of BENCH_scale.json.
type scaleResult struct {
	Actors        int     `json:"actors"`
	Nodes         int     `json:"nodes"`
	PopulateSecs  float64 `json:"populate_secs"`
	ActivateRate  float64 `json:"activations_per_sec"`
	HeapBytes     uint64  `json:"heap_bytes_total"`
	ActorsPerGB   float64 `json:"actors_per_gb"`
	DriveSecs     float64 `json:"drive_secs"`
	Calls         uint64  `json:"calls"`
	Errors        uint64  `json:"errors"`
	CallsPerSec   float64 `json:"calls_per_sec"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
	MaxMicros     float64 `json:"max_us"`
	CostCallsSec  float64 `json:"cost_calls_per_sec,omitempty"`
	CostP99Micros float64 `json:"cost_p99_us,omitempty"`
	SpeedupVsCost float64 `json:"speedup_vs_cost,omitempty"`
}

type scaleReport struct {
	Generated   string        `json:"generated"`
	Cores       int           `json:"cores"`
	GoVersion   string        `json:"go_version"`
	WorkPerCall int           `json:"work_per_call"`
	Note        string        `json:"note"`
	Scales      []scaleResult `json:"scales"`
}

func runClusterBench(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	var (
		nodes   = fs.Int("nodes", 4, "worker processes (cluster nodes)")
		actors  = fs.String("actors", "100000,1000000", "comma-separated activation counts to sweep")
		conc    = fs.Int("conc", 32, "concurrent drivers per node")
		drive   = fs.Duration("drive", 10*time.Second, "measurement duration per scale")
		work    = fs.Int("work", 2000, "spin iterations of CPU work per call")
		cache   = fs.Int("cache", 0, "per-node location cache bound (0 = runtime default)")
		out     = fs.String("out", "BENCH_scale.json", "result file")
		cost    = fs.Bool("cost", true, "also run the single-threaded COST baseline")
		require = fs.Float64("require-speedup", 0,
			"fail unless cluster beats COST by this factor (0 = report only)")
	)
	fs.Parse(args)

	var counts []int
	for _, f := range splitComma(*actors) {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			fatalf("bad -actors entry %q", f)
		}
		counts = append(counts, n)
	}

	report := scaleReport{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Cores:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		WorkPerCall: *work,
		Note: "COST baseline = same workload, one process, GOMAXPROCS=1, single driver; " +
			"speedup_vs_cost below 1.0 on few-core hosts is expected (coordination " +
			"costs more than it buys until real cores are added).",
	}

	for _, n := range counts {
		fmt.Printf("=== cluster scale: %d actors on %d nodes ===\n", n, *nodes)
		res, err := runOneScale(n, *nodes, *conc, *drive, *work, *cache)
		if err != nil {
			fatalf("scale %d: %v", n, err)
		}
		if *cost {
			fmt.Printf("--- COST baseline: %d actors, 1 process, GOMAXPROCS=1 ---\n", n)
			costRes, err := runOneScaleCost(n, *drive, *work, *cache)
			if err != nil {
				fatalf("COST baseline %d: %v", n, err)
			}
			res.CostCallsSec = costRes.CallsPerSec
			res.CostP99Micros = costRes.P99Micros
			if costRes.CallsPerSec > 0 {
				res.SpeedupVsCost = res.CallsPerSec / costRes.CallsPerSec
			}
		}
		report.Scales = append(report.Scales, res)
		printScale(res)
	}

	data, _ := json.MarshalIndent(report, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *require > 0 {
		for _, s := range report.Scales {
			if s.SpeedupVsCost < *require {
				fatalf("scale %d: speedup vs COST %.2f below required %.2f",
					s.Actors, s.SpeedupVsCost, *require)
			}
		}
	}
}

func runOneScale(total, nodes, conc int, drive time.Duration, work, cache int) (scaleResult, error) {
	workers := make([]*worker, 0, nodes)
	defer func() {
		for _, w := range workers {
			w.send(workerCmd{Cmd: "quit"})
			w.cmd.Wait()
		}
	}()
	peers := make([]string, 0, nodes)
	for i := 0; i < nodes; i++ {
		w, err := spawnWorker(0)
		if err != nil {
			return scaleResult{}, err
		}
		workers = append(workers, w)
		peers = append(peers, w.addr)
	}
	for i, w := range workers {
		if err := w.send(workerCmd{
			Cmd: "start", Peers: peers, Work: work, CacheSize: cache,
			Workers: 8, Seed: int64(i + 1),
		}); err != nil {
			return scaleResult{}, err
		}
	}
	for _, w := range workers {
		if _, err := w.recv(); err != nil {
			return scaleResult{}, err
		}
	}
	return driveWorkers(workers, total, conc, drive)
}

// runOneScaleCost runs the same population and workload in one process
// pinned to one OS thread — the COST baseline.
func runOneScaleCost(total int, drive time.Duration, work, cache int) (scaleResult, error) {
	w, err := spawnWorker(1)
	if err != nil {
		return scaleResult{}, err
	}
	defer func() {
		w.send(workerCmd{Cmd: "quit"})
		w.cmd.Wait()
	}()
	if err := w.send(workerCmd{
		Cmd: "start", Peers: []string{w.addr}, Work: work, CacheSize: cache,
		Workers: 1, Seed: 1,
	}); err != nil {
		return scaleResult{}, err
	}
	if _, err := w.recv(); err != nil {
		return scaleResult{}, err
	}
	return driveWorkers([]*worker{w}, total, 1, drive)
}

func driveWorkers(workers []*worker, total, conc int, drive time.Duration) (scaleResult, error) {
	nodes := len(workers)
	res := scaleResult{Actors: total, Nodes: nodes}

	// Populate: each worker activates an equal contiguous slice locally.
	popStart := time.Now()
	per := (total + nodes - 1) / nodes
	start := 0
	for _, w := range workers {
		count := per
		if start+count > total {
			count = total - start
		}
		if err := w.send(workerCmd{Cmd: "populate", Start: start, Count: count}); err != nil {
			return res, err
		}
		start += count
	}
	activations := 0
	for _, w := range workers {
		r, err := w.recv()
		if err != nil {
			return res, err
		}
		activations += r.Activations
		res.HeapBytes += r.HeapDelta
	}
	res.PopulateSecs = time.Since(popStart).Seconds()
	if res.PopulateSecs > 0 {
		res.ActivateRate = float64(total) / res.PopulateSecs
	}
	if activations < total {
		return res, fmt.Errorf("populated %d of %d activations", activations, total)
	}
	if res.HeapBytes > 0 {
		res.ActorsPerGB = float64(total) / (float64(res.HeapBytes) / (1 << 30))
	}
	fmt.Printf("populated %d activations in %.1fs (%.0f/s, %.0f actors/GB)\n",
		activations, res.PopulateSecs, res.ActivateRate, res.ActorsPerGB)

	// Drive: every worker fires uniformly random calls across the whole
	// keyspace, so ~(nodes-1)/nodes of traffic crosses a socket.
	for _, w := range workers {
		if err := w.send(workerCmd{
			Cmd: "drive", DurationMS: int(drive.Milliseconds()),
			Conc: conc, TotalActors: total,
		}); err != nil {
			return res, err
		}
	}
	var merged metrics.Histogram
	for _, w := range workers {
		r, err := w.recv()
		if err != nil {
			return res, err
		}
		res.Calls += r.Calls
		res.Errors += r.Errors
		if len(r.Hist) > 0 {
			var h metrics.Histogram
			if err := h.UnmarshalBinary(r.Hist); err != nil {
				return res, err
			}
			merged.Merge(&h)
		}
	}
	res.DriveSecs = drive.Seconds()
	if res.DriveSecs > 0 {
		res.CallsPerSec = float64(res.Calls) / res.DriveSecs
	}
	res.P50Micros = float64(merged.Quantile(0.50)) / 1e3
	res.P99Micros = float64(merged.Quantile(0.99)) / 1e3
	res.MaxMicros = float64(merged.Max()) / 1e3
	return res, nil
}

func printScale(r scaleResult) {
	fmt.Printf("%d actors / %d nodes: %.0f calls/s (%d errors), p50 %.0fµs p99 %.0fµs\n",
		r.Actors, r.Nodes, r.CallsPerSec, r.Errors, r.P50Micros, r.P99Micros)
	if r.CostCallsSec > 0 {
		fmt.Printf("COST baseline: %.0f calls/s, p99 %.0fµs → cluster speedup %.2f×\n",
			r.CostCallsSec, r.CostP99Micros, r.SpeedupVsCost)
	}
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, c := range s {
		if c == ',' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		cur += string(c)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
