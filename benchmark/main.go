// Command benchmark is the repository's one performance benchmark: the
// paper's two interactive services (presence call trees, heartbeat
// updates) on a three-node cluster in this process, joined over loopback
// TCP and driven closed-loop, with a ladder of per-layer probes and a
// traced pass. See README.md in this directory.
//
// The driver's form, one workload per invocation:
//
//	go run ./benchmark --workload presence_remote --seed 1 --seconds 22 --trace 0
//
// prints the end-to-end metrics (tracing off); --trace 1 prints the
// per-layer metrics instead. The process first confines itself to one CPU
// (README, "One CPU"). The last line of standard
// output is one JSON object: correct, attempted, failed, metrics. Without
// --workload every workload runs in turn, each in a process of its own;
// -check runs the whole set twice and reports which metrics agree within
// their bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// benchCPUs is how many CPUs the process confines itself to before it
// measures anything: one, because on a shared host a wake-up between two
// vCPUs goes through the hypervisor and costs what the neighbours make it
// cost (README, "One CPU").
const benchCPUs = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: each in turn)")
		seed    = flag.Int64("seed", 1, "seed of the op sequence, topology and churn")
		seconds = flag.Float64("seconds", 22, "length of the measured phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (ladder, counted pass, traced pass)")
		check   = flag.Bool("check", false, "run every workload in two sets and report agreement within the bounds")
		runs    = flag.Int("runs", 1, "with -check: runs per set, each with another seed")
		out     = flag.String("out", "benchmark/out", "directory for the traced pass's span files")
	)
	flag.Parse()
	if *seconds <= 0 || flag.NArg() > 0 || *traced < 0 || *traced > 1 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := confine(benchCPUs); err != nil {
		// A sandbox may forbid it. The run is still valid, only noisier, and
		// its header says how many CPUs it had.
		fmt.Fprintf(os.Stderr, "benchmark: not confined to %d CPU(s): %v\n", benchCPUs, err)
	}
	measure := time.Duration(*seconds * float64(time.Second))
	switch {
	case *check:
		os.Exit(checkMode(*seed, *seconds, *runs))
	case *name == "":
		code := 0
		for _, w := range workloads {
			if _, err := runChild(w.name, *seed, *seconds, *traced, os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				code = 1
			}
		}
		os.Exit(code)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	printHeader(os.Stdout, &w, *seed, measure, *traced)
	var (
		res result
		err error
	)
	if *traced == 1 {
		res, err = runLayers(w, uint64(*seed), measure, *out, os.Stdout)
	} else {
		res, err = runEndToEnd(w, uint64(*seed), measure, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1) // the audit failed, an op failed, or the run stalled
	}
}

// result is the last line of an invocation's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func named(defs []metricDef, values map[string]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return m
}

// printHeader records what ran where: every number below it is only
// comparable with numbers taken under the same header.
func printHeader(out io.Writer, w *workload, seed int64, measure time.Duration, traced int) {
	ph := phasesFor(w, measure)
	fmt.Fprintf(out, "# benchmark %s: %s\n", w.name, w.why)
	fmt.Fprintf(out, "# seed=%d trace=%d clients=%d (closed loop) warm=%v adapt=%v measure=%v windows=%d\n",
		seed, traced, w.clients, ph.warm, ph.adapt, ph.measure, windows)
	host := os.Getenv(hostCPUsEnv) // set when the process confined itself
	if host == "" {
		host = fmt.Sprint(runtime.NumCPU())
	}
	fmt.Fprintf(out, "# nproc=%s confined_to=%d GOMAXPROCS=%d go=%s commit=%s\n",
		host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit finds the revision being measured: from the build's VCS stamp, or
// from .git when run from a clone's root, and says so when there is none
// (the driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

// printLatency prints one op kind's percentiles over the quiet span with the
// counts they rest on, under the names of the issue's ledger (status_*,
// beat_*, open_*). The tails are printed for the reader; the result line
// carries the p50s (see README, "Bounds").
func printLatency(out io.Writer, k opKind, l opLatency) {
	if l.samples == 0 {
		return
	}
	for _, p := range []struct {
		name   string
		us     float64
		beyond int // of a hundred samples
	}{{"p50", l.p50Us, 50}, {"p95", l.p95Us, 5}, {"p99", l.p99Us, 1}} {
		fmt.Fprintf(out, "%-28s %12.1f us   (n=%d in the quiet span, %d beyond it)\n",
			opNames[k]+"_"+p.name+"_us", p.us, l.samples, l.samples*p.beyond/100)
	}
}

func printFailures(out io.Writer, r *runResult) {
	pct := 0.0
	if r.attempted > 0 {
		pct = 100 * float64(r.failed) / float64(r.attempted)
	}
	auditOK := 0
	if r.correct() {
		auditOK = 1
	}
	fmt.Fprintf(out, "%-28s %12.4f %%    (%d failed of %d attempted)\n", "failed_ops_pct", pct, r.failed, r.attempted)
	fmt.Fprintf(out, "%-28s %12d\n", "audit_ok", auditOK)
	if r.firstErr != nil {
		fmt.Fprintf(out, "# first error: %v\n", r.firstErr)
	}
	if r.wrong > 0 {
		fmt.Fprintf(out, "# %d replies had the wrong shape\n", r.wrong)
	}
}

func printMetrics(out io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(out, "%-40s %16.4f %s\n", d.name, values[d.name], d.unit)
	}
}

// runEndToEnd is the --trace 0 invocation.
func runEndToEnd(w workload, seed uint64, measure time.Duration, out io.Writer) (result, error) {
	r, err := runWorkload(runConfig{w: w, seed: seed, measure: measure, kind: runPlain, setups: setupRuns, log: out})
	if err != nil {
		return result{}, err
	}
	for k := opKind(0); k < opKinds; k++ {
		printLatency(out, k, r.lat[k])
	}
	printFailures(out, r)
	values := endToEndValues(&w, r)
	printMetrics(out, endToEnd, values)
	return result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: named(endToEnd, values)}, nil
}

// runLayers is the --trace 1 invocation: the ladder, then the workload
// twice at half the measured length each — once counted, once traced — and
// for presence_converge a short presence_local pass as the oracle.
func runLayers(w workload, seed uint64, measure time.Duration, outDir string, out io.Writer) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("benchmark: %w", err)
	}
	rungs, err := ladder(seed, make([]byte, w.pad))
	if err != nil {
		return result{}, err
	}
	counted, err := runWorkload(runConfig{w: w, seed: seed, measure: measure / 2, kind: runCounted, setups: 1, log: out})
	if err != nil {
		return result{}, err
	}
	traced, err := runWorkload(runConfig{w: w, seed: seed, measure: measure / 2, kind: runTraced, setups: 1, outDir: outDir, log: out})
	if err != nil {
		return result{}, err
	}
	passes := []*runResult{counted, traced}
	var oracle float64
	if w.partitioning {
		local, _ := workloadByName("presence_local")
		o, err := runWorkload(runConfig{w: local, seed: seed, measure: measure / 5, kind: runPlain, setups: 1, log: out})
		if err != nil {
			return result{}, err
		}
		oracle = o.opsPerSec
		passes = append(passes, o)
	}
	res := result{Correct: true}
	for _, p := range passes {
		printFailures(out, p)
		res.Correct = res.Correct && p.correct()
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	values := layerValues(&w, rungs, counted, traced, oracle)
	printMetrics(out, perLayer, values)
	printAttribution(out, traced)
	res.Metrics = named(perLayer, values)
	return res, nil
}

// printAttribution says where an op's latency went, from the benchmark's
// spans plus the runtime's components, and names the remainder.
func printAttribution(out io.Writer, traced *runResult) {
	sp := traced.spans
	op, what := sp.Status, "status"
	if op.Ops == 0 {
		op, what = sp.All, "op"
	}
	if op.Ops == 0 || op.TotalUs <= 0 {
		return
	}
	pct := func(us float64) float64 { return 100 * us / op.TotalUs }
	un := unattributedPct(sp, traced.rt)
	fmt.Fprintf(out, "# where a %s's %.1f us go (mean of %d traced ops): driver %.1f%%, actor turns %.1f%%, local-call path %.1f%%, remote-call path %.1f%%\n",
		what, op.TotalUs, op.Ops, pct(op.DriverSelfUs), pct(op.TurnSelfUs), pct(op.LocalOvhUs), pct(op.RemoteOvhUs))
	fmt.Fprintf(out, "# the runtime's components explain all but %.1f%% of it (%d client spans); unattributed %.1f%%, accounted %.1f%%\n",
		un, traced.rt.clientSpans, un, 100-un)
}

// runChild runs one workload in a process of its own, as the driver does,
// and returns its result line.
func runChild(name string, seed int64, seconds float64, traced int, echo io.Writer) (result, error) {
	cmd := exec.Command(os.Args[0],
		"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced))
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if echo != nil {
		cmd.Stdout = io.MultiWriter(&buf, echo)
	}
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	if runErr != nil {
		return res, fmt.Errorf("incorrect or failed run: %w", runErr)
	}
	return res, nil
}

// checkMode runs every workload in two sets of runs and reports, per
// workload and end-to-end metric, whether the sets agree: the second
// median no worse than the first by more than the bound, and with four or
// more runs per set, each set's quartile spread within the bound as well.
// Anything else is "unresolved" — the benchmark cannot tell a change of
// that size from its own noise.
func checkMode(seed int64, seconds float64, runs int) int {
	code := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for i := 0; i < runs; i++ {
				res, err := runChild(w.name, seed+int64(s*runs+i), seconds, 0, nil)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: check %s: %v\n", w.name, err)
					code = 1
					continue
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(a), quartileSpread(b))
			verdict := "agree"
			if worse > d.bound || (runs >= 4 && spread > d.bound && d.name != "setup_s") {
				verdict = "unresolved"
				code = 1
			}
			fmt.Printf("%-18s %-24s first %12.4f  second %12.4f  worse by %+6.1f%%  spread %5.1f%%  bound %4.1f%%  %s\n",
				w.name, d.name, ma, mb, 100*worse, 100*spread, 100*d.bound, verdict)
		}
	}
	return code
}
