// Command actop-bench regenerates every table and figure of the paper's
// evaluation. Each subcommand reproduces one experiment and prints the same
// rows/series the paper reports, annotated with the paper's numbers for
// side-by-side comparison.
//
// Usage:
//
//	actop-bench [flags] <experiment>
//
// Experiments: section3, fig4, fig5, fig7, fig10a, fig10b (alias fig10c),
// fig10d (alias fig10e), fig10f, fig11a, fig11b, throughput, all. Two extra
// subcommands target the real runtime instead of a paper figure, covering
// what the benchmark ledger (go run ./benchmark) does not measure yet:
// cluster drives a multi-process loopback-TCP cluster and writes
// BENCH_scale.json, and recovery measures durable snapshot overhead and
// time-to-recover after a node kill and writes BENCH_recovery.json.
//
// By default experiments run at "quick" scale — the same per-server
// operating point as the paper (load/server, CPU utilization) with a
// smaller population and shorter runs, finishing in minutes. -full restores
// paper scale (100K players, 10 servers, 6K req/s, hour-long runs); -players,
// -servers, -load, -measure, -warmup override individual knobs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"actop/internal/experiments"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "cluster-worker":
			// Hidden mode: one node of the cluster scale benchmark,
			// re-execed by "actop-bench cluster".
			runClusterWorker()
			return
		case "cluster":
			runClusterBench(os.Args[2:])
			return
		case "recovery":
			runRecoveryBench(os.Args[2:])
			return
		}
	}
	var (
		full    = flag.Bool("full", false, "paper scale (100K players, 10 servers, 6K req/s, long runs)")
		players = flag.Int("players", 0, "override concurrent players")
		servers = flag.Int("servers", 0, "override server count")
		load    = flag.Float64("load", 0, "override request rate (req/s)")
		warmup  = flag.Duration("warmup", 0, "override warm-up duration")
		measure = flag.Duration("measure", 0, "override measurement duration")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	base := experiments.DefaultHaloOpts()
	base.FastControl = true
	base.Seed = *seed
	loads := []float64{600, 1200, 1800} // per the 3-server quick scale
	throughputLoads := []float64{1800, 2400, 3000, 3600, 4200}
	playerSweep := []int{2000, 6000, 20000}
	gridW := []int{2, 3, 4, 5, 6, 7, 8}
	gridS := []int{2, 3, 4, 5, 6, 7, 8}

	if *full {
		base = experiments.HaloOpts{
			Players: 100_000,
			Servers: 10,
			Load:    6000,
			Warmup:  10 * time.Minute,
			Measure: 50 * time.Minute,
			Seed:    *seed,
		}
		loads = []float64{2000, 4000, 6000}
		throughputLoads = []float64{6000, 8000, 10000, 12000, 14000}
		playerSweep = []int{10_000, 100_000, 1_000_000}
	}
	if *players > 0 {
		base.Players = *players
	}
	if *servers > 0 {
		base.Servers = *servers
	}
	if *load > 0 {
		base.Load = *load
	}
	if *warmup > 0 {
		base.Warmup = *warmup
	}
	if *measure > 0 {
		base.Measure = *measure
	}

	hopOpts := experiments.DefaultSingleHopOpts()
	hopOpts.Seed = *seed
	hbLoads := []float64{10000, 12500, 15000}
	if *measure > 0 {
		hopOpts.Measure = *measure
	}

	run := func(name string) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		switch name {
		case "section3":
			fmt.Print(experiments.RunSection3(base).Render())
		case "fig4":
			fmt.Print(experiments.RunFig4(hopOpts).Render())
		case "fig5":
			fmt.Print(experiments.RunFig5(hopOpts, gridW, gridS).Render())
		case "fig7":
			o := experiments.DefaultFig7Opts()
			o.Seed = *seed
			fmt.Print(experiments.RunFig7(o).Render())
		case "fig10a":
			o := base
			if !*full {
				o.Warmup = 6 * time.Minute // show the convergence transient
				o.Measure = 2 * time.Minute
			}
			fmt.Print(experiments.RunFig10a(o).Render())
		case "fig10b", "fig10c", "fig10bc":
			fmt.Print(experiments.RunFig10bc(base).Render())
		case "fig10d", "fig10e", "fig10de":
			fmt.Print(experiments.RunFig10de(base, loads).Render())
		case "fig10f":
			fmt.Print(experiments.RunFig10f(base, playerSweep).Render())
		case "fig11a":
			fmt.Print(experiments.RunFig11a(hopOpts, hbLoads).Render())
		case "fig11b":
			fmt.Print(experiments.RunFig11b(base).Render())
		case "throughput":
			fmt.Print(experiments.RunThroughput(base, throughputLoads).Render())
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		fmt.Printf("--- %s done in %v ---\n\n", name, time.Since(start).Round(time.Second))
	}

	target := strings.ToLower(flag.Arg(0))
	if target == "all" {
		for _, name := range []string{
			"section3", "fig4", "fig5", "fig7", "fig10a", "fig10b",
			"fig10d", "fig10f", "fig11a", "fig11b", "throughput",
		} {
			run(name)
		}
		return
	}
	run(target)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: actop-bench [flags] <experiment>

experiments:
  section3    §3 motivation: random vs co-located placement
  fig4        latency breakdown across SEDA stages/queues
  fig5        thread-allocation heat map (+ controller pick)
  fig7        queue-length controller instability vs model controller
  fig10a      partitioning convergence over time
  fig10b      end-to-end & server-to-server latency CDFs (also fig10c)
  fig10d      latency improvement & CPU by load (also fig10e)
  fig10f      improvement vs number of live players
  fig11a      thread-allocation-only improvement (heartbeat)
  fig11b      combined optimizations
  throughput  peak throughput baseline vs ActOp
  cluster     multi-process loopback-TCP cluster at 100K–1M live actors
              (own flags; see actop-bench cluster -h)
  recovery    durable-snapshot overhead at 0/1/2 replicas and time to
              recover 10K durable actors after a node kill
              (own flags; see actop-bench recovery -h)
  all         every figure above (not cluster/recovery)

flags:`)
	flag.PrintDefaults()
}
