// Command actop-bench regenerates every table and figure of the paper's
// evaluation on the deterministic cluster simulator. Each subcommand
// reproduces one experiment and prints the same rows/series the paper
// reports, annotated with the paper's numbers for side-by-side comparison;
// halo runs one free-form Halo Presence scenario with the policies on flags.
//
// Usage:
//
//	actop-bench [flags] <experiment>
//	actop-bench -players 20000 -servers 10 -load 6000 -partition -threads -measure 5m halo
//
// Experiments: section3, fig4, fig5, fig7, fig10a, fig10b (alias fig10c),
// fig10d (alias fig10e), fig10f, fig11a, fig11b, throughput, halo, all.
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
	"actop/internal/metrics"
)

func main() {
	var (
		full    = flag.Bool("full", false, "paper scale (100K players, 10 servers, 6K req/s, long runs)")
		players = flag.Int("players", 0, "override concurrent players")
		servers = flag.Int("servers", 0, "override server count")
		load    = flag.Float64("load", 0, "override request rate (req/s)")
		warmup  = flag.Duration("warmup", 0, "override warm-up duration")
		measure = flag.Duration("measure", 0, "override measurement duration")
		seed    = flag.Int64("seed", 1, "simulation seed")
		part    = flag.Bool("partition", false, "halo: enable ActOp partitioning")
		threads = flag.Bool("threads", false, "halo: enable ActOp thread allocation")
		oracle  = flag.Bool("oracle", false, "halo: oracle co-location (upper bound)")
		series  = flag.Bool("series", false, "halo: print the remote-fraction/CPU time series")
		cdf     = flag.Bool("cdf", false, "halo: print end-to-end and actor-call latency CDFs")
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
		case "halo":
			o := base
			o.Partitioning, o.ThreadTuning, o.Oracle = *part, *threads, *oracle
			r := experiments.RunHalo(o)
			fmt.Print(r.Render())
			if *series {
				fmt.Println(r.RemoteSeries.Render())
				fmt.Println(r.CPUSeries.Render())
			}
			if *cdf {
				printCDF("end-to-end", r.LatencyCDF)
				printCDF("actor-call", r.ActorCallCDF)
			}
			fmt.Printf("simulated %v of cluster time in %v\n", o.Warmup+o.Measure, time.Since(start).Round(time.Millisecond))
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

// printCDF renders one latency CDF as percentile rows.
func printCDF(name string, points []metrics.CDFPoint) {
	fmt.Printf("%s latency CDF (%d points):\n", name, len(points))
	fmt.Printf("  %8s %12s\n", "fraction", "latency")
	for _, p := range points {
		fmt.Printf("  %8.3f %12v\n", p.Fraction, p.Latency.Round(time.Microsecond))
	}
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
  halo        one Halo Presence scenario, policies on -partition,
              -threads, -oracle; -series and -cdf print more
  all         every figure above (not halo)

flags:`)
	flag.PrintDefaults()
}
