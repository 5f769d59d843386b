// Command actop-sim runs one Halo Presence scenario on the deterministic
// cluster simulator with everything on flags — the free-form companion to
// actop-bench's fixed experiments.
//
//	actop-sim -players 20000 -servers 10 -load 6000 -partition -threads -measure 5m
package main

import (
	"flag"
	"fmt"
	"time"

	"actop/internal/experiments"
	"actop/internal/metrics"
)

func main() {
	var (
		players = flag.Int("players", 6000, "concurrent players")
		servers = flag.Int("servers", 3, "servers")
		load    = flag.Float64("load", 1800, "client requests/sec")
		warmup  = flag.Duration("warmup", 3*time.Minute, "warm-up (excluded from stats)")
		measure = flag.Duration("measure", 3*time.Minute, "measurement window")
		part    = flag.Bool("partition", false, "enable ActOp partitioning")
		threads = flag.Bool("threads", false, "enable ActOp thread allocation")
		oracle  = flag.Bool("oracle", false, "oracle co-location (upper bound)")
		fast    = flag.Bool("fast", true, "fast controller cadences for short runs")
		seed    = flag.Int64("seed", 1, "simulation seed")
		series  = flag.Bool("series", false, "print the remote-fraction/CPU time series")
		cdf     = flag.Bool("cdf", false, "print end-to-end and actor-call latency CDFs")
	)
	flag.Parse()

	o := experiments.HaloOpts{
		Players: *players, Servers: *servers, Load: *load,
		Warmup: *warmup, Measure: *measure,
		Partitioning: *part, ThreadTuning: *threads, Oracle: *oracle,
		FastControl: *fast, Seed: *seed,
	}
	start := time.Now()
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
	fmt.Printf("simulated %v of cluster time in %v\n", *warmup+*measure, time.Since(start).Round(time.Millisecond))
}

// printCDF renders one latency CDF as percentile rows.
func printCDF(name string, points []metrics.CDFPoint) {
	fmt.Printf("%s latency CDF (%d points):\n", name, len(points))
	fmt.Printf("  %8s %12s\n", "fraction", "latency")
	for _, p := range points {
		fmt.Printf("  %8.3f %12v\n", p.Fraction, p.Latency.Round(time.Microsecond))
	}
}
