package main

// The recovery subcommand (ISSUE 8): measure what durability costs and
// what it buys. Part one sweeps the snapshot plane's hot-path overhead at
// 0/1/2 replicas on an identical 3-node topology (median per-call latency
// over interleaved rounds, plus snapshot ship throughput). Part two
// hard-kills a node under a population of durable actors and times how
// long until every victim-hosted actor answers with its pre-crash state
// restored. Results land in BENCH_recovery.json.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/transport"
)

// recActor is the durable unit of account for the benchmark: one int of
// state, snapshotted via the Copier fast path (struct copy under the turn
// lock, encode on the snapshotter pool).
type recActor struct{ N int }

func (a *recActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "add":
		a.N++
		return codec.Marshal(a.N)
	case "get":
		return codec.Marshal(a.N)
	case "where":
		return codec.Marshal(string(ctx.Node()))
	}
	return nil, fmt.Errorf("recovery: no method %q", method)
}

func (a *recActor) Snapshot() ([]byte, error) { return codec.Marshal(a.N) }
func (a *recActor) Restore(data []byte) error { return codec.Unmarshal(data, &a.N) }
func (a *recActor) CopyValue() interface{}    { return &recActor{N: a.N} }
func (a *recActor) DurableActor()             {}

// recOverheadRow is one replica level of the hot-path sweep.
type recOverheadRow struct {
	Replicas     int     `json:"replicas"`
	PerCallUs    float64 `json:"per_call_us"`
	RatioVsOff   float64 `json:"ratio_vs_off"`
	Captured     uint64  `json:"snapshots_captured"`
	Shipped      uint64  `json:"snapshots_shipped"`
	ShippedBytes uint64  `json:"shipped_bytes"`
	ShipMBPerSec float64 `json:"ship_mb_per_s"`
}

// recRecoveryRow is one replica level of the kill-and-recover experiment.
type recRecoveryRow struct {
	Replicas           int     `json:"replicas"`
	Actors             int     `json:"actors"`
	VictimActors       int     `json:"victim_actors"`
	SyncMillis         float64 `json:"snapshot_sync_ms"`
	DetectMillis       float64 `json:"death_detect_ms"`
	RecoverMillis      float64 `json:"recover_all_ms"`
	ActorsPerSec       float64 `json:"recovered_actors_per_s"`
	RecoveredWithState uint64  `json:"recovered_with_state"`
	StateLost          int     `json:"state_lost"`
}

type recReport struct {
	Generated string           `json:"generated"`
	Cores     int              `json:"cores"`
	GoVersion string           `json:"go_version"`
	Note      string           `json:"note"`
	Overhead  []recOverheadRow `json:"overhead"`
	Recovery  []recRecoveryRow `json:"recovery"`
}

// recCall is Call with client-side resubmission: the runtime sheds load
// rather than queueing unboundedly and gives up a call once its timeout
// budget is spent, so a bench driver hammering a recovering cluster must
// do what a real client does — back off and submit again (the callee's
// dedup window keeps re-submissions at-most-once per turn).
func recCall(sys *actor.System, ref actor.Ref, method string, out interface{}) error {
	for attempt := 0; ; attempt++ {
		err := sys.Call(ref, method, nil, out)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, actor.ErrOverloaded),
			errors.Is(err, actor.ErrTimeout),
			// The retry-safe pause: a replica needed for recovery is
			// unreachable right now, and the runtime refuses to resurrect
			// the actor with amnesia. The client's job is to keep asking.
			errors.Is(err, actor.ErrPeerDown):
			time.Sleep(time.Duration(attempt+1) * time.Millisecond)
		default:
			return err
		}
	}
}

// recCluster stands up n in-memory nodes wrapped in Flaky transports (so
// the recovery experiment can hard-kill one) with a fast failure detector.
func recCluster(n, replicas int) ([]*actor.System, []*transport.Flaky, func()) {
	net := transport.NewNetwork(0)
	peers := make([]transport.NodeID, n)
	flakies := make([]*transport.Flaky, n)
	for i := 0; i < n; i++ {
		peers[i] = transport.NodeID(fmt.Sprintf("rec-%d", i))
		flakies[i] = transport.NewFlaky(net.Join(peers[i]), int64(4000+i))
	}
	systems := make([]*actor.System, n)
	for i := 0; i < n; i++ {
		sys, err := actor.NewSystem(actor.Config{
			Transport: flakies[i], Peers: peers,
			Workers: 16, Seed: int64(7 + i),
			CallTimeout:       30 * time.Second,
			HeartbeatInterval: 50 * time.Millisecond,
			SuspectAfter:      2,
			DeadAfter:         5,
			RetryBackoff:      5 * time.Millisecond,
			DurableReplicas:   replicas,
		})
		if err != nil {
			fatalf("recovery: node %d: %v", i, err)
		}
		sys.RegisterType("rec", func() actor.Actor { return &recActor{} })
		systems[i] = sys
	}
	return systems, flakies, func() {
		for _, sys := range systems {
			sys.Stop()
		}
	}
}

// recOverhead measures median per-call latency and ship throughput at one
// replica level: `actors` durable actors on a 3-node cluster, `rounds`
// interleaved rounds of `calls` calls each. The caller interleaves levels
// itself by invoking this once per level — on a loaded machine the median
// over rounds absorbs scheduler noise (min-of-N flaked on 1-core boxes).
func recOverhead(replicas, actors, calls, rounds int) recOverheadRow {
	systems, _, stop := recCluster(3, replicas)
	defer stop()
	ref := func(k int) actor.Ref {
		return actor.Ref{Type: "rec", Key: fmt.Sprintf("ov-%d", k)}
	}
	for k := 0; k < actors; k++ {
		if err := systems[0].Call(ref(k), "add", nil, nil); err != nil {
			fatalf("recovery: warm %d: %v", k, err)
		}
	}
	round := func() time.Duration {
		start := time.Now()
		for c := 0; c < calls; c++ {
			if err := systems[0].Call(ref(c%actors), "add", nil, nil); err != nil {
				fatalf("recovery: call: %v", err)
			}
		}
		return time.Since(start)
	}
	durs := make([]time.Duration, 0, rounds)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		durs = append(durs, round())
	}
	elapsed := time.Since(t0)
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	med := durs[len(durs)/2]

	var row recOverheadRow
	row.Replicas = replicas
	row.PerCallUs = float64(med.Nanoseconds()) / float64(calls) / 1e3
	for _, sys := range systems {
		d := sys.Durables()
		row.Captured += d.Captured
		row.Shipped += d.Shipped
		row.ShippedBytes += d.ShippedBytes
	}
	if sec := elapsed.Seconds(); sec > 0 {
		row.ShipMBPerSec = float64(row.ShippedBytes) / 1e6 / sec
	}
	return row
}

// recRecover warms `actors` durable actors across a 3-node cluster, syncs
// snapshots, hard-kills node 2, and times until every victim-hosted actor
// answers from a survivor with its state intact.
func recRecover(replicas, actors, drivers int) recRecoveryRow {
	systems, flakies, stop := recCluster(3, replicas)
	defer stop()
	victim := 2
	victimID := systems[victim].Node()

	ref := func(k int) actor.Ref {
		return actor.Ref{Type: "rec", Key: fmt.Sprintf("tr-%d", k)}
	}
	hosts := make([]string, actors)
	for k := 0; k < actors; k++ {
		if err := systems[k%2].Call(ref(k), "add", nil, nil); err != nil {
			fatalf("recovery: warm %d: %v", k, err)
		}
		if err := systems[k%2].Call(ref(k), "where", nil, &hosts[k]); err != nil {
			fatalf("recovery: locate %d: %v", k, err)
		}
	}
	var victims []int
	for k, h := range hosts {
		if h == string(victimID) {
			victims = append(victims, k)
		}
	}

	syncStart := time.Now()
	for _, sys := range systems {
		sys.SyncSnapshots()
	}
	syncDur := time.Since(syncStart)

	killAt := time.Now()
	flakies[victim].Kill()
	for systems[0].PeerStateOf(victimID) != actor.PeerDead ||
		systems[1].PeerStateOf(victimID) != actor.PeerDead {
		time.Sleep(5 * time.Millisecond)
	}
	detectDur := time.Since(killAt)

	// Recovery proper: drive every victim-hosted actor from the survivors
	// until it answers, and check the answer carries the pre-crash state.
	var lost atomic.Int64
	recoverStart := time.Now()
	var wg sync.WaitGroup
	var next atomic.Int64
	for d := 0; d < drivers; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(victims) {
					return
				}
				k := victims[i]
				var got int
				if err := recCall(systems[d%2], ref(k), "get", &got); err != nil {
					fatalf("recovery: recover %d: %v", k, err)
				}
				if got != 1 {
					lost.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	recoverDur := time.Since(recoverStart)

	row := recRecoveryRow{
		Replicas:      replicas,
		Actors:        actors,
		VictimActors:  len(victims),
		SyncMillis:    float64(syncDur.Nanoseconds()) / 1e6,
		DetectMillis:  float64(detectDur.Nanoseconds()) / 1e6,
		RecoverMillis: float64(recoverDur.Nanoseconds()) / 1e6,
		StateLost:     int(lost.Load()),
	}
	if sec := recoverDur.Seconds(); sec > 0 {
		row.ActorsPerSec = float64(len(victims)) / sec
	}
	for _, i := range []int{0, 1} {
		row.RecoveredWithState += systems[i].Durables().RecoveredWithState
	}
	return row
}

func runRecoveryBench(args []string) {
	fs := flag.NewFlagSet("recovery", flag.ExitOnError)
	var (
		actors  = fs.Int("actors", 10_000, "durable actor population for the recovery experiment")
		calls   = fs.Int("calls", 4000, "calls per overhead measurement round")
		rounds  = fs.Int("rounds", 9, "interleaved rounds per overhead level")
		drivers = fs.Int("drivers", 0, "concurrent recovery driver goroutines (0 = 8 per CPU core)")
		smoke   = fs.Bool("smoke", false, "reduced scale for CI (1000 actors, short sweep)")
		out     = fs.String("out", "BENCH_recovery.json", "result file (\"-\" = stdout only)")
	)
	fs.Parse(args)
	if *smoke {
		*actors = 1000
		*calls = 1000
		*rounds = 5
	}
	if *drivers <= 0 {
		*drivers = 8 * runtime.NumCPU()
	}

	report := recReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		Cores:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Note: "Overhead: median per-call latency over interleaved rounds on an identical 3-node " +
			"in-memory topology, durability off vs 1 vs 2 replicas (a capture every 16 dirty turns); " +
			"ship throughput from the runtime's shipped-bytes counters. Recovery: snapshots " +
			"synced, one node hard-killed, then every victim-hosted actor driven from the " +
			"survivors until it answers with restored state; recover_all_ms is that wall time " +
			"(includes the replica pull gated by the recovery semaphore, not failure detection).",
	}

	fmt.Printf("=== snapshot overhead (%d calls x %d rounds per level) ===\n", *calls, *rounds)
	var off recOverheadRow
	for _, k := range []int{0, 1, 2} {
		row := recOverhead(k, 256, *calls, *rounds)
		if k == 0 {
			off = row
			row.RatioVsOff = 1
		} else if off.PerCallUs > 0 {
			row.RatioVsOff = row.PerCallUs / off.PerCallUs
		}
		report.Overhead = append(report.Overhead, row)
		fmt.Printf("K=%d  %7.2f µs/call  ratio %.3f  captured %6d  shipped %6d  %7.3f MB/s\n",
			k, row.PerCallUs, row.RatioVsOff, row.Captured, row.Shipped, row.ShipMBPerSec)
	}

	fmt.Printf("=== time to recover (%d durable actors, kill 1 of 3 nodes) ===\n", *actors)
	for _, k := range []int{1, 2} {
		row := recRecover(k, *actors, *drivers)
		report.Recovery = append(report.Recovery, row)
		fmt.Printf("K=%d  victim hosted %d/%d  sync %.0fms  detect %.0fms  recover %.0fms  (%.0f actors/s, %d lost)\n",
			k, row.VictimActors, row.Actors, row.SyncMillis, row.DetectMillis,
			row.RecoverMillis, row.ActorsPerSec, row.StateLost)
		if row.StateLost > 0 {
			fatalf("recovery: %d actors lost state at K=%d (%+v)", row.StateLost, k, row)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatalf("recovery: marshal: %v", err)
	}
	fmt.Printf("%s\n", data)
	if *out != "-" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("recovery: write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}
