package main

import (
	"errors"
	"io"
	"testing"
	"time"
)

// small shrinks a workload's population so that a whole run — set-up,
// warm-up, measured phase, audit — fits in a fraction of a second and
// tier-1 stays fast. The traffic shape, the configuration and every code
// path are the full benchmark's.
func small(name string) workload {
	w, _ := workloadByName(name)
	if w.games > 0 {
		w.games = 12
	} else {
		w.sessions = 400
		w.locCache = 128 // still smaller than the working set
	}
	return w
}

// TestSmokeEveryWorkload drives each workload end to end for under a
// second: no op may fail, the audit must pass (migrated state intact on
// presence_converge), and every end-to-end metric must come out non-zero,
// as the driver requires. Run it under -race too.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, full := range workloads {
		w := small(full.name)
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(runConfig{w: w, seed: 5, measure: 400 * time.Millisecond, kind: runPlain, setups: 2, log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct() || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d wrong=%d stalled=%v: %v",
					r.correct(), r.attempted, r.failed, r.wrong, r.stalled, r.firstErr)
			}
			for name, v := range endToEndValues(&w, r) {
				if v <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, v)
				}
			}
			if r.lat[secondOp(&w)].samples == 0 || r.lat[opBeat].samples == 0 {
				t.Errorf("samples: %d beat, %d %s", r.lat[opBeat].samples, r.lat[secondOp(&w)].samples, opNames[secondOp(&w)])
			}
		})
	}
}

// TestSmokeLayers runs the counted and traced passes on the workload that
// exercises the most machinery, and checks the predictions the layer
// metrics exist to test: the controller is off on a call-tree workload,
// partitioning moved actors and lowered the remote fraction, the traced
// pass produced linked spans that account for a status op exactly.
func TestSmokeLayers(t *testing.T) {
	w := small("presence_converge")
	counted, err := runWorkload(runConfig{w: w, seed: 5, measure: 500 * time.Millisecond, kind: runCounted, setups: 1, log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runWorkload(runConfig{w: w, seed: 5, measure: 500 * time.Millisecond, kind: runTraced, setups: 1, outDir: t.TempDir(), log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*runResult{counted, traced} {
		if !r.correct() || r.failed != 0 {
			t.Fatalf("correct=%v failed=%d: %v", r.correct(), r.failed, r.firstErr)
		}
	}
	m := layerValues(&w, map[string]float64{}, counted, traced, counted.opsPerSec*2)
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			t.Errorf("layerValues leaves out %s", d.name)
		}
	}
	if got := m["actor.calls_per_op"]; got < 2.5 || got > 4.5 {
		t.Errorf("actor.calls_per_op = %v, want about 3.25", got)
	}
	if m["core.applies"] != 0 || m["core.ticks"] != 0 {
		t.Errorf("thread controller ran on a call-tree workload: %v ticks, %v applies", m["core.ticks"], m["core.applies"])
	}
	if m["partition.rounds"] == 0 {
		t.Error("no partition exchange round ran")
	}
	if m["partition.oracle_gap"] != 0.5 {
		t.Errorf("partition.oracle_gap = %v, want 0.5", m["partition.oracle_gap"])
	}
	sp := traced.spans
	if sp.Status.Ops == 0 || sp.Dropped != 0 {
		t.Fatalf("traced pass: %d status ops in spans, %d spans dropped", sp.Status.Ops, sp.Dropped)
	}
	parts := sp.Status.DriverSelfUs + sp.Status.TurnSelfUs + sp.Status.LocalOvhUs + sp.Status.RemoteOvhUs
	if diff := parts - sp.Status.TotalUs; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("status parts sum to %v us of %v us", parts, sp.Status.TotalUs)
	}
	if traced.rt.clientSpans == 0 {
		t.Error("the runtime's trace rings hold no client span of the traced phase")
	}
}

// TestStallAborts: when nothing completes for the stall limit the watch
// gives up instead of sleeping out the phase.
func TestStallAborts(t *testing.T) {
	w := small("presence_remote")
	d := newDriver(&w, 1, newKeyTable(8), nil, time.Second)
	d.stall = 100 * time.Millisecond
	begin := time.Now()
	_, err := d.watch(time.Minute, windows, 0, nil) // no client was started: nothing ever completes
	if !errors.Is(err, errStalled) {
		t.Fatalf("watch returned %v, want errStalled", err)
	}
	if took := time.Since(begin); took > 10*d.stall {
		t.Errorf("the stall took %v to notice, want about %v", took, d.stall)
	}
}
