// Package actop reproduces "Optimizing Distributed Actor Systems for
// Dynamic Interactive Services" (Newell et al., EuroSys 2016).
//
// The repository contains two complementary halves:
//
//   - a real, goroutine-based distributed virtual-actor runtime with
//     ActOp's optimizations attached (internal/actor, internal/seda,
//     internal/transport, internal/core) — the adoptable library; and
//   - a deterministic discrete-event cluster simulator (internal/des,
//     internal/sim) and the paper harness on top of it
//     (internal/experiments, which holds the Halo Presence and single-hop
//     workload generators) that regenerates every table and figure of the
//     paper's evaluation at cluster scale on a single core.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
package actop
