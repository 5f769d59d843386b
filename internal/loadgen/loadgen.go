// Package loadgen drives a declarative workload spec (internal/workload/
// spec) against the real actor runtime (internal/actor). It is the second
// interpreter of the spec language: the DES backend lives in the spec
// package itself, while this one touches the wall clock and live Systems,
// so it stays outside the seeded, deterministic packages.
//
// The driver replays the spec's precomputed schedule — the identical Draw
// sequence the DES consumes — open-loop against wall time: operations are
// submitted at their scheduled instants from a worker pool, churn events
// bump a slot's generation (virtual actors never die, so the old
// incarnation just goes cold, exactly how the DES drains it), and swarm
// joins are routed to the filling lobby. The filled-in spec.Result is
// what the conformance layer cross-checks against the DES run.
package loadgen

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/metrics"
	"actop/internal/workload/spec"
)

// Options tunes a real-runtime run.
type Options struct {
	// Workers sizes the submission pool (default 32): the max operations
	// in flight at once from the driver.
	Workers int

	// Drive restricts which systems the driver submits through (and
	// audits through). Empty means all of the runner's systems. Chaos
	// runs set this to the survivors so the submission plane stays up
	// while a victim node is hard-killed mid-run.
	Drive []*actor.System

	// Halfway, when set, fires once at the first scheduled event past
	// Duration/2 — after the driver has drained every operation
	// submitted so far, so the shared-memory oracle counters are exact
	// at the cut. Chaos runs use it to flush snapshots and kill a node.
	Halfway func()
}

// compiled call-tree node: the method string routes the real runtime's
// Receive dispatch to the right subtree.
type stepNode struct {
	link   int
	toKind int
	method string
	then   []*stepNode
}

type opNode struct {
	op    *spec.Op
	kind  int
	args  *callArgs
	steps []*stepNode
}

// callArgs is the wire payload of every spec call: the op's declared
// padding, so payload size shapes serialization cost as specified.
type callArgs struct {
	Pad []byte
}

// counters is the process-shared effect accounting the invariant checks
// audit. The actors and the driver share one instance.
type counters struct {
	opsExecuted  atomic.Uint64
	legsSent     atomic.Uint64
	legsReceived atomic.Uint64
}

// Runner owns one spec wired onto a set of in-process actor systems.
type Runner struct {
	sp      *spec.Spec
	topo    *spec.Topology
	systems []*actor.System

	typeNames []string       // per kind: registered actor type
	typeKind  map[string]int // reverse lookup for specActor identity
	ops       []*opNode
	dispatch  map[string]*stepNode // step method → subtree

	gen [][]atomic.Int32 // per kind, per slot: churn generation

	// lobbySlots records, per kind, how many lobby slots Run opened, so
	// post-run audits (AuditOps after a chaos kill) can re-walk every
	// lobby that ever existed.
	lobbySlots []int

	ctrs counters
}

// typeName is the registered actor type of a kind (namespaced per spec so
// several runners can share a process).
func typeName(sp *spec.Spec, kind string) string {
	return "spec/" + sp.Name + "/" + kind
}

// New compiles the spec against the given systems: the topology is built,
// every kind's actor type is registered on every node, and the call-tree
// dispatch table is laid out. The systems must all live in this process
// (the conformance counters are shared memory).
func New(sp *spec.Spec, systems []*actor.System) (*Runner, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("loadgen: no systems")
	}
	topo, err := spec.BuildTopology(sp)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		sp: sp, topo: topo, systems: systems,
		typeNames: make([]string, len(sp.Kinds)),
		typeKind:  make(map[string]int, len(sp.Kinds)),
		dispatch:  make(map[string]*stepNode),
		gen:       make([][]atomic.Int32, len(sp.Kinds)),
	}
	for ki := range sp.Kinds {
		k := &sp.Kinds[ki]
		r.typeNames[ki] = typeName(sp, k.Name)
		r.typeKind[r.typeNames[ki]] = ki
		r.gen[ki] = make([]atomic.Int32, k.Population)
	}
	r.ops = make([]*opNode, len(sp.Ops))
	for oi := range sp.Ops {
		op := &sp.Ops[oi]
		node := &opNode{op: op, kind: kindIndex(sp, op.Kind)}
		node.args = &callArgs{Pad: make([]byte, op.PayloadBytes)}
		node.steps = r.compileSteps(oi, "", kindIndex(sp, op.Kind), op.Steps)
		r.ops[oi] = node
	}
	for _, sys := range systems {
		for ki := range sp.Kinds {
			sys.RegisterType(r.typeNames[ki], r.newActor)
		}
	}
	return r, nil
}

func kindIndex(sp *spec.Spec, name string) int {
	for i := range sp.Kinds {
		if sp.Kinds[i].Name == name {
			return i
		}
	}
	return -1
}

func linkIndex(sp *spec.Spec, name string) int {
	for i := range sp.Links {
		if sp.Links[i].Name == name {
			return i
		}
	}
	return -1
}

// compileSteps resolves one tree level and registers its dispatch methods:
// step path p of op oi answers to method "st<oi>/<p>".
func (r *Runner) compileSteps(oi int, path string, fromKind int, steps []spec.Step) []*stepNode {
	out := make([]*stepNode, len(steps))
	for i := range steps {
		st := &steps[i]
		li := linkIndex(r.sp, st.Link)
		p := strconv.Itoa(i)
		if path != "" {
			p = path + "." + p
		}
		n := &stepNode{
			link:   li,
			toKind: kindIndex(r.sp, r.sp.Links[li].To),
			method: "st" + strconv.Itoa(oi) + "/" + p,
		}
		n.then = r.compileSteps(oi, p, n.toKind, st.Then)
		r.dispatch[n.method] = n
		out[i] = n
	}
	return out
}

// refOf renders the live ref of a topology slot at its current churn
// generation.
func (r *Runner) refOf(kind, slot int) actor.Ref {
	gen := int(r.gen[kind][slot].Load())
	return actor.Ref{Type: r.typeNames[kind], Key: spec.KeyOf(slot, gen)}
}

// fanout issues one tree level from an actor's turn: a synchronous call
// per target, each carrying the same args. Deadlock-freedom is structural:
// Validate only admits specs whose step links descend a kind DAG, so a
// turn never transitively waits on an actor upstream of it.
func (r *Runner) fanout(ctx *actor.Context, fromSlot int, steps []*stepNode, a *callArgs) error {
	for _, sn := range steps {
		for _, t := range r.topo.Targets(sn.link, fromSlot) {
			r.ctrs.legsSent.Add(1)
			if err := ctx.Call(r.refOf(sn.toKind, int(t)), sn.method, a, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// specActor is the generic spec interpreter on the real runtime: one
// activation per (kind, slot, generation).
type specActor struct {
	r    *Runner
	init bool
	kind int
	slot int

	// Durable per-actor effect counters: joins is the lobby roster
	// (swarm kinds), ops/legs mirror the driver's shared-memory totals
	// one actor at a time. AuditOps sums them back; with durability on,
	// a hard-killed node's counts must survive into the re-activation.
	joins int
	ops   int
	legs  int
}

// specState is the snapshot wire shape of a specActor: only the effect
// counters travel — identity (kind/slot) re-derives from the ref.
type specState struct {
	Joins, Ops, Legs int
}

func (r *Runner) newActor() actor.Actor { return &specActor{r: r} }

// Snapshot/Restore make every spec actor Migratable, and DurableActor
// opts it into replication whenever the host system runs with
// DurableReplicas > 0 (a plain run leaves durability off, so this is
// free for the conformance tests).
func (a *specActor) Snapshot() ([]byte, error) {
	return codec.Marshal(specState{Joins: a.joins, Ops: a.ops, Legs: a.legs})
}

func (a *specActor) Restore(data []byte) error {
	var st specState
	if err := codec.Unmarshal(data, &st); err != nil {
		return err
	}
	a.joins, a.ops, a.legs = st.Joins, st.Ops, st.Legs
	return nil
}

// CopyValue is the O(state) fast-capture path: a specActor is a handful
// of ints plus the shared Runner pointer, so the turn-locked copy is one
// struct copy and the encode runs on the snapshotter stage.
func (a *specActor) CopyValue() interface{} {
	cp := *a
	return &cp
}

func (a *specActor) DurableActor() {}

// identify parses the activation's (kind, slot) from its ref; activations
// are single-threaded, so the lazy init is race-free.
func (a *specActor) identify(ctx *actor.Context) error {
	if a.init {
		return nil
	}
	self := ctx.Self()
	ki, ok := a.r.typeKind[self.Type]
	if !ok {
		return fmt.Errorf("loadgen: unknown spec type %q", self.Type)
	}
	slotStr, _, _ := strings.Cut(self.Key, ".g")
	slot, err := strconv.Atoi(slotStr)
	if err != nil {
		return fmt.Errorf("loadgen: bad spec key %q: %v", self.Key, err)
	}
	a.kind, a.slot, a.init = ki, slot, true
	return nil
}

// Receive dispatches "op<i>" roots, "st<i>/<path>" tree hops, and the
// "members" audit probe.
func (a *specActor) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	if err := a.identify(ctx); err != nil {
		return nil, err
	}
	switch method {
	case "members":
		return codec.Marshal(a.joins)
	case "opcount":
		return codec.Marshal(a.ops)
	case "legcount":
		return codec.Marshal(a.legs)
	}
	var ca callArgs
	if err := codec.Unmarshal(args, &ca); err != nil {
		return nil, err
	}
	if oi, ok := strings.CutPrefix(method, "op"); ok && !strings.Contains(oi, "/") {
		idx, err := strconv.Atoi(oi)
		if err != nil || idx < 0 || idx >= len(a.r.ops) {
			return nil, fmt.Errorf("loadgen: bad op method %q", method)
		}
		node := a.r.ops[idx]
		a.r.ctrs.opsExecuted.Add(1)
		a.ops++
		if node.op.Join {
			a.joins++
		}
		return nil, a.r.fanout(ctx, a.slot, node.steps, &ca)
	}
	if sn, ok := a.r.dispatch[method]; ok {
		a.r.ctrs.legsReceived.Add(1)
		a.legs++
		return nil, a.r.fanout(ctx, a.slot, sn.then, &ca)
	}
	return nil, fmt.Errorf("loadgen: unknown spec method %q", method)
}

// job is one scheduled operation handed to the submission pool.
type job struct {
	sys    *actor.System
	ref    actor.Ref
	method string
	args   *callArgs
	due    time.Time
}

// Run replays the schedule against the systems and reports the filled-in
// Result for the conformance layer.
func (r *Runner) Run(opts Options) (*spec.Result, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = 32
	}
	drive := opts.Drive
	if len(drive) == 0 {
		drive = r.systems
	}
	sched := spec.NewStream(r.sp).Schedule()

	res := &spec.Result{
		Scenario: r.sp.Name,
		Backend:  "real",
		Horizon:  r.sp.Duration,
	}

	var (
		completed atomic.Uint64
		errored   atomic.Uint64
		errMu     sync.Mutex
		firstErr  error
	)
	jobs := make(chan job, len(sched))
	hists := make([]metrics.Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if err := j.sys.Call(j.ref, j.method, j.args, nil); err != nil {
					errored.Add(1)
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					continue
				}
				completed.Add(1)
				// Open-loop latency: scheduled arrival to completion, so
				// driver backlog counts against the run, as queueing does
				// in the DES.
				hists[w].Record(time.Since(j.due))
			}
		}()
	}

	// Swarm routing state (driver-side, single goroutine — mirrors the DES
	// router draw for draw).
	type swarm struct {
		open    bool
		slot    int
		next    int
		members int
	}
	swarms := make([]swarm, len(r.sp.Kinds))

	t0 := time.Now()
	halfway := opts.Halfway
	for _, d := range sched {
		if halfway != nil && d.At >= r.sp.Duration/2 {
			// Quiesce: every operation submitted so far must finish, so
			// the oracle counters are a consistent cut before the hook
			// flushes snapshots / kills a node.
			for completed.Load()+errored.Load() < res.Submitted {
				time.Sleep(time.Millisecond)
			}
			halfway()
			halfway = nil
		}
		if wait := time.Until(t0.Add(d.At)); wait > 0 {
			time.Sleep(wait)
		}
		switch d.Ev {
		case spec.EvChurn:
			r.gen[d.Kind][d.Target].Add(1)
			res.Churned++
		case spec.EvOp:
			node := r.ops[d.Op]
			slot := d.Target
			if node.op.Join {
				sw := &swarms[node.kind]
				k := &r.sp.Kinds[node.kind]
				if !sw.open {
					sw.open, sw.slot, sw.members = true, sw.next, 0
					sw.next++
					res.LobbiesUsed++
				}
				slot = sw.slot
				sw.members++
				res.JoinsRouted++
				if sw.members >= k.Capacity {
					sw.open = false
				}
			}
			var ref actor.Ref
			if node.op.Join {
				// Lobby slots are born per join wave and never churn.
				ref = actor.Ref{Type: r.typeNames[node.kind], Key: spec.KeyOf(slot, 0)}
			} else {
				ref = r.refOf(node.kind, slot)
			}
			res.Submitted++
			jobs <- job{
				sys:    drive[int(d.Src)%len(drive)],
				ref:    ref,
				method: "op" + strconv.Itoa(d.Op),
				args:   node.args,
				due:    t0.Add(d.At),
			}
		}
	}
	close(jobs)
	wg.Wait()
	res.Elapsed = time.Since(t0)

	res.Completed = completed.Load()
	res.Errors = errored.Load()
	res.OpsExecuted = r.ctrs.opsExecuted.Load()
	res.LegsSent = r.ctrs.legsSent.Load()
	res.LegsReceived = r.ctrs.legsReceived.Load()
	for i := range hists {
		res.Latency.Merge(&hists[i])
	}

	// Swarm audit: ask every lobby that ever opened for its own member
	// count; the sum must reproduce the joins the driver routed.
	r.lobbySlots = make([]int, len(r.sp.Kinds))
	for ki := range r.sp.Kinds {
		r.lobbySlots[ki] = swarms[ki].next
		if r.sp.Kinds[ki].Capacity == 0 {
			continue
		}
		for slot := 0; slot < swarms[ki].next; slot++ {
			var n int
			ref := actor.Ref{Type: r.typeNames[ki], Key: spec.KeyOf(slot, 0)}
			if err := drive[slot%len(drive)].Call(ref, "members", nil, &n); err != nil {
				return res, fmt.Errorf("loadgen: lobby %s audit: %w", ref, err)
			}
			res.LobbyMembers += uint64(n)
		}
	}
	if firstErr != nil {
		return res, fmt.Errorf("loadgen: %d/%d operations failed, first: %w", res.Errors, res.Submitted, firstErr)
	}
	return res, nil
}

// Audit is the per-actor view of a finished run: every actor the spec
// ever addressed, asked for its own effect counters. With durability on,
// these must reproduce the driver's shared-memory totals even after a
// node hosting some of the actors was hard-killed — that is the
// exactly-once oracle the chaos suite checks.
type Audit struct {
	Ops     uint64 // sum of per-actor executed-op counters
	Legs    uint64 // sum of per-actor received-leg counters
	Members uint64 // sum of lobby rosters (swarm kinds)
}

// AuditOps re-walks every (kind, slot, generation) the run addressed —
// including every lobby slot that ever opened — and sums the per-actor
// counters via the given systems (defaults to all of the runner's).
// Actors that lived on a dead node re-activate on a survivor during the
// walk, so the sums measure exactly what failover recovered.
func (r *Runner) AuditOps(via []*actor.System) (Audit, error) {
	if len(via) == 0 {
		via = r.systems
	}
	var (
		out Audit
		i   int
	)
	query := func(ref actor.Ref, method string) (int, error) {
		var n int
		sys := via[i%len(via)]
		i++
		if err := sys.Call(ref, method, nil, &n); err != nil {
			return 0, fmt.Errorf("loadgen: audit %s %s: %w", ref, method, err)
		}
		return n, nil
	}
	walk := func(ref actor.Ref, lobby bool) error {
		o, err := query(ref, "opcount")
		if err != nil {
			return err
		}
		l, err := query(ref, "legcount")
		if err != nil {
			return err
		}
		out.Ops += uint64(o)
		out.Legs += uint64(l)
		if lobby {
			m, err := query(ref, "members")
			if err != nil {
				return err
			}
			out.Members += uint64(m)
		}
		return nil
	}
	for ki := range r.sp.Kinds {
		k := &r.sp.Kinds[ki]
		if k.Capacity > 0 {
			slots := 0
			if r.lobbySlots != nil {
				slots = r.lobbySlots[ki]
			}
			for slot := 0; slot < slots; slot++ {
				ref := actor.Ref{Type: r.typeNames[ki], Key: spec.KeyOf(slot, 0)}
				if err := walk(ref, true); err != nil {
					return out, err
				}
			}
			continue
		}
		for slot := 0; slot < k.Population; slot++ {
			// Walk every generation the slot ever lived as: churned-away
			// incarnations banked effects too, and with durability on
			// their counters must still be recoverable.
			maxGen := int(r.gen[ki][slot].Load())
			for g := 0; g <= maxGen; g++ {
				ref := actor.Ref{Type: r.typeNames[ki], Key: spec.KeyOf(slot, g)}
				if err := walk(ref, false); err != nil {
					return out, err
				}
			}
		}
	}
	return out, nil
}
