// Package spec is a declarative workload specification language for the
// ActOp benchmark suite, plus the compiler that turns one spec into
// identical load against two very different backends:
//
//   - the discrete-event simulator (internal/sim), where a run is
//     bit-reproducible from the seed, and
//   - the real actor runtime (internal/actor), driven by internal/loadgen
//     from the *same* deterministic schedule, so runs are statistically
//     reproducible.
//
// A Spec names actor kinds (population, state size, churn, optional
// short-lived "swarm" lifecycle), topology links between kinds (fixed,
// uniform or Zipf out-degrees; modular/block/inverse assignment), client
// operations (target-kind popularity incl. Zipf, payload size, a fan-out
// call tree along links) and an arrival process (Poisson, bursty on-off,
// or diurnal). Five built-in scenarios (scenarios.go) cover the paper's
// two Halo workloads plus social-graph fanout, IoT telemetry ingest and
// matchmaking lobbies.
//
// The point of the shared spec is the conformance layer (conformance.go):
// for every scenario, the DES run and the real-runtime run must agree on
// completion, throughput and message amplification within a stated
// tolerance, and each must satisfy the scenario's invariants (value
// conservation, exactly-once effects, no lost lobby members under churn).
//
// This package must not read the wall clock or the process-global rand
// source, so the same code paths stay usable inside the DES — pinned by
// TestScheduleDeterminism/TestDESTraceDeterminism and `make seeded`.
// Everything random derives from Spec.Seed.
package spec

import (
	"fmt"
	"time"
)

// DistKind selects the shape of a Dist.
type DistKind uint8

// Distribution shapes.
const (
	// DistFixed always yields A.
	DistFixed DistKind = iota
	// DistUniform yields uniformly from [A, B].
	DistUniform
	// DistZipf yields A + Zipf(S) over [0, B-A], skewed toward A.
	DistZipf
)

// Dist is a small discrete distribution over non-negative integers, used
// for link out-degrees.
type Dist struct {
	Kind DistKind
	A, B int
	// S is the Zipf exponent (must be > 1 when Kind == DistZipf).
	S float64
}

// Fixed is shorthand for a constant distribution.
func Fixed(n int) Dist { return Dist{Kind: DistFixed, A: n} }

// Uniform is shorthand for a uniform [lo, hi] distribution.
func Uniform(lo, hi int) Dist { return Dist{Kind: DistUniform, A: lo, B: hi} }

// Zipf is shorthand for a Zipf-skewed distribution on [lo, hi].
func Zipf(lo, hi int, s float64) Dist { return Dist{Kind: DistZipf, A: lo, B: hi, S: s} }

// Pop selects how an operation picks its target among a kind's
// population: uniform by default, Zipf-skewed toward low slots when
// Zipf is set (slot 0 is the hottest key).
type Pop struct {
	Zipf bool
	S    float64
}

// ArrivalKind selects the arrival process of client operations.
type ArrivalKind uint8

// Arrival processes.
const (
	// ArrivalPoisson is a homogeneous Poisson process at Rate.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalBursty is an on-off modulated Poisson process: Rate in the
	// off state, Rate×BurstFactor during exponentially distributed bursts.
	ArrivalBursty
	// ArrivalDiurnal modulates Rate sinusoidally with the given Period and
	// Amplitude — a compressed day/night cycle.
	ArrivalDiurnal
)

// Arrival describes the client-operation arrival process.
type Arrival struct {
	Process ArrivalKind
	// Rate is the base arrival rate in operations per second.
	Rate float64

	// BurstFactor multiplies Rate while a burst is on (ArrivalBursty).
	BurstFactor float64
	// BurstOn/BurstOff are the mean burst / quiet durations, each
	// exponentially distributed (ArrivalBursty).
	BurstOn, BurstOff time.Duration

	// Period and Amplitude (0..1) shape the sinusoidal rate modulation
	// (ArrivalDiurnal): rate(t) = Rate × (1 + Amplitude·sin(2πt/Period)).
	Period    time.Duration
	Amplitude float64
}

// Kind declares one actor kind.
type Kind struct {
	Name string
	// Population is the number of live actors of this kind at start.
	// Swarm kinds (Capacity > 0) start empty and grow on demand.
	Population int
	// StateBytes sizes each actor's resident state payload.
	StateBytes int

	// ChurnRate is the per-second fraction of the population replaced:
	// a churn event retires one uniformly chosen actor and re-creates it
	// (fresh state, same topology slot). 0 disables churn.
	ChurnRate float64

	// Capacity > 0 marks a swarm kind (matchmaking lobbies): actors are
	// created on demand by Join operations, fill to Capacity members, and
	// retire Lifetime later — short-lived actor swarms under bursty
	// creation.
	Capacity int
	// LifetimeMin/Max bound the uniformly distributed post-fill lifetime
	// of a swarm actor.
	LifetimeMin, LifetimeMax time.Duration
}

// AssignKind selects how a link's adjacency is built.
type AssignKind uint8

// Adjacency assignment modes.
const (
	// AssignRandom samples Degree targets uniformly without replacement.
	AssignRandom AssignKind = iota
	// AssignMod links from-actor i to to-actor i mod |To| (Degree 1) —
	// the many-to-few fan-in assignment (devices → aggregators).
	AssignMod
	// AssignBlock links from-actor i to to-actor i / ⌈|From|/|To|⌉
	// (Degree 1) — contiguous groups (players → their game).
	AssignBlock
	// AssignInverse transposes another link's adjacency (games → their
	// members); Degree is ignored.
	AssignInverse
)

// Link declares a topology edge set between two kinds. Adjacency is built
// deterministically from the spec seed at compile time and is identical in
// both backends.
type Link struct {
	Name     string
	From, To string
	// Degree draws each from-actor's out-degree (AssignRandom).
	Degree Dist
	Assign AssignKind
	// InverseOf names the link to transpose (AssignInverse).
	InverseOf string
}

// Step is one hop of an operation's fan-out call tree: the current actor
// calls every neighbor along Link; each callee then executes Then. Gather
// marks the hop as acknowledged (fan-in) in the DES model; in the real
// runtime every call is a synchronous request/reply, so Gather only
// affects how the DES models reply traffic — the call count (the
// amplification the conformance layer compares) is identical either way.
//
// Validate requires the kind-level graph of all step links to be acyclic.
// On the real runtime every hop is a synchronous turn-holding call, so a
// kind cycle lets two activations wait on each other (player A blocked on
// its game while the game fans out to player B, itself blocked calling
// the game) and deadlock until timeout. With a kind DAG every wait-for
// chain strictly descends, so deadlock is impossible by construction; the
// DES would not hang either way, which is exactly the kind of
// model/reality divergence the conformance layer exists to rule out.
type Step struct {
	Link   string
	Gather bool
	Then   []Step
}

// Op declares one client-initiated operation.
type Op struct {
	Name string
	// Kind is the target actor kind.
	Kind string
	// Weight is the operation's share of the arrival mix.
	Weight int
	// Pop selects the target among the kind's population (ignored for
	// Join ops).
	Pop Pop
	// PayloadBytes sizes the request payload carried on every hop.
	PayloadBytes int
	// Steps is the fan-out call tree the target executes.
	Steps []Step
	// Join routes the operation to the kind's currently filling swarm
	// actor instead of a population slot (the kind must have Capacity>0).
	Join bool
}

// Spec is a complete declarative workload.
type Spec struct {
	Name        string
	Description string

	Kinds []Kind
	Links []Link
	Ops   []Op

	Arrival Arrival
	// Duration is the schedule horizon: operations arrive in [0, Duration).
	Duration time.Duration

	// Seed drives every random choice — topology, arrivals, popularity,
	// churn, lifetimes. DES runs with equal seeds are bit-identical;
	// real-runtime runs replay the identical schedule.
	Seed int64
}

// Tolerance states how closely the two backends must agree for a spec;
// it is part of the scenario definition so the conformance bar is explicit.
type Tolerance struct {
	// Throughput is the allowed relative difference in completed
	// operations per second between DES and real runs.
	Throughput float64
	// Amplification is the allowed relative difference in actor-to-actor
	// calls per completed operation.
	Amplification float64
	// MinCompletion is the minimum completed/submitted fraction each
	// backend must reach on its own.
	MinCompletion float64
}

// kindIndex returns the position of the named kind, or -1.
func (s *Spec) kindIndex(name string) int {
	for i := range s.Kinds {
		if s.Kinds[i].Name == name {
			return i
		}
	}
	return -1
}

// linkIndex returns the position of the named link, or -1.
func (s *Spec) linkIndex(name string) int {
	for i := range s.Links {
		if s.Links[i].Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the spec's internal references and parameter ranges.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec: missing name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("spec %s: duration must be positive", s.Name)
	}
	if s.Arrival.Rate <= 0 {
		return fmt.Errorf("spec %s: arrival rate must be positive", s.Name)
	}
	switch s.Arrival.Process {
	case ArrivalBursty:
		if s.Arrival.BurstFactor < 1 || s.Arrival.BurstOn <= 0 || s.Arrival.BurstOff <= 0 {
			return fmt.Errorf("spec %s: bursty arrivals need BurstFactor ≥ 1 and positive on/off durations", s.Name)
		}
	case ArrivalDiurnal:
		if s.Arrival.Period <= 0 || s.Arrival.Amplitude < 0 || s.Arrival.Amplitude > 1 {
			return fmt.Errorf("spec %s: diurnal arrivals need a positive period and amplitude in [0,1]", s.Name)
		}
	}
	if len(s.Kinds) == 0 {
		return fmt.Errorf("spec %s: no actor kinds", s.Name)
	}
	for i := range s.Kinds {
		k := &s.Kinds[i]
		if k.Name == "" {
			return fmt.Errorf("spec %s: kind %d has no name", s.Name, i)
		}
		for j := 0; j < i; j++ {
			if s.Kinds[j].Name == k.Name {
				return fmt.Errorf("spec %s: duplicate kind %q", s.Name, k.Name)
			}
		}
		if k.Capacity > 0 {
			if k.Population != 0 {
				return fmt.Errorf("spec %s: swarm kind %q must start with population 0", s.Name, k.Name)
			}
			if k.LifetimeMin <= 0 || k.LifetimeMax < k.LifetimeMin {
				return fmt.Errorf("spec %s: swarm kind %q needs 0 < LifetimeMin ≤ LifetimeMax", s.Name, k.Name)
			}
		} else if k.Population <= 0 {
			return fmt.Errorf("spec %s: kind %q needs a positive population", s.Name, k.Name)
		}
		if k.ChurnRate < 0 {
			return fmt.Errorf("spec %s: kind %q has negative churn", s.Name, k.Name)
		}
		if k.ChurnRate > 0 && k.Capacity > 0 {
			return fmt.Errorf("spec %s: swarm kind %q cannot also declare churn (swarm turnover is the churn)", s.Name, k.Name)
		}
	}
	for i := range s.Links {
		l := &s.Links[i]
		if l.Name == "" {
			return fmt.Errorf("spec %s: link %d has no name", s.Name, i)
		}
		for j := 0; j < i; j++ {
			if s.Links[j].Name == l.Name {
				return fmt.Errorf("spec %s: duplicate link %q", s.Name, l.Name)
			}
		}
		fi, ti := s.kindIndex(l.From), s.kindIndex(l.To)
		if fi < 0 || ti < 0 {
			return fmt.Errorf("spec %s: link %q references unknown kind", s.Name, l.Name)
		}
		if s.Kinds[fi].Capacity > 0 || s.Kinds[ti].Capacity > 0 {
			return fmt.Errorf("spec %s: link %q touches a swarm kind; swarm membership is dynamic", s.Name, l.Name)
		}
		switch l.Assign {
		case AssignRandom:
			if l.Degree.Kind == DistZipf && l.Degree.S <= 1 {
				return fmt.Errorf("spec %s: link %q Zipf degree needs exponent > 1", s.Name, l.Name)
			}
			if l.Degree.A < 0 || (l.Degree.Kind != DistFixed && l.Degree.B < l.Degree.A) {
				return fmt.Errorf("spec %s: link %q has an invalid degree range", s.Name, l.Name)
			}
		case AssignInverse:
			j := s.linkIndex(l.InverseOf)
			if j < 0 || j == i {
				return fmt.Errorf("spec %s: link %q inverts unknown link %q", s.Name, l.Name, l.InverseOf)
			}
			inv := &s.Links[j]
			if inv.Assign == AssignInverse {
				return fmt.Errorf("spec %s: link %q inverts another inverse link", s.Name, l.Name)
			}
			if inv.From != l.To || inv.To != l.From {
				return fmt.Errorf("spec %s: link %q must transpose %q's endpoints", s.Name, l.Name, l.InverseOf)
			}
		}
	}
	if len(s.Ops) == 0 {
		return fmt.Errorf("spec %s: no operations", s.Name)
	}
	totalWeight := 0
	for i := range s.Ops {
		op := &s.Ops[i]
		if op.Name == "" {
			return fmt.Errorf("spec %s: op %d has no name", s.Name, i)
		}
		if op.Weight <= 0 {
			return fmt.Errorf("spec %s: op %q needs a positive weight", s.Name, op.Name)
		}
		totalWeight += op.Weight
		ki := s.kindIndex(op.Kind)
		if ki < 0 {
			return fmt.Errorf("spec %s: op %q targets unknown kind %q", s.Name, op.Name, op.Kind)
		}
		if op.Join != (s.Kinds[ki].Capacity > 0) {
			return fmt.Errorf("spec %s: op %q: Join ops and swarm kinds must pair up", s.Name, op.Name)
		}
		if op.Pop.Zipf && op.Pop.S <= 1 {
			return fmt.Errorf("spec %s: op %q Zipf popularity needs exponent > 1", s.Name, op.Name)
		}
		if err := s.validateSteps(op.Name, op.Kind, op.Steps, 0); err != nil {
			return err
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("spec %s: zero total op weight", s.Name)
	}
	if cyc := s.kindCycle(); cyc != "" {
		return fmt.Errorf("spec %s: step links form a kind cycle (%s); synchronous turns would deadlock on the real runtime", s.Name, cyc)
	}
	return nil
}

// kindCycle looks for a cycle in the kind-level graph induced by every
// link any op's steps traverse, returning a printable witness ("" = DAG).
func (s *Spec) kindCycle() string {
	edges := make([][]int, len(s.Kinds))
	var collect func(fromKind int, steps []Step)
	collect = func(fromKind int, steps []Step) {
		for i := range steps {
			li := s.linkIndex(steps[i].Link)
			if li < 0 {
				continue
			}
			to := s.kindIndex(s.Links[li].To)
			edges[fromKind] = append(edges[fromKind], to)
			collect(to, steps[i].Then)
		}
	}
	for i := range s.Ops {
		collect(s.kindIndex(s.Ops[i].Kind), s.Ops[i].Steps)
	}
	// DFS three-coloring; a back edge names the cycle.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(s.Kinds))
	var walk func(k int) string
	walk = func(k int) string {
		color[k] = gray
		for _, to := range edges[k] {
			switch color[to] {
			case gray:
				return s.Kinds[k].Name + " → " + s.Kinds[to].Name
			case white:
				if w := walk(to); w != "" {
					return w
				}
			}
		}
		color[k] = black
		return ""
	}
	for k := range s.Kinds {
		if color[k] == white {
			if w := walk(k); w != "" {
				return w
			}
		}
	}
	return ""
}

// validateSteps checks that every step's link departs from the kind the
// step executes on, and bounds tree depth.
func (s *Spec) validateSteps(opName, fromKind string, steps []Step, depth int) error {
	if depth > 4 {
		return fmt.Errorf("spec %s: op %q call tree deeper than 4", s.Name, opName)
	}
	for i := range steps {
		st := &steps[i]
		li := s.linkIndex(st.Link)
		if li < 0 {
			return fmt.Errorf("spec %s: op %q step uses unknown link %q", s.Name, opName, st.Link)
		}
		l := &s.Links[li]
		if l.From != fromKind {
			return fmt.Errorf("spec %s: op %q step link %q departs from %q, not %q",
				s.Name, opName, st.Link, l.From, fromKind)
		}
		if err := s.validateSteps(opName, l.To, st.Then, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// TotalWeight sums the op weights.
func (s *Spec) TotalWeight() int {
	t := 0
	for i := range s.Ops {
		t += s.Ops[i].Weight
	}
	return t
}

// MeanRate reports the long-run mean arrival rate in ops/sec, accounting
// for burst and diurnal modulation.
func (s *Spec) MeanRate() float64 {
	a := s.Arrival
	switch a.Process {
	case ArrivalBursty:
		on, off := a.BurstOn.Seconds(), a.BurstOff.Seconds()
		if on+off <= 0 {
			return a.Rate
		}
		return a.Rate * (off + a.BurstFactor*on) / (on + off)
	default:
		// Poisson is flat; the diurnal sine integrates to zero over whole
		// periods.
		return a.Rate
	}
}

// ExpectedAmplification reports the statically expected actor-to-actor
// calls per operation (mean over the op mix, using mean link degrees).
// Dynamic effects (swarm routing, Zipf-popular targets, root-actor
// exclusion) make this approximate; the exact anchor is a schedule replay
// over the compiled topology, which the tests perform.
func (s *Spec) ExpectedAmplification() float64 {
	tw := s.TotalWeight()
	if tw == 0 {
		return 0
	}
	var total float64
	for i := range s.Ops {
		op := &s.Ops[i]
		total += float64(op.Weight) * s.meanTreeSize(op.Kind, op.Steps)
	}
	return total / float64(tw)
}

// meanTreeSize reports the mean number of calls issued by one execution of
// steps on fromKind.
func (s *Spec) meanTreeSize(fromKind string, steps []Step) float64 {
	var total float64
	for i := range steps {
		st := &steps[i]
		li := s.linkIndex(st.Link)
		if li < 0 {
			continue
		}
		d := s.meanDegree(li)
		total += d * (1 + s.meanTreeSize(s.Links[li].To, st.Then))
	}
	return total
}

// meanDegree reports a link's mean out-degree.
func (s *Spec) meanDegree(li int) float64 {
	l := &s.Links[li]
	switch l.Assign {
	case AssignMod, AssignBlock:
		return 1
	case AssignInverse:
		j := s.linkIndex(l.InverseOf)
		if j < 0 {
			return 0
		}
		inv := &s.Links[j]
		fi, ti := s.kindIndex(inv.From), s.kindIndex(inv.To)
		if fi < 0 || ti < 0 || s.Kinds[ti].Population == 0 {
			return 0
		}
		return s.meanDegree(j) * float64(s.Kinds[fi].Population) / float64(s.Kinds[ti].Population)
	default:
		switch l.Degree.Kind {
		case DistFixed:
			return float64(l.Degree.A)
		case DistUniform:
			return float64(l.Degree.A+l.Degree.B) / 2
		case DistZipf:
			// No closed form worth carrying; measured empirically by the
			// compiler (Topology.MeanDegree) — callers that need precision
			// use the compiled topology.
			return float64(l.Degree.A+l.Degree.B) / 2
		}
	}
	return 0
}
