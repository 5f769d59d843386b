package spec

import (
	"fmt"
	"math"
	"time"

	"actop/internal/des"
)

// Seed derivation: every random purpose (topology, arrivals, per-kind
// churn, per-swarm-slot lifetimes) gets its own stream, derived from
// Spec.Seed with splitmix64 so streams are independent but fully
// determined by the one seed. Both backends derive identically, which is
// what makes the real runtime replay the DES schedule.

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of an independent stream identified by purpose
// tag and index.
func subSeed(seed int64, tag string, idx int) int64 {
	h := uint64(seed)
	for _, c := range tag {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(splitmix64(h ^ uint64(idx)))
}

// Topology is the compiled static structure of a spec: per-link adjacency
// lists, identical across backends for a given seed.
type Topology struct {
	Spec *Spec
	// Adj[li][from] lists the target slots of from-actor `from` along
	// link li (indices into the To kind's population).
	Adj [][][]int32
}

// BuildTopology expands the spec's links deterministically.
func BuildTopology(sp *Spec) (*Topology, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{Spec: sp, Adj: make([][][]int32, len(sp.Links))}
	rng := des.NewRand(subSeed(sp.Seed, "topology", 0))
	// Two passes so AssignInverse can transpose links declared after it.
	for li := range sp.Links {
		l := &sp.Links[li]
		if l.Assign == AssignInverse {
			continue
		}
		nFrom := sp.Kinds[sp.kindIndex(l.From)].Population
		nTo := sp.Kinds[sp.kindIndex(l.To)].Population
		adj := make([][]int32, nFrom)
		for i := 0; i < nFrom; i++ {
			switch l.Assign {
			case AssignMod:
				adj[i] = []int32{int32(i % nTo)}
			case AssignBlock:
				per := (nFrom + nTo - 1) / nTo
				adj[i] = []int32{int32(i / per)}
			default: // AssignRandom
				adj[i] = sampleDistinct(rng, degreeSample(rng, l.Degree), nTo, i, l.From == l.To)
			}
		}
		t.Adj[li] = adj
	}
	for li := range sp.Links {
		l := &sp.Links[li]
		if l.Assign != AssignInverse {
			continue
		}
		src := sp.linkIndex(l.InverseOf)
		nFrom := sp.Kinds[sp.kindIndex(l.From)].Population
		adj := make([][]int32, nFrom)
		for from, targets := range t.Adj[src] {
			for _, to := range targets {
				adj[to] = append(adj[to], int32(from))
			}
		}
		t.Adj[li] = adj
	}
	return t, nil
}

// degreeSample draws one out-degree.
func degreeSample(rng *des.Rand, d Dist) int {
	switch d.Kind {
	case DistUniform:
		return d.A + rng.Intn(d.B-d.A+1)
	case DistZipf:
		span := d.B - d.A
		if span <= 0 {
			return d.A
		}
		return d.A + int(rng.Zipf(d.S, span+1).Uint64())
	default:
		return d.A
	}
}

// sampleDistinct picks deg distinct targets in [0, n), excluding self when
// noSelf (self-loops make no sense for fan-out links within one kind).
func sampleDistinct(rng *des.Rand, deg, n, self int, noSelf bool) []int32 {
	limit := n
	if noSelf {
		limit = n - 1
	}
	if deg > limit {
		deg = limit
	}
	if deg <= 0 {
		return nil
	}
	out := make([]int32, 0, deg)
	seen := make(map[int32]bool, deg)
	for len(out) < deg {
		v := int32(rng.Intn(n))
		if noSelf && int(v) == self {
			continue
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// Targets lists the adjacency of one actor along one link.
func (t *Topology) Targets(link int, from int) []int32 {
	if link < 0 || link >= len(t.Adj) || from < 0 || from >= len(t.Adj[link]) {
		return nil
	}
	return t.Adj[link][from]
}

// MeanDegree reports the realized mean out-degree of a link.
func (t *Topology) MeanDegree(link int) float64 {
	adj := t.Adj[link]
	if len(adj) == 0 {
		return 0
	}
	total := 0
	for _, ts := range adj {
		total += len(ts)
	}
	return float64(total) / float64(len(adj))
}

// EvKind tags a scheduled workload event.
type EvKind uint8

// Event kinds.
const (
	// EvOp is one client operation arrival.
	EvOp EvKind = iota
	// EvChurn retires and re-creates one actor of a kind.
	EvChurn
)

// Draw is one scheduled workload event. The schedule is a pure function
// of the spec (including its seed): both backends consume the identical
// sequence.
type Draw struct {
	At time.Duration
	Ev EvKind

	// EvOp fields.
	Op     int    // index into Spec.Ops
	Target int    // population slot of the target kind (non-Join ops)
	Src    uint64 // uniform randomness for driver-side choices (e.g. submit node)

	// EvChurn fields (and the kind of an op's target, for convenience).
	Kind int // index into Spec.Kinds
}

// Stream generates the merged, time-ordered event schedule.
type Stream struct {
	sp *Spec

	// op arrivals
	opRng   *des.Rand
	arr     arrivalState
	opNext  Draw
	opDone  bool
	zipfs   []*zipfSampler
	weights []int
	totalW  int

	// per-kind churn
	churn []churnState
}

type zipfSampler struct {
	z func() uint64
}

type churnState struct {
	kind int
	rng  *des.Rand
	mean time.Duration
	next time.Duration
	done bool
}

// arrivalState advances the (possibly modulated) arrival process.
type arrivalState struct {
	a   Arrival
	rng *des.Rand
	now time.Duration

	// bursty state machine
	burstOn   bool
	burstEdge time.Duration
}

// next returns the next arrival instant after the current one, advancing
// internal state. The modulated processes are generated by thinning
// against the peak rate, so every variate comes from the one stream.
func (s *arrivalState) next() time.Duration {
	switch s.a.Process {
	case ArrivalBursty:
		peak := s.a.Rate * s.a.BurstFactor
		mean := time.Duration(float64(time.Second) / peak)
		for {
			s.now += s.rng.Exp(mean)
			for s.now >= s.burstEdge {
				if s.burstOn {
					s.burstOn = false
					s.burstEdge += s.rng.Exp(s.a.BurstOff)
				} else {
					s.burstOn = true
					s.burstEdge += s.rng.Exp(s.a.BurstOn)
				}
			}
			rate := s.a.Rate
			if s.burstOn {
				rate = peak
			}
			if s.rng.Float64() < rate/peak {
				return s.now
			}
		}
	case ArrivalDiurnal:
		peak := s.a.Rate * (1 + s.a.Amplitude)
		mean := time.Duration(float64(time.Second) / peak)
		for {
			s.now += s.rng.Exp(mean)
			phase := 2 * math.Pi * float64(s.now) / float64(s.a.Period)
			rate := s.a.Rate * (1 + s.a.Amplitude*math.Sin(phase))
			if s.rng.Float64() < rate/peak {
				return s.now
			}
		}
	default:
		s.now += s.rng.Exp(time.Duration(float64(time.Second) / s.a.Rate))
		return s.now
	}
}

// NewStream compiles the spec's event schedule generator.
func NewStream(sp *Spec) *Stream {
	st := &Stream{
		sp:    sp,
		opRng: des.NewRand(subSeed(sp.Seed, "arrivals", 0)),
	}
	st.arr = arrivalState{a: sp.Arrival, rng: st.opRng}
	st.zipfs = make([]*zipfSampler, len(sp.Ops))
	st.weights = make([]int, len(sp.Ops))
	for i := range sp.Ops {
		op := &sp.Ops[i]
		st.weights[i] = op.Weight
		st.totalW += op.Weight
		if op.Pop.Zipf {
			n := sp.Kinds[sp.kindIndex(op.Kind)].Population
			z := st.opRng.Zipf(op.Pop.S, n)
			st.zipfs[i] = &zipfSampler{z: z.Uint64}
		}
	}
	for ki := range sp.Kinds {
		k := &sp.Kinds[ki]
		if k.ChurnRate <= 0 || k.Population == 0 {
			continue
		}
		rate := k.ChurnRate * float64(k.Population)
		cs := churnState{
			kind: ki,
			rng:  des.NewRand(subSeed(sp.Seed, "churn/"+k.Name, ki)),
			mean: time.Duration(float64(time.Second) / rate),
		}
		cs.next = cs.rng.Exp(cs.mean)
		st.churn = append(st.churn, cs)
	}
	st.advanceOp()
	return st
}

// advanceOp pre-draws the next op arrival.
func (s *Stream) advanceOp() {
	at := s.arr.next()
	if at >= s.sp.Duration {
		s.opDone = true
		return
	}
	// Op selection by weight, then target by popularity.
	w := s.opRng.Intn(s.totalW)
	op := 0
	for i, wt := range s.weights {
		if w < wt {
			op = i
			break
		}
		w -= wt
	}
	o := &s.sp.Ops[op]
	ki := s.sp.kindIndex(o.Kind)
	target := 0
	if !o.Join {
		n := s.sp.Kinds[ki].Population
		if s.zipfs[op] != nil {
			target = int(s.zipfs[op].z())
			if target >= n {
				target = n - 1
			}
		} else {
			target = s.opRng.Intn(n)
		}
	}
	s.opNext = Draw{
		At: at, Ev: EvOp, Op: op, Target: target, Kind: ki,
		Src: uint64(s.opRng.Intn(1 << 30)),
	}
}

// Next returns the next event in time order; ok is false once the horizon
// is exhausted.
func (s *Stream) Next() (Draw, bool) {
	best := -1 // -1 = op arrival, otherwise index into churn states
	var bestAt time.Duration
	if !s.opDone {
		bestAt = s.opNext.At
	} else {
		bestAt = math.MaxInt64
	}
	for i := range s.churn {
		c := &s.churn[i]
		if c.done {
			continue
		}
		if c.next < bestAt {
			best, bestAt = i, c.next
		}
	}
	if bestAt >= s.sp.Duration {
		return Draw{}, false
	}
	if best == -1 {
		d := s.opNext
		s.advanceOp()
		return d, true
	}
	c := &s.churn[best]
	victim := c.rng.Intn(s.sp.Kinds[c.kind].Population)
	d := Draw{At: c.next, Ev: EvChurn, Kind: c.kind, Target: victim}
	c.next += c.rng.Exp(c.mean)
	if c.next >= s.sp.Duration {
		c.done = true
	}
	return d, true
}

// Schedule materializes the whole event sequence (the real-runtime driver
// walks it against the wall clock; tests use it to assert determinism).
func (s *Stream) Schedule() []Draw {
	var out []Draw
	for {
		d, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

// SwarmLifetime returns the deterministic post-fill lifetime of swarm slot
// idx of the given kind — a pure function of (seed, kind, slot), so the
// two backends agree without sharing a stream.
func SwarmLifetime(sp *Spec, kind, idx int) time.Duration {
	k := &sp.Kinds[kind]
	r := des.NewRand(subSeed(sp.Seed, "lifetime/"+k.Name, idx))
	return r.Uniform(k.LifetimeMin, k.LifetimeMax+1)
}

// KeyOf renders the real-runtime actor key of a population slot at a churn
// generation: "slot" for generation 0, "slot.gN" after N churn rebirths.
// The DES uses fresh ActorIDs instead; both encode the same identity
// timeline.
func KeyOf(slot, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("%d", slot)
	}
	return fmt.Sprintf("%d.g%d", slot, gen)
}
