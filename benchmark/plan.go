package main

import (
	"strconv"
	"time"

	"actop/internal/actor"
)

// Everything the runtime is asked to do comes from here: the topology, each
// client's op sequence and the churn schedule are pure functions of the
// seed, so two runs with one seed issue the same calls in the same
// per-client order. The runtime sees only the generated calls.

// workload fixes one traffic shape. The client counts are constants chosen
// where a 2-core probe repeated within 3%; more spinning clients than
// cores made the all-local workload swing ±20%.
type workload struct {
	name string
	why  string

	placement actor.PlacementPolicy
	clients   int
	// statusShare and openShare are the op mix; the rest are beats.
	statusShare, openShare float64
	pad                    int // beat payload bytes

	// games×8 consoles and presence records, or a flat session population.
	games, sessions int

	// hostEntry populates each game's tree through one node and enters
	// every op through that node, so with PlaceLocal no leg crosses a wire.
	hostEntry bool

	// workers pins the worker pool (0 = the runtime's default of 4); 64 is
	// the anti-starvation setting of the call-tree workloads (README).
	workers int
	// threadTuning runs core.Optimizer's Theorem 2 controller.
	threadTuning bool
	// partitioning runs core.Optimizer's Algorithm 1 exchanges, with churn.
	partitioning bool
	locCache     int // location-cache entries (0 = runtime default)
}

const (
	defaultGames    = 256
	defaultSessions = 20000
)

var workloads = []workload{
	{
		name:      "presence_remote",
		why:       "random placement: two thirds of call-tree legs cross a wire, so transport, codec and the seda stages do the work",
		placement: actor.PlaceRandom, clients: 8, statusShare: 0.25, pad: 64,
		games: defaultGames, workers: 64,
	},
	{
		name:      "presence_local",
		why:       "same traffic co-located: no leg crosses a wire, the yardstick without distribution cost and the ceiling for converge",
		placement: actor.PlaceLocal, clients: 2, statusShare: 0.25, pad: 64,
		games: defaultGames, hostEntry: true, workers: 64,
	},
	{
		name:      "presence_converge",
		why:       "starts random, Algorithm 1 migrates call trees together under seeded churn: partition, sampling and migration move the number",
		placement: actor.PlaceRandom, clients: 8, statusShare: 0.25, pad: 64,
		games: defaultGames, workers: 64, partitioning: true,
	},
	{
		name:      "heartbeat_churn",
		why:       "flat single-hop updates over a working set 2.4x the location cache, with opens: directory, activation, eviction and Theorem 2 paths",
		placement: actor.PlaceRandom, clients: 4, openShare: 0.02, pad: 256,
		sessions: defaultSessions, threadTuning: true, locCache: 8192,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nodes is the cluster size of every workload.
const nodes = 3

// rng is splitmix64: small, fast, and the same on every platform.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// subStream derives an independent generator for one purpose of one run.
func subStream(seed uint64, purpose, index int) rng {
	r := rng(seed ^ uint64(purpose)<<32 ^ uint64(index))
	r.next()
	return r
}

const (
	streamClient = iota + 1
	streamChurn
)

type opKind uint8

const (
	opBeat opKind = iota
	opStatus
	opOpen
	opKinds
)

var opNames = [opKinds]string{"beat", "status", "open"}

// op is one generated request: the kind, the target's index within its
// kind, and the node it enters through.
type op struct {
	kind   opKind
	target int
	node   int
}

// opGen is one client's op stream.
type opGen struct {
	w      *workload
	client int
	r      rng
	// lo, hi bound the client's live sessions, in its own numbering: client
	// k of n owns sessions k, k+n, k+2n, ... so that live sets never overlap
	// and each client's sequence is independent of the others' timing.
	lo, hi int
}

func newOpGen(w *workload, seed uint64, client int) *opGen {
	return &opGen{w: w, client: client, r: subStream(seed, streamClient, client), hi: w.sessions / w.clients}
}

func (g *opGen) next() op {
	w := g.w
	u := g.r.float()
	if w.sessions > 0 {
		entry := g.client % nodes
		if u < w.openShare {
			// A new session joins the live set and the oldest goes cold.
			o := op{kind: opOpen, target: g.hi*w.clients + g.client, node: entry}
			g.hi++
			g.lo++
			return o
		}
		return op{kind: opBeat, target: (g.lo+g.r.intn(g.hi-g.lo))*w.clients + g.client, node: entry}
	}
	o := op{kind: opBeat, node: g.client % nodes}
	if u < w.statusShare {
		o.kind = opStatus
	}
	o.target = g.r.intn(w.games * membersPerGame)
	if w.hostEntry {
		o.node = hostNode(o.target / membersPerGame)
	}
	return o
}

// hostNode is the node a game's tree is populated and entered through on a
// hostEntry workload.
func hostNode(game int) int { return game % nodes }

// churnPairsPerTick is 1% of the default 256 games, rounded up.
const churnPairsPerTick = 3

// swap is one churn step: games a and b trade the members in four slots.
type swap struct {
	a, b  int
	slots [membersPerGame / 2]int
}

// topology is the driver's truth about who is in which game.
type topology struct {
	members [][]uint64 // game → presence ids
	r       rng
}

func newTopology(w *workload, seed uint64) *topology {
	t := &topology{members: make([][]uint64, w.games), r: subStream(seed, streamChurn, 0)}
	for g := range t.members {
		t.members[g] = make([]uint64, membersPerGame)
		for i := range t.members[g] {
			t.members[g][i] = uint64(g*membersPerGame + i)
		}
	}
	return t
}

// tick draws the next churn step's swaps and applies them to the topology.
func (t *topology) tick() []swap {
	if len(t.members) < 2 {
		return nil
	}
	out := make([]swap, 0, churnPairsPerTick)
	for i := 0; i < churnPairsPerTick; i++ {
		s := swap{a: t.r.intn(len(t.members))}
		s.b = (s.a + 1 + t.r.intn(len(t.members)-1)) % len(t.members)
		first := t.r.intn(membersPerGame)
		for k := range s.slots {
			slot := (first + k) % membersPerGame
			s.slots[k] = slot
			t.members[s.a][slot], t.members[s.b][slot] = t.members[s.b][slot], t.members[s.a][slot]
		}
		out = append(out, s)
	}
	return out
}

// keyTable renders indices as actor keys once, so the driver's hot loop
// formats nothing.
type keyTable []string

func newKeyTable(n int) keyTable {
	t := make(keyTable, n)
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}

func (t keyTable) key(i int) string {
	if i < len(t) {
		return t[i]
	}
	return strconv.Itoa(i)
}

// phases are the lengths of one run's parts, all derived from the measured
// length so that shortening a run shortens everything in proportion.
type phases struct {
	warm, adapt, measure time.Duration
	// period is the partition exchange period and both reject windows: a
	// twentieth of the adapt phase, as 1 s is of the issue's 20 s — the
	// paper's minute, compressed.
	period time.Duration
}

func phasesFor(w *workload, measure time.Duration) phases {
	p := phases{warm: measure / 8, measure: measure}
	if w.partitioning {
		p.adapt = measure / 2
		p.period = p.adapt / 20
	}
	return p
}
