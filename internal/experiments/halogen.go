package experiments

import (
	"time"

	"actop/internal/des"
	"actop/internal/sim"
)

// The §6.1 game shape: eight players per game, games lasting U(20, 30)
// minutes, three to five games before a player leaves.
const (
	playersPerGame   = 8
	gameMin, gameMax = 20 * time.Minute, 30 * time.Minute
	gamesMin         = 3
	gamesMax         = 5
)

// HaloConfig parameterizes the Halo Presence generator of §6.1: players
// join an idle pool, matchmaking forms games from it, every player plays
// gamesMin..gamesMax games and leaves. The population starts prefilled, with
// randomized game phases, so steady state is immediate rather than after a
// ramp.
type HaloConfig struct {
	// TargetPlayers is the steady-state concurrent player population
	// (paper: 100K; scale down for quick runs).
	TargetPlayers int
	// IdlePoolTarget is the matchmaking pool size (paper: 1000); the pool
	// scales proportionally when TargetPlayers is scaled down.
	IdlePoolTarget int
	// RequestRate is the client status-query rate (req/s) over random
	// players (paper: 2K/4K/6K).
	RequestRate float64
	// OraclePlacement co-locates each game's players on one server at
	// formation time — the §3 "most communicating actors co-located"
	// upper-bound configuration.
	OraclePlacement bool
	// TimeScale divides game/sojourn durations to accelerate churn in
	// short runs while preserving the churn *rate* per minute relative to
	// the run length. 0 or 1 = paper timing.
	TimeScale int

	Seed int64
}

type playerState struct {
	game      sim.ActorID // 0 when idle
	gamesLeft int
	poolIdx   int // index in idle pool, -1 when not pooled
	allIdx    int // index in the all-players slice
}

type gameState struct {
	members []sim.ActorID
}

// fanout tracks one broadcast's outstanding acknowledgements; it travels in
// message payloads so dropped legs leak nothing into actor state.
type fanout struct {
	remaining int
	origin    sim.ActorID
	req       *sim.Request
}

// Halo drives the presence service on a cluster.
type Halo struct {
	Cfg HaloConfig
	C   *sim.Cluster

	rng *des.Rand

	players []sim.ActorID // all live players
	pool    []sim.ActorID // idle players awaiting a game

	// Stats
	GamesFormed, GamesEnded    int
	PlayersJoined, PlayersLeft int
}

// NewHalo attaches the workload to a cluster (call Start to begin).
func NewHalo(c *sim.Cluster, cfg HaloConfig) *Halo {
	if cfg.TimeScale < 1 {
		cfg.TimeScale = 1
	}
	return &Halo{Cfg: cfg, C: c, rng: des.NewRand(cfg.Seed)}
}

func (h *Halo) scale(d time.Duration) time.Duration {
	return d / time.Duration(h.Cfg.TimeScale)
}

// Start populates the system and installs arrival/matchmaking/request
// timers.
func (h *Halo) Start() {
	for i := 0; i < h.Cfg.TargetPlayers; i++ {
		h.addPlayer()
	}
	h.matchmake(true)
	// Player arrivals keep the population steady: rate = N / mean sojourn.
	meanGames := float64(gamesMin+gamesMax) / 2
	meanGame := (gameMin + gameMax) / 2
	sojourn := h.scale(time.Duration(meanGames * float64(meanGame)))
	if sojourn > 0 && h.Cfg.TargetPlayers > 0 {
		interarrival := sojourn / time.Duration(h.Cfg.TargetPlayers)
		if interarrival <= 0 {
			interarrival = time.Millisecond
		}
		var arrive func()
		arrive = func() {
			h.addPlayer()
			h.PlayersJoined++
			h.C.K.After(h.rng.Exp(interarrival), arrive)
		}
		h.C.K.After(h.rng.Exp(interarrival), arrive)
	}
	// Matchmaking sweep.
	h.C.K.Every(h.scale(time.Second), 0, func() { h.matchmake(false) })
	// Client status queries.
	if h.Cfg.RequestRate > 0 {
		mean := time.Duration(float64(time.Second) / h.Cfg.RequestRate)
		var query func()
		query = func() {
			if len(h.players) > 0 {
				p := h.players[h.rng.Intn(len(h.players))]
				h.C.SubmitRequest(p, "status", nil)
			}
			h.C.K.After(h.rng.Exp(mean), query)
		}
		h.C.K.After(h.rng.Exp(mean), query)
	}
}

func (h *Halo) addPlayer() {
	st := &playerState{
		gamesLeft: gamesMin + h.rng.Intn(gamesMax-gamesMin+1),
		poolIdx:   -1,
	}
	id := h.C.CreateActor(playerHandler, st)
	st.allIdx = len(h.players)
	h.players = append(h.players, id)
	h.enterPool(id, st)
}

func (h *Halo) enterPool(id sim.ActorID, st *playerState) {
	st.game = 0
	st.poolIdx = len(h.pool)
	h.pool = append(h.pool, id)
}

func (h *Halo) removeFromPool(st *playerState) sim.ActorID {
	i := st.poolIdx
	last := len(h.pool) - 1
	id := h.pool[i]
	h.pool[i] = h.pool[last]
	if moved, ok := h.playerState(h.pool[i]); ok {
		moved.poolIdx = i
	}
	h.pool = h.pool[:last]
	st.poolIdx = -1
	return id
}

func (h *Halo) removePlayer(id sim.ActorID, st *playerState) {
	i := st.allIdx
	last := len(h.players) - 1
	h.players[i] = h.players[last]
	if moved, ok := h.playerState(h.players[i]); ok {
		moved.allIdx = i
	}
	h.players = h.players[:last]
	h.C.DestroyActor(id)
	h.PlayersLeft++
}

func (h *Halo) playerState(id sim.ActorID) (*playerState, bool) {
	st, ok := h.C.ActorState(id).(*playerState)
	return st, ok
}

// matchmake forms games while the idle pool exceeds its target (at prefill,
// down to the target exactly; in steady state the pool hovers around it).
func (h *Halo) matchmake(prefill bool) {
	for len(h.pool) >= h.Cfg.IdlePoolTarget+playersPerGame {
		members := make([]sim.ActorID, 0, playersPerGame)
		for i := 0; i < playersPerGame; i++ {
			idx := h.rng.Intn(len(h.pool))
			st, _ := h.playerState(h.pool[idx])
			members = append(members, h.removeFromPool(st))
		}
		h.formGame(members, prefill)
	}
}

func (h *Halo) formGame(members []sim.ActorID, prefill bool) {
	g := h.C.CreateActor(gameHandler, &gameState{members: members})
	if h.Cfg.OraclePlacement {
		// Co-locate the whole game on the game actor's server.
		if srv, ok := h.C.ServerOf(g); ok {
			for _, m := range members {
				h.C.MoveActor(m, srv)
			}
		}
	}
	for _, m := range members {
		if st, ok := h.playerState(m); ok {
			st.game = g
		}
	}
	h.GamesFormed++
	dur := h.rng.Uniform(h.scale(gameMin), h.scale(gameMax))
	if prefill {
		// Randomize the phase so prefilled games don't all end at once.
		dur = h.rng.Uniform(0, h.scale(gameMax))
	}
	h.C.K.After(dur, func() { h.endGame(g) })
}

func (h *Halo) endGame(g sim.ActorID) {
	gs, ok := h.C.ActorState(g).(*gameState)
	if !ok {
		return
	}
	h.GamesEnded++
	for _, m := range gs.members {
		st, ok := h.playerState(m)
		if !ok {
			continue
		}
		st.game = 0
		st.gamesLeft--
		if st.gamesLeft <= 0 {
			h.removePlayer(m, st)
		} else {
			h.enterPool(m, st)
		}
	}
	h.C.DestroyActor(g)
}

// PoolSize reports the current idle pool population.
func (h *Halo) PoolSize() int { return len(h.pool) }

// LivePlayers reports the current player population.
func (h *Halo) LivePlayers() int { return len(h.players) }

// --- actor handlers (the 18-message broadcast of §3) ---

// playerHandler: a status query goes to the player's game, which broadcasts
// to all members, collects their acks and reports back; idle players answer
// immediately.
func playerHandler(ctx *sim.Ctx, msg *sim.Message) {
	st, _ := ctx.State().(*playerState)
	switch msg.Type {
	case "status":
		if st == nil || st.game == 0 {
			ctx.ReplyToClient(msg.Req)
			return
		}
		ctx.Send(st.game, "broadcast", &fanout{origin: ctx.Self, req: msg.Req}, msg.Req)
	case "update":
		fo := msg.Payload.(*fanout)
		ctx.Send(msg.From, "ack", fo, msg.Req)
	case "done":
		ctx.ReplyToClient(msg.Req)
	}
}

// gameHandler fans a broadcast out to every member and fans acks back in.
func gameHandler(ctx *sim.Ctx, msg *sim.Message) {
	gs, _ := ctx.State().(*gameState)
	switch msg.Type {
	case "broadcast":
		fo := msg.Payload.(*fanout)
		if gs == nil || len(gs.members) == 0 {
			ctx.Send(fo.origin, "done", nil, msg.Req)
			return
		}
		fo.remaining = len(gs.members)
		for _, m := range gs.members {
			ctx.Send(m, "update", fo, msg.Req)
		}
	case "ack":
		fo := msg.Payload.(*fanout)
		fo.remaining--
		if fo.remaining == 0 {
			ctx.Send(fo.origin, "done", nil, msg.Req)
		}
	}
}
