package experiments

import (
	"slices"
	"testing"
	"time"

	"actop/internal/sim"
)

// quickHalo is a scaled-down Halo config that reaches steady state fast.
func quickHalo(players int, rate float64) HaloConfig {
	return HaloConfig{
		TargetPlayers:  players,
		IdlePoolTarget: players / 100,
		RequestRate:    rate,
		TimeScale:      1,
		Seed:           11,
	}
}

func quickCluster(servers int) *sim.Cluster {
	cfg := sim.DefaultConfig()
	cfg.Servers = servers
	cfg.StatsWindow = 10 * time.Second
	return sim.New(cfg)
}

func TestHaloPrefillPopulation(t *testing.T) {
	t.Parallel()
	c := quickCluster(4)
	h := NewHalo(c, quickHalo(2000, 0))
	h.Start()
	if h.LivePlayers() != 2000 {
		t.Fatalf("players = %d", h.LivePlayers())
	}
	// Pool drained to ~target; everyone else in a game.
	if h.PoolSize() < 20 || h.PoolSize() >= 20+8 {
		t.Fatalf("pool = %d, want in [20, 28)", h.PoolSize())
	}
	wantGames := (2000 - h.PoolSize()) / 8
	if h.GamesFormed != wantGames {
		t.Fatalf("games formed = %d, want %d", h.GamesFormed, wantGames)
	}
	// Actor count = players + games.
	if c.NumActors() != h.LivePlayers()+h.GamesFormed-h.GamesEnded {
		t.Fatalf("actors %d vs players %d + games %d", c.NumActors(), h.LivePlayers(), h.GamesFormed-h.GamesEnded)
	}
}

func TestHaloRequestGenerates18ActorMessages(t *testing.T) {
	t.Parallel()
	c := quickCluster(4)
	cfg := quickHalo(2000, 100)
	h := NewHalo(c, cfg)
	h.Start()
	c.Run(30 * time.Second)
	if c.Completed == 0 {
		t.Fatal("no completed requests")
	}
	perReq := float64(c.ActorCall.Count()) / float64(c.Completed)
	// 1 (p→g) + 8 (g→members) + 8 (acks) + 1 (done) = 18; a small fraction
	// of queries hit idle players (0 messages), in-flight requests skew
	// slightly low.
	if perReq < 15 || perReq > 18.5 {
		t.Fatalf("actor messages per request = %.2f, want ≈18", perReq)
	}
}

func TestHaloRemoteFractionMatchesRandomPlacement(t *testing.T) {
	t.Parallel()
	// With random placement on N servers, ~ (1 − 1/N) of messages are
	// remote (§3 reports ≈90% on 10 servers).
	c := quickCluster(10)
	h := NewHalo(c, quickHalo(3000, 200))
	h.Start()
	c.Run(time.Minute)
	rf := c.RemoteSeries.Last()
	if rf < 0.82 || rf > 0.97 {
		t.Fatalf("remote fraction = %.3f, want ≈0.9", rf)
	}
}

func TestHaloOraclePlacementMostlyLocal(t *testing.T) {
	t.Parallel()
	c := quickCluster(10)
	cfg := quickHalo(3000, 200)
	cfg.OraclePlacement = true
	h := NewHalo(c, cfg)
	h.Start()
	c.Run(time.Minute)
	rf := c.RemoteSeries.Last()
	if rf > 0.15 {
		t.Fatalf("oracle remote fraction = %.3f, want ≈0", rf)
	}
}

func TestHaloPopulationSteadyAndChurns(t *testing.T) {
	t.Parallel()
	c := quickCluster(2)
	cfg := quickHalo(1000, 0)
	cfg.TimeScale = 20 // 25min games → 75s; churn visible in minutes
	h := NewHalo(c, cfg)
	h.Start()
	c.Run(10 * time.Minute)
	if h.GamesEnded == 0 || h.PlayersLeft == 0 || h.PlayersJoined == 0 {
		t.Fatalf("no churn: ended=%d left=%d joined=%d", h.GamesEnded, h.PlayersLeft, h.PlayersJoined)
	}
	n := h.LivePlayers()
	if n < 700 || n > 1400 {
		t.Fatalf("population drifted to %d (target 1000)", n)
	}
}

func TestHaloGraphChangeRateAboutOnePercent(t *testing.T) {
	t.Parallel()
	// §6.1: the workload changes about 1% of the communication graph per
	// minute. Game endings/formations drive the change: with 25-minute
	// games, ≈4%/min of games turn over… the paper counts nodes+edges; we
	// check the player-level churn rate is in the right decade.
	c := quickCluster(2)
	cfg := quickHalo(2000, 0)
	h := NewHalo(c, cfg)
	h.Start()
	c.Run(30 * time.Minute)
	// Players finishing a game per minute ≈ inGame/avgGameMin.
	churnPerMin := float64(h.GamesEnded) * 8 / 30
	frac := churnPerMin / float64(h.LivePlayers())
	if frac < 0.005 || frac > 0.15 {
		t.Fatalf("membership churn %.4f/min out of plausible range", frac)
	}
}

// TestHaloDeterministic compares everything a clock read inside the
// simulator would move: the completed and formed counts, but also the
// kernel's fired-event count and the latency mean and extremes, which
// shift by nanoseconds when any one delay does.
func TestHaloDeterministic(t *testing.T) {
	t.Parallel()
	type outcome struct {
		completed, fired uint64
		games            int
		mean, min, max   time.Duration
	}
	run := func() outcome {
		c := quickCluster(3)
		h := NewHalo(c, quickHalo(1000, 100))
		h.Start()
		c.Run(time.Minute)
		return outcome{c.Completed, c.K.Fired(), h.GamesFormed,
			c.Latency.Mean(), c.Latency.Min(), c.Latency.Max()}
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestHaloDeterministicDigest pins a seeded Halo run with both of the paper's
// mechanisms on — the exchange rounds and the thread controller — to the
// values the simulator printed when they were recorded. A refactor of either
// mechanism that changes one decision moves a count, a quantile or a point of
// the remote-fraction series, and fails here.
func TestHaloDeterministicDigest(t *testing.T) {
	t.Parallel()
	cfg := sim.DefaultConfig()
	cfg.Servers = 3
	cfg.StatsWindow = 10 * time.Second
	cfg.Partitioning = true
	cfg.PartitionPeriod = 3 * time.Second
	cfg.RejectWindow = 5 * time.Second
	cfg.ThreadTuning = true
	cfg.ThreadPeriod = 2 * time.Second
	c := sim.New(cfg)
	h := NewHalo(c, quickHalo(600, 150))
	h.Start()
	c.Run(time.Minute)

	type digest struct {
		completed                 uint64
		moves, exchanges, retunes int
		p50, p99                  time.Duration
	}
	got := digest{c.Completed, c.Moves, c.Exchanges, c.Retunes,
		c.Latency.Quantile(0.5), c.Latency.Quantile(0.99)}
	want := digest{9244, 350, 12, 88, 3014656, 7602176}
	if got != want {
		t.Errorf("digest = %+v, want %+v", got, want)
	}
	var series []float64
	for _, p := range c.RemoteSeries.Points {
		series = append(series, p.Value)
	}
	wantSeries := []float64{0.49932750504371215, 0.1789920269182942, 0.0675784984190014,
		0.055045534665099885, 0.055148942399180265, 0.04451844076875747}
	if !slices.Equal(series, wantSeries) {
		t.Errorf("remote-fraction series = %v, want %v", series, wantSeries)
	}
}
