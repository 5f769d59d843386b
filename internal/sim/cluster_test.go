package sim

import (
	"testing"
	"time"

	"actop/internal/des"
	"actop/internal/graph"
)

// echoHandler replies to every client request immediately.
func echoHandler(ctx *Ctx, msg *Message) {
	ctx.ReplyToClient(msg.Req)
}

// small test config: 2 servers, light service times.
func testConfig(servers int) Config {
	cfg := DefaultConfig()
	cfg.Servers = servers
	cfg.Seed = 42
	cfg.StatsWindow = time.Second
	return cfg
}

func TestClientRequestRoundTrip(t *testing.T) {
	c := New(testConfig(1))
	a := c.CreateActorOn(0, echoHandler, nil)
	c.SubmitRequest(a, "ping", nil)
	c.Run(time.Second)
	if c.Rejected != 0 {
		t.Fatal("request rejected")
	}
	if c.Completed != 1 || c.Latency.Count() != 1 {
		t.Fatalf("completed=%d latencyCount=%d", c.Completed, c.Latency.Count())
	}
	// Round trip ≥ 2 network hops + some processing.
	if rt := c.Latency.Min(); rt < 2*networkHop {
		t.Fatalf("round trip %v implausibly fast", rt)
	}
}

// pingPong: actor A forwards to actor B, B replies to client.
type pingState struct{ peer ActorID }

func forwardHandler(ctx *Ctx, msg *Message) {
	switch msg.Type {
	case "fwd":
		st := ctx.State().(*pingState)
		ctx.Send(st.peer, "reply", nil, msg.Req)
	case "reply":
		ctx.ReplyToClient(msg.Req)
	}
}

func TestLocalVsRemoteCallPath(t *testing.T) {
	// Local pair.
	cl := New(testConfig(2))
	aL := cl.CreateActorOn(0, forwardHandler, &pingState{})
	bL := cl.CreateActorOn(0, forwardHandler, nil)
	cl.ActorState(aL).(*pingState).peer = bL
	cl.SubmitRequest(aL, "fwd", nil)
	cl.Run(time.Second)
	localLat := cl.Latency.Mean()

	// Remote pair.
	cr := New(testConfig(2))
	aR := cr.CreateActorOn(0, forwardHandler, &pingState{})
	bR := cr.CreateActorOn(1, forwardHandler, nil)
	cr.ActorState(aR).(*pingState).peer = bR
	cr.SubmitRequest(aR, "fwd", nil)
	cr.Run(time.Second)
	remoteLat := cr.Latency.Mean()

	if cl.Completed != 1 || cr.Completed != 1 {
		t.Fatalf("completed: %d local, %d remote", cl.Completed, cr.Completed)
	}
	// The remote path adds serialize + network + deserialize (Fig. 3).
	if remoteLat <= localLat+networkHop {
		t.Fatalf("remote %v not sufficiently above local %v", remoteLat, localLat)
	}
	// The remote run exercised the server-sender stage; the local did not.
	if got := cl.Breakdown.Percent("Recv. processing"); got == 0 {
		t.Error("client request should traverse the receiver")
	}
}

func TestActorCallLatencyRecorded(t *testing.T) {
	c := New(testConfig(2))
	a := c.CreateActorOn(0, forwardHandler, &pingState{})
	b := c.CreateActorOn(1, forwardHandler, nil)
	c.ActorState(a).(*pingState).peer = b
	c.SubmitRequest(a, "fwd", nil)
	c.Run(time.Second)
	if c.ActorCall.Count() != 1 {
		t.Fatalf("actor call count = %d, want 1", c.ActorCall.Count())
	}
}

func TestQueueOverflowRejects(t *testing.T) {
	cfg := testConfig(1)
	cfg.QueueCap = 4
	cfg.InitialThreads = [NumStages]int{1, 1, 1, 1}
	cfg.WorkerTime = 100 * time.Millisecond // hopeless under burst
	c := New(cfg)
	a := c.CreateActorOn(0, echoHandler, nil)
	for i := 0; i < 100; i++ {
		c.SubmitRequest(a, "x", nil)
	}
	c.Run(30 * time.Second)
	if c.Rejected == 0 {
		t.Fatal("expected rejections under burst with tiny queues")
	}
	if c.Completed+c.Rejected != 100 {
		t.Fatalf("completed %d + rejected %d != 100", c.Completed, c.Rejected)
	}
}

func TestMissingActorRejects(t *testing.T) {
	c := New(testConfig(1))
	c.SubmitRequest(999, "x", nil)
	c.Run(time.Second)
	if c.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Rejected)
	}
}

func TestDestroyActorInFlight(t *testing.T) {
	c := New(testConfig(1))
	a := c.CreateActorOn(0, echoHandler, nil)
	c.SubmitRequest(a, "x", nil)
	c.DestroyActor(a) // destroyed before the request arrives
	c.Run(time.Second)
	if c.Completed != 0 || c.Rejected != 1 {
		t.Fatalf("completed=%d rejected=%d", c.Completed, c.Rejected)
	}
	if c.NumActors() != 0 {
		t.Fatal("actor still present")
	}
}

func TestMoveActorReroutesTraffic(t *testing.T) {
	c := New(testConfig(2))
	a := c.CreateActorOn(0, forwardHandler, &pingState{})
	b := c.CreateActorOn(1, forwardHandler, nil)
	c.ActorState(a).(*pingState).peer = b
	c.MoveActor(b, 0)
	if s, _ := c.ServerOf(b); s != 0 {
		t.Fatalf("b on %v after move", s)
	}
	c.SubmitRequest(a, "fwd", nil)
	c.Run(time.Second)
	if c.Completed != 1 {
		t.Fatal("request failed after migration")
	}
	// All actor messages were local now.
	if c.remoteWindow != 0 && c.RemoteSeries.Last() != 0 {
		t.Error("expected zero remote messages after co-location")
	}
	if c.Moves != 1 {
		t.Fatalf("Moves = %d", c.Moves)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, time.Duration) {
		cfg := testConfig(2)
		c := New(cfg)
		var actors []ActorID
		for i := 0; i < 20; i++ {
			actors = append(actors, c.CreateActor(echoHandler, nil))
		}
		r := des.NewRand(9)
		for i := 0; i < 500; i++ {
			a := actors[r.Intn(len(actors))]
			c.K.After(r.Exp(10*time.Millisecond), func() {
				c.SubmitRequest(a, "x", nil)
			})
		}
		c.Run(time.Minute)
		return c.Completed, c.Latency.Mean()
	}
	c1, m1 := run()
	c2, m2 := run()
	if c1 != c2 || m1 != m2 {
		t.Fatalf("non-deterministic: (%d,%v) vs (%d,%v)", c1, m1, c2, m2)
	}
	if c1 != 500 {
		t.Fatalf("completed = %d, want 500", c1)
	}
}

func TestThreadResizeTakesEffect(t *testing.T) {
	cfg := testConfig(1)
	cfg.InitialThreads = [NumStages]int{1, 1, 1, 1}
	c := New(cfg)
	c.SetThreads(0, [NumStages]int{2, 4, 2, 2})
	got := c.ThreadAllocation(0)
	if got != [NumStages]int{2, 4, 2, 2} {
		t.Fatalf("allocation = %v", got)
	}
}

func TestPartitioningReducesRemoteTraffic(t *testing.T) {
	// Static "games": 20 hubs of 5 actors each, randomly placed on 4
	// servers, with steady traffic. The partitioner should co-locate them.
	cfg := testConfig(4)
	cfg.Partitioning = true
	cfg.PartitionPeriod = 5 * time.Second
	cfg.RejectWindow = 10 * time.Second
	cfg.MonitorSampleRate = 1
	cfg.PartitionOpts.ImbalanceTolerance = 10
	c := New(cfg)

	type hubState struct{ members []ActorID }
	hubHandler := func(ctx *Ctx, msg *Message) {
		if msg.Type == "cast" {
			st := ctx.State().(*hubState)
			for _, m := range st.members {
				ctx.Send(m, "note", nil, msg.Req)
			}
			return
		}
		ctx.ReplyToClient(msg.Req)
	}
	leafHandler := func(ctx *Ctx, msg *Message) {
		switch msg.Type {
		case "cast":
			// leaf acting as entry: forward to its hub (payload = hub id)
			ctx.Send(msg.Payload.(ActorID), "cast", nil, msg.Req)
		case "note":
		}
	}

	var hubs []ActorID
	for hIdx := 0; hIdx < 20; hIdx++ {
		st := &hubState{}
		h := c.CreateActor(hubHandler, st)
		for m := 0; m < 5; m++ {
			st.members = append(st.members, c.CreateActor(leafHandler, nil))
		}
		hubs = append(hubs, h)
	}
	// Traffic: every 5ms, a random hub broadcast (via a member).
	r := des.NewRand(3)
	c.K.Every(5*time.Millisecond, 0, func() {
		h := hubs[r.Intn(len(hubs))]
		st := c.ActorState(h).(*hubState)
		entry := st.members[r.Intn(len(st.members))]
		c.sendActorMessage(entry, h, "cast", nil, nil)
	})

	c.Run(30 * time.Second)
	early := c.RemoteSeries.Points[2].Value // after a few windows
	c.Run(4 * time.Minute)
	late := c.RemoteSeries.Last()
	if c.Moves == 0 {
		t.Fatal("partitioner never migrated anything")
	}
	if late >= early*0.6 {
		t.Errorf("remote fraction did not drop enough: %.3f → %.3f (moves %d)", early, late, c.Moves)
	}
}

func TestRejectWindowHonored(t *testing.T) {
	cfg := testConfig(2)
	cfg.Partitioning = true
	cfg.PartitionPeriod = time.Second
	cfg.RejectWindow = time.Hour // effectively one exchange ever per server
	cfg.MonitorSampleRate = 1
	c := New(cfg)
	// Two hubs with strong cross-server traffic.
	a := c.CreateActorOn(0, echoHandler, nil)
	b := c.CreateActorOn(1, echoHandler, nil)
	c.K.Every(time.Millisecond, 0, func() { c.sendActorMessage(a, b, "x", nil, nil) })
	c.Run(time.Minute)
	if c.Exchanges > 2 {
		t.Fatalf("exchanges = %d despite 1h reject window", c.Exchanges)
	}
}

func TestStatsSeriesPopulated(t *testing.T) {
	c := New(testConfig(1))
	a := c.CreateActorOn(0, echoHandler, nil)
	c.K.Every(10*time.Millisecond, 0, func() { c.SubmitRequest(a, "x", nil) })
	c.Run(5 * time.Second)
	if len(c.CPUSeries.Points) == 0 || len(c.RemoteSeries.Points) == 0 {
		t.Fatal("stats series empty")
	}
	util := c.MeanCPUUtilization(0)
	if util <= 0 || util > 1.5 {
		t.Fatalf("utilization = %v", util)
	}
}

func TestResetMetrics(t *testing.T) {
	c := New(testConfig(1))
	a := c.CreateActorOn(0, echoHandler, nil)
	c.SubmitRequest(a, "x", nil)
	c.Run(time.Second)
	c.ResetMetrics()
	if c.Completed != 0 || c.Latency.Count() != 0 || c.Breakdown.Total() != 0 {
		t.Fatal("metrics not reset")
	}
	// Cluster still functional.
	c.SubmitRequest(a, "x", nil)
	c.Run(time.Second)
	if c.Completed != 1 {
		t.Fatal("cluster broken after reset")
	}
}

func TestServerPopulationTracksPlacement(t *testing.T) {
	c := New(testConfig(2))
	ids := make([]ActorID, 0, 10)
	for i := 0; i < 10; i++ {
		ids = append(ids, c.CreateActorOn(graph.ServerID(i%2), echoHandler, nil))
	}
	if c.ServerPopulation(0) != 5 || c.ServerPopulation(1) != 5 {
		t.Fatalf("populations %d/%d", c.ServerPopulation(0), c.ServerPopulation(1))
	}
	c.DestroyActor(ids[0])
	if c.ServerPopulation(0) != 4 {
		t.Fatalf("population after destroy %d", c.ServerPopulation(0))
	}
}
