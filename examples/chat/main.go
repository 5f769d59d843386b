// Chat: the paper's motivating example (§1) on the real runtime — every
// user and chat room is an actor. Users join rooms and post messages; the
// room fans each message out to its members. ActOp's partitioner watches
// the traffic and migrates each room's members onto the room's node,
// driving the remote-call fraction down while the application keeps running.
//
//	go run ./examples/chat
package main

import (
	"fmt"
	"log"
	"time"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/core"
	"actop/internal/transport"
)

type post struct {
	From string
	Text string
}

// room fans posts out to member users.
type room struct{ Members []string }

func (r *room) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Join":
		var user string
		if err := codec.Unmarshal(args, &user); err != nil {
			return nil, err
		}
		r.Members = append(r.Members, user)
		return nil, nil
	case "Post":
		var p post
		if err := codec.Unmarshal(args, &p); err != nil {
			return nil, err
		}
		for _, m := range r.Members {
			if m == p.From {
				// No self-echo. Fanout only ever flows room → user: posts
				// enter the room from outside a turn, so the kind graph
				// stays a DAG and no pair of activations can await each
				// other (the ctlStage livelock shape calldag rejects).
				continue
			}
			if err := ctx.Call(actor.Ref{Type: "user", Key: m}, "Deliver", p, nil); err != nil {
				return nil, err
			}
		}
		return codec.Marshal(len(r.Members))
	}
	return nil, fmt.Errorf("room: unknown method %q", method)
}

func (r *room) Snapshot() ([]byte, error) { return codec.Marshal(r.Members) }
func (r *room) Restore(b []byte) error    { return codec.Unmarshal(b, &r.Members) }

// user stores an inbox of delivered posts. Users deliberately have no
// "post through me" method: a user turn that synchronously called its
// room while the room fans out Deliver calls to users would close the
// room ↔ user call cycle, and two in-flight posts could then hold their
// activations while awaiting each other. Clients post to rooms directly.
type user struct{ Inbox int }

func (u *user) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "Deliver":
		u.Inbox++
		return nil, nil
	}
	return nil, fmt.Errorf("user: unknown method %q", method)
}

func (u *user) Snapshot() ([]byte, error) { return codec.Marshal(u.Inbox) }
func (u *user) Restore(b []byte) error    { return codec.Unmarshal(b, &u.Inbox) }

func main() {
	const nodes, rooms, usersPerRoom = 3, 9, 5

	net := transport.NewNetwork(100 * time.Microsecond)
	var peers []transport.NodeID
	for i := 0; i < nodes; i++ {
		peers = append(peers, transport.NodeID(fmt.Sprintf("silo-%d", i)))
	}
	var systems []*actor.System
	var optimizers []*core.Optimizer
	for i, p := range peers {
		sys, err := actor.NewSystem(actor.Config{
			Transport: net.Join(p), Peers: peers, Seed: int64(i),
			Workers:              32,
			ExchangeRejectWindow: 600 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		sys.RegisterType("room", func() actor.Actor { return &room{} })
		sys.RegisterType("user", func() actor.Actor { return &user{} })
		defer sys.Stop()
		systems = append(systems, sys)

		opts := core.DefaultOptions()
		opts.ThreadTuning = false
		opts.PartitionPeriod = 300 * time.Millisecond
		opt := core.NewOptimizer(sys, opts)
		opt.Start()
		defer opt.Stop()
		optimizers = append(optimizers, opt)
	}

	// Users join rooms (random placement scatters everyone).
	for r := 0; r < rooms; r++ {
		roomKey := fmt.Sprintf("room-%d", r)
		for u := 0; u < usersPerRoom; u++ {
			userKey := fmt.Sprintf("user-%d-%d", r, u)
			if err := systems[0].Call(actor.Ref{Type: "room", Key: roomKey}, "Join", userKey, nil); err != nil {
				log.Fatal(err)
			}
		}
	}

	remoteFraction := func() float64 {
		var local, remote uint64
		for _, sys := range systems {
			st := sys.Stats()
			local += st.CallsLocal
			remote += st.CallsRemote
		}
		if local+remote == 0 {
			return 0
		}
		return float64(remote) / float64(local+remote)
	}

	// Chat traffic: each user's client posts to the room, which fans out
	// Deliver calls to the other members. Room → user is the only
	// actor-to-actor edge, so the kind-level call graph is a DAG.
	say := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for r := 0; r < rooms; r++ {
				roomRef := actor.Ref{Type: "room", Key: fmt.Sprintf("room-%d", r)}
				for u := 0; u < usersPerRoom; u++ {
					p := post{From: fmt.Sprintf("user-%d-%d", r, u), Text: "hi"}
					var fanout int
					if err := systems[r%nodes].Call(roomRef, "Post", p, &fanout); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}

	say(5)
	fmt.Printf("before ActOp converges: %.0f%% of actor calls are remote\n", 100*remoteFraction())

	// Keep chatting while ActOp migrates members toward their rooms.
	for phase := 0; phase < 6; phase++ {
		say(5)
		time.Sleep(400 * time.Millisecond)
	}

	var moved int
	for _, o := range optimizers {
		_, m, _ := o.Counters()
		moved += m
	}
	fmt.Printf("after  ActOp converges: %.0f%% of actor calls are remote (cumulative; %d actors migrated)\n",
		100*remoteFraction(), moved)

	// Per-room locality: count rooms whose members all share the room's node.
	colocated := 0
	for r := 0; r < rooms; r++ {
		roomRef := actor.Ref{Type: "room", Key: fmt.Sprintf("room-%d", r)}
		var roomNode transport.NodeID
		for _, sys := range systems {
			if sys.HostsActor(roomRef) {
				roomNode = sys.Node()
			}
		}
		all := true
		for u := 0; u < usersPerRoom; u++ {
			ref := actor.Ref{Type: "user", Key: fmt.Sprintf("user-%d-%d", r, u)}
			hosted := false
			for _, sys := range systems {
				if sys.Node() == roomNode && sys.HostsActor(ref) {
					hosted = true
				}
			}
			if !hosted {
				all = false
			}
		}
		if all {
			colocated++
		}
	}
	fmt.Printf("%d/%d rooms fully co-located with their members\n", colocated, rooms)
	for _, sys := range systems {
		st := sys.Stats()
		fmt.Printf("%s: activations=%d migrations(in/out)=%d/%d\n",
			st.Node, st.Activations, st.MigrationsIn, st.MigrationsOut)
	}
}
