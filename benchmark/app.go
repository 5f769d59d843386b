package main

import (
	"fmt"
	"strconv"

	"actop/internal/actor"
	"actop/internal/codec"
	"actop/internal/transport"
)

// The shared application: the paper's two interactive services reduced to
// four actor kinds. `status` is the Halo Presence call tree (console →
// game → its eight presence records, in sequence); `beat` and `open` are
// the Heartbeat service's single-hop updates. The kind graph is a DAG
// (console → game → presence; session calls nothing), so calldag stays
// green and no turn can wait on a turn that waits on it.
const (
	kindConsole  = "console"
	kindGame     = "game"
	kindPresence = "presence"
	kindSession  = "session"
)

// membersPerGame is the fan-out of one status call tree.
const membersPerGame = 8

// Methods of the application's actors.
const (
	mStatus     = "status"      // console: ask my game who is online
	mRoster     = "roster"      // game: gather my members' records
	mGet        = "get"         // presence/session: read the record
	mBeat       = "beat"        // presence/session: count one heartbeat
	mOpen       = "open"        // session: first call to a new key
	mSetMembers = "set_members" // game: install the member list (populate, churn)
)

// Every message implements codec.Marshaler, Unmarshaler and Copier, and
// every actor ValueReceiver and Migratable: co-located calls ride the
// value path, cross-node calls the binary path, and gob is never on the
// path of an application message. Span is the benchmark's own trace
// context — the id of the call span that carries the message, 0 on every
// untraced op — and costs one byte on the wire when unset.

// beatMsg is the argument of beat and open: a sequence number and a pad
// standing in for the heartbeat's payload (the record keeps the last one).
type beatMsg struct {
	Span uint64
	Seq  uint64
	Pad  []byte
}

func (m beatMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendUvarint(dst, m.Span)
	dst = codec.AppendUvarint(dst, m.Seq)
	return codec.AppendBytes(dst, m.Pad), nil
}

func (m *beatMsg) UnmarshalBinary(data []byte) error {
	var err error
	if m.Span, data, err = codec.ReadUvarint(data); err != nil {
		return err
	}
	if m.Seq, data, err = codec.ReadUvarint(data); err != nil {
		return err
	}
	pad, _, err := codec.ReadBytes(data)
	if err != nil {
		return err
	}
	// ReadBytes is a view into a pooled buffer; the record retains the pad.
	m.Pad = append([]byte(nil), pad...)
	return nil
}

func (m beatMsg) CopyValue() interface{} {
	m.Pad = append([]byte(nil), m.Pad...)
	return m
}

// ack answers beat, open and set_members with the callee's running count.
type ack struct{ N uint64 }

func (a ack) AppendBinary(dst []byte) ([]byte, error) { return codec.AppendUvarint(dst, a.N), nil }

func (a *ack) UnmarshalBinary(data []byte) error {
	var err error
	a.N, _, err = codec.ReadUvarint(data)
	return err
}

func (a ack) CopyValue() interface{} { return a }

// statusReq is the argument of status, roster and get.
type statusReq struct{ Span uint64 }

func (r statusReq) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendUvarint(dst, r.Span), nil
}

func (r *statusReq) UnmarshalBinary(data []byte) error {
	var err error
	r.Span, _, err = codec.ReadUvarint(data)
	return err
}

func (r statusReq) CopyValue() interface{} { return r }

// member is one presence record as seen by a status reply.
type member struct {
	ID    uint64
	Beats uint64
}

func (m member) AppendBinary(dst []byte) ([]byte, error) {
	return codec.AppendUvarint(codec.AppendUvarint(dst, m.ID), m.Beats), nil
}

func (m *member) UnmarshalBinary(data []byte) error {
	var err error
	if m.ID, data, err = codec.ReadUvarint(data); err != nil {
		return err
	}
	m.Beats, _, err = codec.ReadUvarint(data)
	return err
}

func (m member) CopyValue() interface{} { return m }

// roster is the status reply: a game's members, gathered in order.
type roster struct{ Members []member }

func (r roster) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendUvarint(dst, uint64(len(r.Members)))
	for _, m := range r.Members {
		dst = codec.AppendUvarint(codec.AppendUvarint(dst, m.ID), m.Beats)
	}
	return dst, nil
}

func (r *roster) UnmarshalBinary(data []byte) error {
	n, data, err := codec.ReadUvarint(data)
	if err != nil {
		return err
	}
	if n > uint64(len(data)) { // each member takes at least two bytes
		return fmt.Errorf("roster: %d members in %d bytes: %w", n, len(data), codec.ErrShortBuffer)
	}
	r.Members = make([]member, n)
	for i := range r.Members {
		if r.Members[i].ID, data, err = codec.ReadUvarint(data); err != nil {
			return err
		}
		if r.Members[i].Beats, data, err = codec.ReadUvarint(data); err != nil {
			return err
		}
	}
	return nil
}

func (r roster) CopyValue() interface{} {
	r.Members = append([]member(nil), r.Members...)
	return r
}

// membersMsg installs a game's member list.
type membersMsg struct{ Members []uint64 }

func (m membersMsg) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendUvarint(dst, uint64(len(m.Members)))
	for _, id := range m.Members {
		dst = codec.AppendUvarint(dst, id)
	}
	return dst, nil
}

func (m *membersMsg) UnmarshalBinary(data []byte) error {
	n, data, err := codec.ReadUvarint(data)
	if err != nil {
		return err
	}
	if n > uint64(len(data)) {
		return fmt.Errorf("members: %d ids in %d bytes: %w", n, len(data), codec.ErrShortBuffer)
	}
	m.Members = make([]uint64, n)
	for i := range m.Members {
		if m.Members[i], data, err = codec.ReadUvarint(data); err != nil {
			return err
		}
	}
	return nil
}

func (m membersMsg) CopyValue() interface{} {
	m.Members = append([]uint64(nil), m.Members...)
	return m
}

// app is what the actors of one cluster share: the span recorder of a
// traced run (nil otherwise) and the node numbering its spans use.
type app struct {
	rec   *recorder
	nodes map[transport.NodeID]uint8
}

// register installs the four kinds on one node.
func (a *app) register(sys *actor.System) {
	sys.RegisterType(kindConsole, func() actor.Actor { return &console{app: a} })
	sys.RegisterType(kindGame, func() actor.Actor { return &game{app: a} })
	sys.RegisterType(kindPresence, func() actor.Actor { return &record{app: a} })
	sys.RegisterType(kindSession, func() actor.Actor { return &record{app: a} })
}

// turn opens the span of one actor turn caused by the call span parent; it
// is the zero handle, and every use of it a no-op, on an untraced op.
func (a *app) turn(ctx *actor.Context, parent uint64, label spanLabel) spanHandle {
	if parent == 0 || a.rec == nil {
		return spanHandle{}
	}
	return a.rec.begin(parent, spanTurn, label, a.nodes[ctx.Node()])
}

// encode turns a typed handler's result into the byte path's (remote
// calls); the value path returns the same result as it is.
func encode(reply interface{}, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return codec.Marshal(reply)
}

func badArgs(method string, args interface{}) error {
	return fmt.Errorf("benchmark: %s got %T", method, args)
}

func badMethod(kind, method string) error {
	return fmt.Errorf("benchmark: %s has no method %q", kind, method)
}

// --- console ---

// console forwards status to its game; it holds no state of its own.
type console struct {
	app  *app
	game actor.Ref // derived from the console's key on first use
}

func (c *console) status(ctx *actor.Context, req statusReq) (roster, error) {
	t := c.app.turn(ctx, req.Span, labelConsoleStatus)
	if c.game.Type == "" {
		id, err := strconv.ParseUint(ctx.Self().Key, 10, 64)
		if err != nil {
			return roster{}, fmt.Errorf("benchmark: console key %q: %w", ctx.Self().Key, err)
		}
		c.game = actor.Ref{Type: kindGame, Key: strconv.FormatUint(id/membersPerGame, 10)}
	}
	var out roster
	call := t.child(spanCall, labelGameRoster)
	err := ctx.Call(c.game, mRoster, statusReq{Span: call.id}, &out)
	call.end()
	t.end()
	return out, err
}

func (c *console) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	if method != mStatus {
		return nil, badMethod(kindConsole, method)
	}
	var req statusReq
	if err := codec.Unmarshal(args, &req); err != nil {
		return nil, err
	}
	return encode(c.status(ctx, req))
}

func (c *console) ReceiveValue(ctx *actor.Context, method string, args interface{}) (interface{}, error) {
	if method != mStatus {
		return nil, badMethod(kindConsole, method)
	}
	req, ok := args.(statusReq)
	if !ok {
		return nil, badArgs(method, args)
	}
	return c.status(ctx, req)
}

func (c *console) Snapshot() ([]byte, error) { return nil, nil }
func (c *console) Restore([]byte) error      { return nil }

// --- game ---

// game knows its members and gathers their records one after the other, as
// the paper's presence service does.
type game struct {
	app     *app
	members []uint64
	refs    []actor.Ref // members as refs, rebuilt when the list changes
}

func (g *game) setMembers(ids []uint64) {
	g.members = ids
	g.refs = make([]actor.Ref, len(ids))
	for i, id := range ids {
		g.refs[i] = actor.Ref{Type: kindPresence, Key: strconv.FormatUint(id, 10)}
	}
}

func (g *game) roster(ctx *actor.Context, req statusReq) (roster, error) {
	t := g.app.turn(ctx, req.Span, labelGameRoster)
	out := roster{Members: make([]member, 0, len(g.refs))}
	for _, ref := range g.refs {
		var m member
		call := t.child(spanCall, labelPresenceGet)
		err := ctx.Call(ref, mGet, statusReq{Span: call.id}, &m)
		call.end()
		if err != nil {
			t.end()
			return roster{}, err
		}
		out.Members = append(out.Members, m)
	}
	t.end()
	return out, nil
}

func (g *game) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case mRoster:
		var req statusReq
		if err := codec.Unmarshal(args, &req); err != nil {
			return nil, err
		}
		return encode(g.roster(ctx, req))
	case mSetMembers:
		var msg membersMsg
		if err := codec.Unmarshal(args, &msg); err != nil {
			return nil, err
		}
		g.setMembers(msg.Members)
		return encode(ack{N: uint64(len(g.members))}, nil)
	}
	return nil, badMethod(kindGame, method)
}

func (g *game) ReceiveValue(ctx *actor.Context, method string, args interface{}) (interface{}, error) {
	switch method {
	case mRoster:
		req, ok := args.(statusReq)
		if !ok {
			return nil, badArgs(method, args)
		}
		return g.roster(ctx, req)
	case mSetMembers:
		msg, ok := args.(membersMsg)
		if !ok {
			return nil, badArgs(method, args)
		}
		g.setMembers(msg.Members)
		return ack{N: uint64(len(g.members))}, nil
	}
	return nil, badMethod(kindGame, method)
}

func (g *game) Snapshot() ([]byte, error) { return membersMsg{Members: g.members}.AppendBinary(nil) }

func (g *game) Restore(data []byte) error {
	var msg membersMsg
	if err := msg.UnmarshalBinary(data); err != nil {
		return err
	}
	g.setMembers(msg.Members)
	return nil
}

// --- presence and session records ---

// record is one presence or session record: a heartbeat counter and the
// last payload. Both kinds run this code; they differ in who calls them.
type record struct {
	app   *app
	id    uint64
	known bool // id parsed from the key
	beats uint64
	pad   []byte
}

func (r *record) beat(ctx *actor.Context, method string, msg beatMsg) (ack, error) {
	t := r.app.turn(ctx, msg.Span, labelBeat)
	if method == mBeat {
		r.beats++
	}
	r.pad = msg.Pad
	t.end()
	return ack{N: r.beats}, nil
}

func (r *record) get(ctx *actor.Context, req statusReq) (member, error) {
	t := r.app.turn(ctx, req.Span, labelPresenceGet)
	if !r.known {
		id, err := strconv.ParseUint(ctx.Self().Key, 10, 64)
		if err != nil {
			return member{}, fmt.Errorf("benchmark: record key %q: %w", ctx.Self().Key, err)
		}
		r.id, r.known = id, true
	}
	t.end()
	return member{ID: r.id, Beats: r.beats}, nil
}

func (r *record) Receive(ctx *actor.Context, method string, args []byte) ([]byte, error) {
	switch method {
	case mBeat, mOpen:
		var msg beatMsg
		if err := codec.Unmarshal(args, &msg); err != nil {
			return nil, err
		}
		return encode(r.beat(ctx, method, msg))
	case mGet:
		var req statusReq
		if err := codec.Unmarshal(args, &req); err != nil {
			return nil, err
		}
		return encode(r.get(ctx, req))
	}
	return nil, badMethod("record", method)
}

func (r *record) ReceiveValue(ctx *actor.Context, method string, args interface{}) (interface{}, error) {
	switch method {
	case mBeat, mOpen:
		msg, ok := args.(beatMsg)
		if !ok {
			return nil, badArgs(method, args)
		}
		return r.beat(ctx, method, msg)
	case mGet:
		req, ok := args.(statusReq)
		if !ok {
			return nil, badArgs(method, args)
		}
		return r.get(ctx, req)
	}
	return nil, badMethod("record", method)
}

// Snapshot carries the counter and the pad across a migration; the audit
// of presence_converge proves they arrived.
func (r *record) Snapshot() ([]byte, error) {
	return beatMsg{Seq: r.beats, Pad: r.pad}.AppendBinary(nil)
}

func (r *record) Restore(data []byte) error {
	var msg beatMsg
	if err := msg.UnmarshalBinary(data); err != nil {
		return err
	}
	r.beats, r.pad = msg.Seq, msg.Pad
	return nil
}
