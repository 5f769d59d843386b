package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own tracing (choosing-metrics §4): spans recorded from
// the benchmark's files around the calls into the runtime, kept in memory,
// written out when the run ends. One root per traced op, one call span
// around every Call (the driver's and each nested ctx.Call), one turn span
// per benchmark-actor turn; Parent links them, so a layer's self time is
// its span minus the part its children cover. Spans inside the runtime are
// a later issue — the runtime's existing per-call components are read
// next to these, not instead of them.

type spanKind uint8

const (
	spanRoot spanKind = iota // one per op, on the driver
	spanCall                 // around one Call, on the caller
	spanTurn                 // one actor turn, on the callee
)

var spanKindNames = [...]string{"root", "call", "turn"}

type spanLabel uint8

const (
	labelStatus spanLabel = iota // root of a status op
	labelBeatOp                  // root of a beat or open op
	labelConsoleStatus
	labelGameRoster
	labelPresenceGet
	labelBeat
)

var spanLabelNames = [...]string{"op.status", "op.beat", "console.status", "game.roster", "presence.get", "record.beat"}

// span is one recorded interval. Node is where it ran: the caller's node
// for a call span, the callee's for a turn span.
type span struct {
	ID, Parent uint64
	Start, End int64 // ns since the recorder's epoch
	Kind       spanKind
	Label      spanLabel
	Node       uint8
}

// recShards spreads span appends over independent locks; actors on
// different workers rarely meet on one.
const recShards = 64

// recorder collects spans in preallocated per-shard buffers. When a shard
// fills, further spans are dropped and counted — a traced run never grows
// its buffers while the clock is running.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Uint64
	dropped atomic.Uint64
	shards  [recShards]struct {
		mu  sync.Mutex
		buf []span
	}
}

func newRecorder(capacity int) *recorder {
	r := &recorder{epoch: time.Now()}
	for i := range r.shards {
		r.shards[i].buf = make([]span, 0, capacity/recShards+1)
	}
	return r
}

// spanHandle is an open span. The zero handle (an untraced op) ignores
// end and hands out zero children, so traced and untraced code read the
// same.
type spanHandle struct {
	rec    *recorder
	id     uint64
	parent uint64
	start  int64
	kind   spanKind
	label  spanLabel
	node   uint8
}

func (r *recorder) begin(parent uint64, kind spanKind, label spanLabel, node uint8) spanHandle {
	return spanHandle{
		rec: r, id: r.nextID.Add(1), parent: parent,
		start: int64(time.Since(r.epoch)), kind: kind, label: label, node: node,
	}
}

// child opens a span caused by h on the same node.
func (h spanHandle) child(kind spanKind, label spanLabel) spanHandle {
	if h.rec == nil {
		return spanHandle{}
	}
	return h.rec.begin(h.id, kind, label, h.node)
}

func (h spanHandle) end() {
	if h.rec == nil {
		return
	}
	sp := span{
		ID: h.id, Parent: h.parent, Start: h.start, End: int64(time.Since(h.rec.epoch)),
		Kind: h.kind, Label: h.label, Node: h.node,
	}
	sh := &h.rec.shards[h.id%recShards]
	sh.mu.Lock()
	if len(sh.buf) < cap(sh.buf) {
		sh.buf = append(sh.buf, sp)
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	h.rec.dropped.Add(1)
}

// spans returns everything recorded. Call it once the traffic has stopped.
func (r *recorder) spans() []span {
	var out []span
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out = append(out, sh.buf...)
		sh.mu.Unlock()
	}
	return out
}

// opSplit is how the mean latency of a group of ops divides over the
// layers. The calls of an op run in sequence, so the four parts sum to
// TotalUs exactly.
type opSplit struct {
	Ops          int
	TotalUs      float64 // root span
	DriverSelfUs float64 // root span minus the driver's call span
	TurnSelfUs   float64 // turn spans minus the call spans inside them
	LocalOvhUs   float64 // call span minus callee turn span, same node
	RemoteOvhUs  float64 // the same, caller and callee nodes differ
}

// spanStats is what the traced run derives from the benchmark's spans.
// Times are means in microseconds.
type spanStats struct {
	Spans, Dropped int

	TurnSelfUs           float64 // per turn
	LocalCallOverheadUs  float64 // per co-located call
	RemoteCallOverheadUs float64 // per cross-node call
	RemoteCallUs         float64 // whole cross-node call spans (closure base)
	DriverSelfUs         float64 // per op
	LocalCalls           int
	RemoteCalls          int

	All, Status opSplit // every traced op; the status ops among them
}

// analyzeSpans computes self times and call overheads. A span whose parent
// or child was dropped is left out of the figure that needs both.
func analyzeSpans(spans []span) spanStats {
	st := spanStats{Spans: len(spans)}
	byID := make(map[uint64]int, len(spans))
	childDur := make(map[uint64]int64, len(spans)) // parent id → Σ child durations
	for i, sp := range spans {
		byID[sp.ID] = i
		childDur[sp.Parent] += sp.End - sp.Start
	}
	// rootOf walks up to the op's root span (-1 when the chain is broken).
	rootOf := func(sp span) int {
		for sp.Parent != 0 {
			i, ok := byID[sp.Parent]
			if !ok {
				return -1
			}
			sp = spans[i]
		}
		if sp.Kind != spanRoot {
			return -1
		}
		return byID[sp.ID]
	}
	type parts struct{ turn, local, remote int64 }
	perRoot := make(map[int]*parts)
	var turnSelf, localOvh, remoteOvh, remoteCall int64
	var turns int
	for _, sp := range spans {
		if sp.Kind != spanTurn {
			continue
		}
		dur := sp.End - sp.Start
		self := dur - childDur[sp.ID]
		turnSelf += self
		turns++
		op := perRoot[rootOf(sp)]
		if op == nil {
			op = &parts{}
			perRoot[rootOf(sp)] = op
		}
		op.turn += self
		pi, ok := byID[sp.Parent]
		if !ok {
			continue
		}
		call := spans[pi]
		ovh := (call.End - call.Start) - dur
		if call.Node == sp.Node {
			localOvh += ovh
			op.local += ovh
			st.LocalCalls++
		} else {
			remoteOvh += ovh
			op.remote += ovh
			remoteCall += call.End - call.Start
			st.RemoteCalls++
		}
	}
	us := func(sum int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n) / 1e3
	}
	st.TurnSelfUs = us(turnSelf, turns)
	st.LocalCallOverheadUs = us(localOvh, st.LocalCalls)
	st.RemoteCallOverheadUs = us(remoteOvh, st.RemoteCalls)
	st.RemoteCallUs = us(remoteCall, st.RemoteCalls)

	var all, status opSum
	for ri, op := range perRoot {
		if ri < 0 {
			continue // turns cut off from their root
		}
		root := spans[ri]
		all.add(root, childDur[root.ID], op.turn, op.local, op.remote)
		if root.Label == labelStatus {
			status.add(root, childDur[root.ID], op.turn, op.local, op.remote)
		}
	}
	st.All, st.Status = all.split(), status.split()
	st.DriverSelfUs = st.All.DriverSelfUs
	return st
}

// opSum accumulates the ops of one opSplit, in nanoseconds.
type opSum struct {
	n                                  int
	total, driver, turn, local, remote int64
}

func (s *opSum) add(root span, children, turn, local, remote int64) {
	s.n++
	s.total += root.End - root.Start
	s.driver += (root.End - root.Start) - children
	s.turn += turn
	s.local += local
	s.remote += remote
}

func (s *opSum) split() opSplit {
	if s.n == 0 {
		return opSplit{}
	}
	us := func(sum int64) float64 { return float64(sum) / float64(s.n) / 1e3 }
	return opSplit{Ops: s.n, TotalUs: us(s.total), DriverSelfUs: us(s.driver), TurnSelfUs: us(s.turn), LocalOvhUs: us(s.local), RemoteOvhUs: us(s.remote)}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, sp := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"kind":%q,"label":%q,"node":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			sp.ID, sp.Parent, spanKindNames[sp.Kind], spanLabelNames[sp.Label], sp.Node, sp.Start, sp.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
