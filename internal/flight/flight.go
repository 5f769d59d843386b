// Package flight is the runtime's black-box flight recorder: a fixed-size
// lock-free ring of structured events (membership transitions, failover
// purges, migrations, recovery gate outcomes, thread-controller resizes,
// snapshot ships, panic isolations) that is always recording, plus
// anomaly-triggered dumps. Append is constant-cost — one atomic add and
// one atomic pointer store, the trace.Ring discipline — so hot paths can
// record unconditionally. When an anomaly trigger fires (SLO breach, peer
// death, recovery throttling, panic), the recorder snapshots the ring
// together with Go runtime context into a retained Dump, debounced
// per trigger kind so a storm of violations yields one dump, not one per
// violation.
package flight

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event kinds recorded by the actor runtime and thread controller.
const (
	KindMembership        = "membership"
	KindFailoverPurge     = "failover_purge"
	KindMigrationOut      = "migration_out"
	KindMigrationIn       = "migration_in"
	KindTombstone         = "tombstone"
	KindRecovery          = "recovery"
	KindRecoveryThrottled = "recovery_throttled"
	KindSnapshotShip      = "snapshot_ship"
	KindThreadResize      = "thread_resize"
	KindPanic             = "panic"
	KindPeerDead          = "peer_dead"
	KindSLOBreach         = "slo_breach"
)

// Event is one structured flight-recorder entry. Seq and At are assigned
// by Record; the remaining fields are whatever the recording site knows —
// the actor involved, the peer involved, a free-form detail, and an
// optional count N (purged entries, resized workers, shipped bytes).
type Event struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	Kind   string    `json:"kind"`
	Actor  string    `json:"actor,omitempty"`
	Peer   string    `json:"peer,omitempty"`
	Detail string    `json:"detail,omitempty"`
	N      uint64    `json:"n,omitempty"`
}

// RuntimeInfo is the Go runtime context captured with every dump, so an
// incident snapshot carries the process state that framed it.
type RuntimeInfo struct {
	Goroutines int    `json:"goroutines"`
	HeapBytes  uint64 `json:"heap_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Dump is one anomaly-triggered black-box snapshot: the trigger that fired,
// the runtime context at that instant, and the ring contents in
// chronological order.
type Dump struct {
	Trigger string      `json:"trigger"`
	Detail  string      `json:"detail,omitempty"`
	At      time.Time   `json:"at"`
	Runtime RuntimeInfo `json:"runtime"`
	Events  []Event     `json:"events"`
}

// maxDumps bounds retained dumps (oldest dropped first) so a long-running
// node with recurring anomalies keeps a window, not an unbounded log.
const maxDumps = 8

// Recorder is the flight recorder. All methods are goroutine-safe, and all
// methods are nil-receiver-safe no-ops so optional wiring (e.g. the thread
// controller) needs no checks.
type Recorder struct {
	slots    []atomic.Pointer[Event]
	cursor   atomic.Uint64
	debounce time.Duration

	dumpsTaken atomic.Uint64
	suppressed atomic.Uint64

	mu       sync.Mutex
	lastDump map[string]time.Time
	dumps    []Dump
}

// NewRecorder creates a recorder holding up to size events (minimum 64),
// with per-kind trigger debouncing of the given interval.
func NewRecorder(size int, debounce time.Duration) *Recorder {
	if size < 64 {
		size = 64
	}
	return &Recorder{
		slots:    make([]atomic.Pointer[Event], size),
		debounce: debounce,
		lastDump: make(map[string]time.Time),
	}
}

// Cap reports the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record appends one event: one atomic add to claim a slot, one pointer
// store to publish. Old events are overwritten once the ring wraps.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	e.At = time.Now()
	seq := r.cursor.Add(1)
	e.Seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&e)
}

// Recorded reports the lifetime number of events recorded (including
// overwritten ones).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// Overwritten reports how many events have been lost to ring wraparound —
// the recorder's own coverage metric.
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	if n := r.cursor.Load(); n > uint64(len(r.slots)) {
		return n - uint64(len(r.slots))
	}
	return 0
}

// capture collects the resident events in chronological (Seq-ascending)
// order. Under concurrent writes a slot may be observed mid-overwrite;
// sorting by Seq keeps the view consistent enough for debugging.
func (r *Recorder) capture() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Snapshot returns up to limit of the most recent events, newest first
// (limit <= 0 means the whole ring) — the /debug endpoint's live view.
func (r *Recorder) Snapshot(limit int) []Event {
	if r == nil {
		return nil
	}
	evs := r.capture()
	for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
		evs[i], evs[j] = evs[j], evs[i]
	}
	if limit > 0 && len(evs) > limit {
		evs = evs[:limit]
	}
	return evs
}

// Trigger records an anomaly event and, unless a dump for the same kind
// fired within the debounce window, captures a black-box Dump of the ring
// plus runtime context. Reports whether a dump was taken (false = either
// debounced or nil recorder).
func (r *Recorder) Trigger(kind, detail string) bool {
	if r == nil {
		return false
	}
	r.Record(Event{Kind: kind, Detail: detail})
	// The clock is read and the dump counted under the lock that orders the
	// verdicts: read outside it, an earlier reading could meet a later
	// lastDump, go negative, and be debounced at a debounce of zero.
	r.mu.Lock()
	now := time.Now()
	if last, ok := r.lastDump[kind]; ok && now.Sub(last) < r.debounce {
		r.mu.Unlock()
		r.suppressed.Add(1)
		return false
	}
	r.lastDump[kind] = now
	r.dumpsTaken.Add(1)
	r.mu.Unlock()
	// Runtime context and the ring capture run outside the mutex —
	// ReadMemStats is not something to hold a lock across.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d := Dump{
		Trigger: kind, Detail: detail, At: now,
		Runtime: RuntimeInfo{
			Goroutines: runtime.NumGoroutine(),
			HeapBytes:  ms.HeapAlloc,
			GCCycles:   ms.NumGC,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Events: r.capture(),
	}
	r.mu.Lock()
	r.dumps = append(r.dumps, d)
	if len(r.dumps) > maxDumps {
		r.dumps = append(r.dumps[:0], r.dumps[len(r.dumps)-maxDumps:]...)
	}
	r.mu.Unlock()
	return true
}

// Dumps returns the retained anomaly dumps, oldest first.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Dump, len(r.dumps))
	copy(out, r.dumps)
	r.mu.Unlock()
	return out
}

// DumpsTaken reports the lifetime number of dumps captured.
func (r *Recorder) DumpsTaken() uint64 {
	if r == nil {
		return 0
	}
	return r.dumpsTaken.Load()
}

// Suppressed reports triggers debounced away without a dump.
func (r *Recorder) Suppressed() uint64 {
	if r == nil {
		return 0
	}
	return r.suppressed.Load()
}
