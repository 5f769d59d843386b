package metrics

import "sync/atomic"

// DurableCounters aggregates the durability events of one node: snapshot
// captures on the turn path, background encode + ship work, replica-store
// acceptance, and failover recovery pulls. All fields are lock-free atomics —
// the capture counters are bumped with the turn lock held — and Snapshot
// reads them without stopping the world, so counts taken under concurrent
// traffic are individually exact but not mutually consistent.
type DurableCounters struct {
	// Captured counts state copies taken under the turn lock and handed to
	// the snapshotter stage.
	Captured atomic.Uint64
	// CaptureDropped counts captures skipped because the snapshotter stage's
	// queue was full (the activation stays dirty and retries next turn).
	CaptureDropped atomic.Uint64
	// CaptureErrors counts background encodes that failed.
	CaptureErrors atomic.Uint64
	// Shipped counts snapshot records delivered to a replica.
	Shipped atomic.Uint64
	// ShippedBytes counts snapshot payload bytes delivered to replicas.
	ShippedBytes atomic.Uint64
	// ShipErrors counts replica deliveries that failed or timed out.
	ShipErrors atomic.Uint64
	// ReplicaAccepted counts inbound snapshots installed in the local
	// replica store.
	ReplicaAccepted atomic.Uint64
	// ReplicaStale counts inbound snapshots rejected by the (epoch, seq)
	// ordering rule — delayed ships from older incarnations.
	ReplicaStale atomic.Uint64
	// Recoveries counts failover re-activations that consulted the replica
	// set before admitting their first turn.
	Recoveries atomic.Uint64
	// RecoveredWithState counts recoveries that found and restored a
	// snapshot.
	RecoveredWithState atomic.Uint64
	// RecoveryEmpty counts recoveries where no replica held a snapshot
	// (fresh actor, or it never captured).
	RecoveryEmpty atomic.Uint64
	// RecoveryFailed counts recoveries aborted because replicas were
	// unreachable — the activation is not admitted, callers retry.
	RecoveryFailed atomic.Uint64
	// RecoveryThrottled counts recovery pulls that had to wait on the
	// stampede semaphore.
	RecoveryThrottled atomic.Uint64
}

// DurableSnapshot is a plain-value copy of DurableCounters, suitable for
// JSON rendering on debug endpoints.
type DurableSnapshot struct {
	Captured           uint64 `json:"captured"`
	CaptureDropped     uint64 `json:"capture_dropped"`
	CaptureErrors      uint64 `json:"capture_errors"`
	Shipped            uint64 `json:"shipped"`
	ShippedBytes       uint64 `json:"shipped_bytes"`
	ShipErrors         uint64 `json:"ship_errors"`
	ReplicaAccepted    uint64 `json:"replica_accepted"`
	ReplicaStale       uint64 `json:"replica_stale"`
	Recoveries         uint64 `json:"recoveries"`
	RecoveredWithState uint64 `json:"recovered_with_state"`
	RecoveryEmpty      uint64 `json:"recovery_empty"`
	RecoveryFailed     uint64 `json:"recovery_failed"`
	RecoveryThrottled  uint64 `json:"recovery_throttled"`
}

// Snapshot copies the current counter values.
func (c *DurableCounters) Snapshot() DurableSnapshot {
	return DurableSnapshot{
		Captured:           c.Captured.Load(),
		CaptureDropped:     c.CaptureDropped.Load(),
		CaptureErrors:      c.CaptureErrors.Load(),
		Shipped:            c.Shipped.Load(),
		ShippedBytes:       c.ShippedBytes.Load(),
		ShipErrors:         c.ShipErrors.Load(),
		ReplicaAccepted:    c.ReplicaAccepted.Load(),
		ReplicaStale:       c.ReplicaStale.Load(),
		Recoveries:         c.Recoveries.Load(),
		RecoveredWithState: c.RecoveredWithState.Load(),
		RecoveryEmpty:      c.RecoveryEmpty.Load(),
		RecoveryFailed:     c.RecoveryFailed.Load(),
		RecoveryThrottled:  c.RecoveryThrottled.Load(),
	}
}
