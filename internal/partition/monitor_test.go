package partition

import (
	"testing"

	"actop/internal/graph"
)

// TestMonitorNeverAllocates: filling a runtime-sized monitor, evicting from
// the full one, and forgetting a vertex's edges allocate nothing — the
// runtime forgets a vertex on every migration and deactivation, the
// simulator on every server for every destroyed actor.
func TestMonitorNeverAllocates(t *testing.T) {
	const capacity = 4096
	m := NewMonitor(capacity)
	v := graph.Vertex(1)
	chain := func() { m.ObserveMessage(v, v+1, 1); v++ }
	if got := testing.AllocsPerRun(capacity-1, chain); got != 0 {
		t.Fatalf("filling a %d-edge monitor: %.0f allocs per message, want 0", capacity, got)
	}
	if m.EdgeCount() != capacity {
		t.Fatalf("EdgeCount = %d, want a full monitor (%d)", m.EdgeCount(), capacity)
	}
	if got := testing.AllocsPerRun(capacity, chain); got != 0 {
		t.Fatalf("evicting from a full monitor: %.0f allocs per message, want 0", got)
	}
	hub := graph.Vertex(1 << 40)
	star := func() {
		for i := graph.Vertex(1); i <= 8; i++ {
			m.ObserveMessage(hub, hub+i, 1)
		}
		m.ForgetVertex(hub)
		if m.EdgeCount() != capacity-8 {
			t.Fatalf("EdgeCount = %d after forgetting a hub, want %d", m.EdgeCount(), capacity-8)
		}
		hub += 16
	}
	if got := testing.AllocsPerRun(100, star); got != 0 {
		t.Fatalf("ForgetVertex on a full monitor: %.0f allocs per call, want 0", got)
	}
}

// TestMonitorSnapshotReusesStorage: a warm snapshot of a full runtime-sized
// monitor allocates nothing, into the monitor's storage or a caller's — an
// exchange round takes one on each side, and the simulator one per migration.
func TestMonitorSnapshotReusesStorage(t *testing.T) {
	const capacity = 4096
	m := NewMonitor(capacity)
	for v := graph.Vertex(1); v <= capacity; v++ {
		m.ObserveMessage(v, 1<<20+v%64, uint64(v%5+1)) // 64 hubs, 4 096 leaves
	}
	if m.EdgeCount() != capacity {
		t.Fatalf("EdgeCount = %d, want %d", m.EdgeCount(), capacity)
	}
	var own MonitorSnapshot
	m.SnapshotInto(&own)
	if got := testing.AllocsPerRun(20, func() { m.Snapshot() }); got != 0 {
		t.Fatalf("warm Snapshot of %d edges: %.0f allocs, want 0", capacity, got)
	}
	if got := testing.AllocsPerRun(20, func() { m.SnapshotInto(&own) }); got != 0 {
		t.Fatalf("warm SnapshotInto of %d edges: %.0f allocs, want 0", capacity, got)
	}
	var n int
	for _, v := range own.Vertices() {
		own.VertexEdges(v, func(graph.Vertex, float64) { n++ })
	}
	if n != 2*capacity {
		t.Fatalf("snapshot walks %d half-edges, want %d", n, 2*capacity)
	}
}
