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
