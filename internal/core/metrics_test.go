package core

import (
	"testing"

	"bftfast/internal/obs"
)

// TestRegisteredGaugesReadThrough: the gauges RegisterMetrics installs read
// the engines' live counters and progress marks at snapshot time, so a
// registry snapshot agrees with Stats, View, LastExecuted, LastStable and
// Checkpoints after the group has run.
func TestRegisteredGaugesReadThrough(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	reg := obs.NewRegistry()
	rep := g.replicas[1]
	rep.RegisterMetrics(reg, "replica1.")
	g.clients[100].RegisterMetrics(reg, "client100.")
	g.c.start()
	for i := 0; i < 10; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	g.invoke(100, opGet("k"), true)

	st, cl := rep.Stats(), g.clients[100].Stats()
	retained, materialized := rep.Checkpoints()
	for name, want := range map[string]int64{
		"replica1.executed_requests":       st.ExecutedRequests,
		"replica1.executed_read_only":      st.ExecutedReadOnly,
		"replica1.executed_batches":        st.ExecutedBatches,
		"replica1.stable_checkpoints":      st.StableCheckpoints,
		"replica1.view":                    rep.View(),
		"replica1.last_executed":           rep.LastExecuted(),
		"replica1.last_stable":             rep.LastStable(),
		"replica1.checkpoint.retained":     int64(retained),
		"replica1.checkpoint.materialized": materialized,
		"client100.completed":              cl.Completed,
		"client100.retransmits":            cl.Retransmits,
		"client100.rejected":               cl.Rejected,
	} {
		m, ok := reg.Get(name)
		if !ok {
			t.Fatalf("gauge %s not registered", name)
		}
		if m.Value != want {
			t.Errorf("%s = %d, want %d", name, m.Value, want)
		}
	}
	if cl.Completed != 11 || st.ExecutedReadOnly != 1 || rep.LastStable() == 0 {
		t.Fatalf("setup: completed %d, read-only %d, last stable %d", cl.Completed, st.ExecutedReadOnly, rep.LastStable())
	}
	if heard := rep.PeerHeard(nil); len(heard) != 4 || heard[1] != 0 {
		t.Fatalf("PeerHeard = %v, want 4 entries with the self entry zero", heard)
	}
}
