package core

import (
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// TestBackupRejectsOutOfWindowPrePrepare: sequence numbers outside
// (h, h+L] must be ignored, bounding log memory against a runaway or
// malicious primary.
func TestBackupRejectsOutOfWindowPrePrepare(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	g.c.start()
	backup := g.replicas[1]
	primarySuite := crypto.NewSuite(g.tables[0], nil)
	clientSuite := crypto.NewSuite(g.tables[4], nil)

	req := &message.Request{Client: 100, Timestamp: 1, Replier: message.AllReplicas, Op: []byte("x")}
	d := req.ContentDigest(clientSuite, new(message.Encoder))
	req.Auth = clientSuite.Auth(4, d[:])
	raw := message.Marshal(new(message.Encoder), req)

	for _, seq := range []int64{0, -3, 9, 100} { // h = 0, L = 8: valid is 1..8
		batch := message.BatchDigest(primarySuite, new(message.Encoder), []crypto.Digest{d})
		pp := &message.PrePrepare{View: 0, Seq: seq, Refs: []message.RequestRef{{Inline: raw}}}
		pp.Auth = primarySuite.Auth(4, message.OrderContentWithCommits(new(message.Encoder), 0, seq, batch, nil))
		backup.Receive(message.Marshal(new(message.Encoder), pp))
		if s, ok := backup.log[seq]; ok && s.havePP {
			t.Fatalf("pre-prepare for out-of-window seq %d accepted", seq)
		}
	}
	// A valid one is accepted, proving the fixture works.
	batch := message.BatchDigest(primarySuite, new(message.Encoder), []crypto.Digest{d})
	pp := &message.PrePrepare{View: 0, Seq: 5, Refs: []message.RequestRef{{Inline: raw}}}
	pp.Auth = primarySuite.Auth(4, message.OrderContentWithCommits(new(message.Encoder), 0, 5, batch, nil))
	backup.Receive(message.Marshal(new(message.Encoder), pp))
	if s := backup.log[5]; s == nil || !s.havePP {
		t.Fatal("in-window pre-prepare rejected")
	}
}

// TestPrimaryStopsAtLogWindow: with checkpoints blocked (no progress
// past stability), the primary must not assign sequence numbers beyond
// h + L even with requests queued.
func TestPrimaryStopsAtLogWindow(t *testing.T) {
	clientIDs := []int{100, 101, 102, 103}
	g := buildGroup(t, 4, clientIDs, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
		c.Window = 64 // wide work window so only the log window binds
	})
	// Block all checkpoint traffic: stability never advances past 0... but
	// execution continues, so the ceiling is h + L = 8.
	g.c.drop = func(src, dst int, data []byte) bool {
		return len(data) > 0 && message.Type(data[0]) == message.TypeCheckpoint
	}
	g.c.start()

	done := 0
	for round := 0; round < 6; round++ {
		for _, id := range clientIDs {
			g.invokeAsync(id, opAppend("k", "x"), false, &done)
		}
	}
	g.c.run(func() bool { return done >= 8 }, 30*time.Second, "ops up to the log window")
	g.c.advance(3 * time.Second)
	if pp := g.replicas[0].lastPP; pp > 8 {
		t.Fatalf("primary assigned seq %d beyond the log window 8", pp)
	}
	// Unblock checkpoints: stability resumes (via the status-driven
	// checkpoint resend), the window opens, and the backlog drains.
	g.c.drop = nil
	g.c.run(func() bool { return done == 24 }, 60*time.Second, "backlog drain after GC resumes")
	g.c.run(func() bool {
		for _, r := range g.replicas {
			if r.LastExecuted() != g.replicas[0].LastExecuted() {
				return false
			}
		}
		return true
	}, 60*time.Second, "all replicas caught up")
	g.agreeState()
}

// TestViewChangeTimerEscalationNeedsQuorum: a replica whose timer fires
// alone must not race through views (the TR-817 liveness rule).
func TestViewChangeTimerEscalationNeedsQuorum(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	// Isolate replica 3's view-change traffic: its VCs reach nobody, so it
	// can never assemble a quorum for any view it starts.
	g.c.drop = func(src, dst int, data []byte) bool {
		return src == 3 && len(data) > 0 && message.Type(data[0]) == message.TypeViewChange
	}
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)

	// Make replica 3 suspect the primary by hiding a request's ordering
	// from it: it buffers the request, times out, and starts a view change
	// alone.
	g.c.drop = func(src, dst int, data []byte) bool {
		if src == 3 && len(data) > 0 && message.Type(data[0]) == message.TypeViewChange {
			return true
		}
		if dst == 3 && len(data) > 0 {
			switch message.Type(data[0]) {
			case message.TypePrePrepare, message.TypePrepare, message.TypeCommit:
				return true
			}
		}
		return false
	}
	done := 0
	g.invokeAsync(100, opSet("b", "2"), false, &done)
	g.c.run(func() bool { return done == 1 }, 30*time.Second, "op completing without replica 3")
	g.c.advance(10 * time.Second)

	if v := g.replicas[3].View(); v > 1 {
		t.Fatalf("lone suspecting replica escalated to view %d; must wait at its first view change", v)
	}
	for _, i := range []int{0, 1, 2} {
		if g.replicas[i].View() != 0 {
			t.Fatalf("replica %d left view 0 because of a lone suspecter", i)
		}
	}
}
