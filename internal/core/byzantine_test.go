package core

import (
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// TestForgedProtocolMessagesRejected injects protocol messages with wrong
// authenticators, and valid messages captured from the running group with
// one bit flipped; the replica must drop each one without state change.
func TestForgedProtocolMessagesRejected(t *testing.T) {
	commitModes(t, testForgedProtocolMessagesRejected)
}

func testForgedProtocolMessagesRejected(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, piggyback(pb))
	target := g.replicas[1]

	// The first request, prepare and commit another node sent: their
	// authenticators carry an entry for every replica, so each is valid at
	// the target whoever it was addressed to.
	valid := map[message.Type][]byte{}
	g.c.observe = func(src, dst int, data []byte) {
		switch typ := message.Type(data[0]); typ {
		case message.TypeRequest, message.TypePrepare, message.TypeCommit:
			if src != target.cfg.Self && valid[typ] == nil {
				valid[typ] = append([]byte(nil), data...)
			}
		}
	}
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)
	// With piggybacking on, an idle group's commits leave on the fallback
	// timer; nothing before it puts one on the wire to capture.
	g.c.advance(g.commitFallback())
	g.c.observe = nil

	// flipped returns a copy of a captured datagram with one bit of its
	// authenticated content flipped.
	flipped := func(typ message.Type) []byte {
		t.Helper()
		m, err := message.Unmarshal(valid[typ])
		if err != nil {
			t.Fatalf("no valid %v captured: %v", typ, err)
		}
		switch msg := m.(type) {
		case *message.Request:
			msg.Op[0] ^= 1
		case *message.Prepare:
			msg.Digest[0] ^= 1
		case *message.Commit:
			msg.Digest[0] ^= 1
		}
		return message.Marshal(new(message.Encoder), m)
	}
	auth := func(b byte) crypto.Authenticator {
		return crypto.Authenticator{macOfByte(b), macOfByte(b), macOfByte(b), macOfByte(b)}
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"prepare", message.Marshal(new(message.Encoder), &message.Prepare{View: 0, Seq: 2, Digest: digestOfByte(9), Replica: 2, Auth: auth(1)})},
		{"commit", message.Marshal(new(message.Encoder), &message.Commit{View: 0, Seq: 2, Digest: digestOfByte(9), Replica: 3, Auth: auth(2)})},
		{"checkpoint", message.Marshal(new(message.Encoder), &message.Checkpoint{Seq: 128, StateD: digestOfByte(9), Replica: 2, Auth: auth(3)})},
		{"view-change", message.Marshal(new(message.Encoder), &message.ViewChange{NewView: 1, Replica: 2, Auth: auth(4)})},
		{"status", message.Marshal(new(message.Encoder), &message.Status{View: 0, LastExec: 50, Replica: 3, Auth: auth(5)})},
		{"new-key", message.Marshal(new(message.Encoder), &message.NewKey{Replica: 2, Epoch: 99,
			Keys: []message.KeyEntry{{Replica: 1, Key: crypto.Key{1}}}, Auth: auth(6)})},
		{"request", message.Marshal(new(message.Encoder), &message.Request{Client: 100, Timestamp: 99, Op: opSet("x", "y"), Auth: auth(7)})},
		{"pre-prepare", message.Marshal(new(message.Encoder), &message.PrePrepare{View: 0, Seq: 2,
			Refs: []message.RequestRef{{Digest: digestOfByte(9)}}, Auth: auth(8)})},
		// The target is view 1's primary, the only replica that takes acks
		// for it; a new-view must come from another view's primary.
		{"view-change-ack", message.Marshal(new(message.Encoder), &message.ViewChangeAck{View: 1, Replica: 2, Origin: 3, VCD: digestOfByte(9), MAC: macOfByte(9)})},
		{"new-view", message.Marshal(new(message.Encoder), &message.NewView{View: 2, Auth: auth(10)})},
		{"fetch", message.Marshal(new(message.Encoder), &message.Fetch{Level: 0, Replica: 2, Auth: auth(11)})},
		{"recovery", message.Marshal(new(message.Encoder), &message.Recovery{Replica: 2, Epoch: 1, Auth: auth(12)})},
		{"bit-flipped request", flipped(message.TypeRequest)},
		{"bit-flipped prepare", flipped(message.TypePrepare)},
		{"bit-flipped commit", flipped(message.TypeCommit)},
	}
	beforeExec := target.LastExecuted()
	for _, tc := range cases {
		dropped := target.Stats().DroppedMessages
		target.Receive(tc.data)
		if got := target.Stats().DroppedMessages - dropped; got != 1 {
			t.Errorf("%s: DroppedMessages rose by %d, want 1", tc.name, got)
		}
		if target.LastExecuted() != beforeExec || target.View() != 0 {
			t.Fatalf("%s changed replica state", tc.name)
		}
	}
	// The service keeps working.
	if res := g.invoke(100, opSet("b", "2"), false); string(res) != "ok" {
		t.Fatalf("service broken after forgery attempts: %q", res)
	}
}

func macOfByte(b byte) crypto.MAC {
	var m crypto.MAC
	for i := range m {
		m[i] = b
	}
	return m
}

// TestFaultyCheckpointDigestCannotStabilize has one replica announce wrong
// checkpoint digests; the group must stabilize on the correct digest and
// never adopt the liar's.
func TestFaultyCheckpointDigestCannotStabilize(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	// Replica 3's checkpoint messages get corrupted in flight (stand-in
	// for a replica whose state diverged): flip the digest bytes.
	g.c.drop = func(src, dst int, data []byte) bool {
		if src != 3 || len(data) == 0 || message.Type(data[0]) != message.TypeCheckpoint {
			return false
		}
		return true // silence its checkpoints entirely
	}
	g.c.start()
	for i := 0; i < 12; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	// 2f+1 = 3 correct checkpoints are enough for stability without 3.
	for _, i := range []int{0, 1, 2} {
		if g.replicas[i].lastStable == 0 {
			t.Fatalf("replica %d never stabilized despite 3 correct checkpointers", i)
		}
	}
	g.agreeState()
}

// TestStateTransferSurvivesLyingSource partitions a replica, then lets a
// Byzantine peer serve corrupt snapshot fragments; the recovering replica
// must detect the corruption and finish the transfer from honest sources.
func TestStateTransferSurvivesLyingSource(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	g.crash(3)
	g.c.start()
	for i := 0; i < 30; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}

	// Heal the partition but corrupt every snapshot fragment replica 0
	// serves (a lying state-transfer source).
	g.c.drop = nil
	corrupted := 0
	prevObserve := g.c.observe
	g.c.intercept = func(src, dst int, data []byte) []byte {
		if src == 0 && dst == 3 && len(data) > 0 && message.Type(data[0]) == message.TypeFragment {
			m, err := message.Unmarshal(data)
			if err != nil {
				return data
			}
			frag, ok := m.(*message.Fragment)
			if !ok || len(frag.Data) == 0 {
				return data
			}
			frag.Data[0] ^= 0xFF
			corrupted++
			return message.Marshal(new(message.Encoder), frag)
		}
		return data
	}
	_ = prevObserve

	target := g.replicas[1].LastExecuted()
	g.c.run(func() bool {
		return g.replicas[3].LastExecuted() >= target
	}, 60*time.Second, "state transfer despite a lying source")
	if corrupted == 0 {
		t.Skip("replica 0 was never chosen as the transfer source; nothing corrupted")
	}
	if got, want := g.sms[3].data["k"], g.sms[1].data["k"]; got != want {
		t.Fatalf("recovered state wrong: %q vs %q", got, want)
	}
}

// TestStaleViewSpamIgnored floods a replica with view-change messages for
// ancient views; nothing should change.
func TestStaleViewSpamIgnored(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)
	g.crash(0)
	g.invoke(100, opSet("b", "2"), false) // drives the group to view >= 1

	// Replica 2 replays its own old view-change for view 1 at replica 1.
	viewBefore := g.replicas[1].View()
	if viewBefore < 1 {
		t.Fatalf("setup: view %d", viewBefore)
	}
	// Craft a VC for view 1 (stale) from replica 2's real keys.
	suite := crypto.NewSuite(g.tables[2], nil)
	vc := &message.ViewChange{NewView: 1, LastStable: 0, Replica: 2}
	vcd := suite.Digest(vc.AuthContent(new(message.Encoder)))
	vc.Auth = suite.Auth(4, vcd[:])
	for i := 0; i < 10; i++ {
		g.replicas[1].Receive(message.Marshal(new(message.Encoder), vc))
	}
	g.c.pump()
	if g.replicas[1].View() != viewBefore || g.replicas[1].inViewChange {
		t.Fatal("stale view-change spam disturbed the replica")
	}
}

// TestEquivocatingCheckpoints verifies that conflicting checkpoint digests
// from the same replica cannot both count toward stability.
func TestEquivocatingCheckpoints(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	g.c.start()
	for i := 0; i < 4; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	r := g.replicas[1]
	// A Byzantine replica 3 sends two different digests for the same seq;
	// the second overwrites the first in the vote table (one vote per
	// replica), so it can never double-count.
	suite := crypto.NewSuite(g.tables[3], nil)
	for _, b := range []byte{7, 8} {
		ck := &message.Checkpoint{Seq: 8, StateD: digestOfByte(b), Replica: 3}
		ck.Auth = suite.Auth(4, ck.AuthContent(new(message.Encoder)))
		r.Receive(message.Marshal(new(message.Encoder), ck))
	}
	if got := len(r.checkpoints[8]); got > 1 {
		votes := 0
		for _, d := range r.checkpoints[8] {
			_ = d
			votes++
		}
		if votes > 1 && len(r.checkpoints[8]) != votes {
			t.Fatal("vote bookkeeping inconsistent")
		}
	}
	if r.checkpointVotes(8, digestOfByte(7)) != 0 {
		t.Fatal("overwritten equivocating vote still counted")
	}
	if r.checkpointVotes(8, digestOfByte(8)) != 1 {
		t.Fatal("replica 3's vote lost entirely")
	}
}

// TestCorruptStateSelfHeals corrupts one replica's service state in place
// (memory fault, bit rot, or an intrusion the proactive-recovery story
// assumes); at the next checkpoint quorum the replica must notice that its
// digest contradicts the group and refetch verified state.
func TestCorruptStateSelfHeals(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	g.c.start()
	for i := 0; i < 4; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}

	// Corrupt replica 2's state behind the protocol's back.
	g.sms[2].data["k"] = "GARBAGE"

	for i := 0; i < 12; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	g.c.run(func() bool {
		return g.replicas[2].Stats().Divergences > 0 &&
			g.replicas[2].LastExecuted() >= g.replicas[1].lastStable
	}, 60*time.Second, "divergence detection and heal")

	g.c.run(func() bool {
		return g.sms[2].data["k"] == g.sms[1].data["k"]
	}, 30*time.Second, "state converged after the heal")
	if g.replicas[2].Stats().StateTransfers == 0 {
		t.Fatal("no state transfer performed for the heal")
	}
	// The group as a whole kept working throughout.
	if res := g.invoke(100, opAppend("k", "y"), false); string(res) == "err" {
		t.Fatal("service broken after self-heal")
	}
}
