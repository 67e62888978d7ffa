package core

import (
	"testing"
	"time"

	"bftfast/internal/adversary"
)

// wrapFaulty replaces the cluster handler for one replica with an
// adversary node driving the given behavior; the honest engine keeps
// running underneath, only its boundary traffic is attacked. Must run
// before c.start().
func (g *group) wrapFaulty(id int, b adversary.Behavior) *adversary.Node {
	node := adversary.New(id, g.n, adversary.Config{Behavior: b}, 42+int64(id),
		g.replicas[id], g.tables[id])
	g.c.handlers[id] = node
	return node
}

// TestEquivocatingPrimaryDeposedAndSalvaged drives the equivocating-primary
// behavior through the core testbed: the primary sends conflicting
// pre-prepares for the same sequence, so no batch can commit, the backups
// depose it, and — thanks to request salvage across the view change — the
// buffered request is re-proposed by the new primary without waiting for
// the client retransmission timer.
func TestEquivocatingPrimaryDeposedAndSalvaged(t *testing.T) {
	g := buildGroup(t, 4, []int{4, 5}, func(c *Config) {
		c.ViewChangeTimeout = 50 * time.Millisecond
	})
	attacker := g.wrapFaulty(0, adversary.EquivocatePrimary)
	g.c.start()

	if got := g.invoke(4, opSet("k", "v1"), false); string(got) != "ok" {
		t.Fatalf("set under equivocating primary: %q", got)
	}
	// The client's retransmission timer is 150ms; completion before it
	// fires proves the view change itself recovered the request (the new
	// primary salvaged the body from the superseded slot).
	if g.c.now >= 150*time.Millisecond {
		t.Fatalf("request recovered only after %v — salvage should beat the 150ms client retransmit", g.c.now)
	}
	if attacker.Stats().Equivocations == 0 {
		t.Fatal("primary never equivocated")
	}
	if v := g.replicas[1].view; v == 0 {
		t.Fatal("equivocating primary was never deposed")
	}
	// The group keeps operating in the new view.
	if got := g.invoke(5, opSet("k", "v2"), false); string(got) != "ok" {
		t.Fatalf("set after view change: %q", got)
	}
	if got := g.invoke(4, opGet("k"), false); string(got) != "v2" {
		t.Fatalf("get after view change: %q", got)
	}
	g.agreeState(1, 2, 3)
}

// TestCorruptTransferSourceRejected forces a lagging replica into state
// transfer with a lying source in the group: the corrupt fragment fails
// the trusted-parent digest check, the source is marked bad, and the
// transfer completes from an honest replica.
func TestCorruptTransferSourceRejected(t *testing.T) {
	g := buildGroup(t, 4, []int{4}, func(c *Config) {
		c.CheckpointInterval = 8
		c.LogWindow = 16
	})
	// Replica 0 lies when serving state; it is the first source a fetching
	// replica hears from (peer order), so the corrupt path is exercised
	// before an honest meta is selected.
	attacker := g.wrapFaulty(0, adversary.CorruptTransfer)

	partitioned := false
	g.c.drop = func(src, dst int, _ []byte) bool {
		return partitioned && (src == 3 || dst == 3)
	}
	g.c.start()

	// Cut replica 3 off and run far enough that the others garbage-collect
	// the log below their new low watermark: rejoining then requires a
	// checkpoint transfer, not retransmission.
	partitioned = true
	for i := 0; i < 40; i++ {
		if got := g.invoke(4, opAppend("log", "x"), false); len(got) != i+1 {
			t.Fatalf("append %d: %q", i, got)
		}
	}
	if ls := g.replicas[0].lastStable; ls < 24 {
		t.Fatalf("low watermark %d did not pass replica 3's log window", ls)
	}

	partitioned = false
	g.c.run(func() bool { return g.replicas[3].stats.StateTransfers > 0 },
		5*time.Second, "replica 3 to complete a state transfer")
	if attacker.Stats().FragmentsCorrupted == 0 {
		t.Fatal("lying source never served a corrupt fragment")
	}
	if g.replicas[3].st != nil {
		t.Fatal("state transfer still in progress after completion")
	}
	// The restored replica participates again and the whole group agrees.
	if got := g.invoke(4, opGet("log"), false); len(got) != 40 {
		t.Fatalf("log after recovery: %d bytes", len(got))
	}
	g.agreeState()
}

// TestForgedCommitRefsCountForNothing runs a piggybacking group with a
// backup whose prepares carry, under a valid authenticator, a commit for the
// right batch under a wrong digest and one for a sequence number beyond any
// window. The carriers authenticate, the references become no vote that a
// quorum counts, and no slot appears outside the water marks.
func TestForgedCommitRefsCountForNothing(t *testing.T) {
	g := buildGroup(t, 4, []int{4, 5}, piggyback(true))
	attacker := g.wrapFaulty(3, adversary.ForgeCommitRefs)
	g.c.start()
	for i := 0; i < 6; i++ {
		g.invoke(4, opAppend("k", "x"), false)
		if got := g.invoke(5, opGet("k"), true); len(got) != i+1 {
			t.Fatalf("round %d: read %q", i, got)
		}
	}
	if attacker.Stats().RefsForged == 0 {
		t.Fatal("the backup never forged a reference")
	}
	for i, r := range g.replicas[:3] {
		if d := r.Stats().DroppedMessages; d != 0 {
			t.Errorf("replica %d dropped %d messages; the forged carriers authenticate", i, d)
		}
		for seq, s := range r.log {
			if !r.inWindow(seq) {
				t.Errorf("replica %d holds slot %d outside its water marks", i, seq)
			}
			for d, votes := range s.commits {
				if d != s.batchDigest && (len(votes) != 1 || !votes[3]) {
					t.Errorf("replica %d slot %d: votes %v for a digest that is not the batch's", i, seq, votes)
				}
			}
		}
	}
	g.c.advance(g.commitFallback())
	g.agreeState()
}

// TestWithheldCarriersDoNotStall: a backup that never sends a prepare gives
// its peers no carrier to wait for and none of its commits; the three
// correct replicas commit among themselves without waiting for the timer.
func TestWithheldCarriersDoNotStall(t *testing.T) {
	g := buildGroup(t, 4, []int{4, 5}, piggyback(true))
	attacker := g.wrapFaulty(3, adversary.WithholdCarriers)
	g.c.start()
	start := g.c.now
	for i := 0; i < 6; i++ {
		g.invoke(4, opAppend("k", "x"), false)
		if got := g.invoke(5, opGet("k"), true); len(got) != i+1 {
			t.Fatalf("round %d: read %q", i, got)
		}
	}
	if g.c.now != start {
		t.Fatalf("twelve operations took %v of virtual time, want none: a read behind a write must not wait for a timer", g.c.now-start)
	}
	if attacker.Stats().CarriersWithheld == 0 {
		t.Fatal("the backup withheld nothing")
	}
	g.c.advance(g.commitFallback())
	g.agreeState(0, 1, 2)
}
