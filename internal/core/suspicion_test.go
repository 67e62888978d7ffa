package core

import (
	"bytes"
	"testing"
	"time"

	"bftfast/internal/adversary"
	"bftfast/internal/message"
)

// The suspicion rules of the view-change timer (DESIGN.md §16): a quorum
// checkpoint past a lagging backup restarts its timer, a backup whose
// primary pre-prepared past its committed frontier runs one help round
// before it accuses, and a primary that ordered nothing new is suspected
// after one timeout.

// bigOp is a set whose request exceeds the inline threshold, so the client
// multicasts its body to every replica and each buffers it (arming its
// timer) whatever happens to the ordering traffic.
func bigOp(key string) []byte { return opSet(key, string(bytes.Repeat([]byte("v"), 400))) }

// isOrdering reports whether data is a pre-prepare, prepare or commit.
func isOrdering(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	switch message.Type(data[0]) {
	case message.TypePrePrepare, message.TypePrepare, message.TypeCommit:
		return true
	}
	return false
}

// TestLoneLaggerNotSuspicious: one backup receives no ordering traffic for
// two timeouts while the group executes. It holds request bodies, so its
// timer runs, and it sees no pre-prepare, so it has nothing to ask for. The
// group's first checkpoint past it restarts the timer, the second is a full
// interval ahead and starts a state transfer, and it accuses nobody.
func TestLoneLaggerNotSuspicious(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 8
		c.LogWindow = 16
		c.StatusInterval = 10 * time.Second // no status tick inside the test
		c.Opts.DigestReplies = false        // no op waits for replica 3's full reply
	})
	vct := g.replicas[0].cfg.ViewChangeTimeout
	cut := false
	g.c.drop = func(src, dst int, data []byte) bool { return cut && dst == 3 && isOrdering(data) }
	g.c.start()
	for i := 0; i < 9; i++ {
		g.invoke(100, opAppend("k", "w"), false)
	}
	if got := g.replicas[3].LastExecuted(); got != 9 {
		t.Fatalf("replica 3 at %d before the cut, want 9", got)
	}

	// 20 ms apart, batch 16 (a checkpoint inside replica 3's interval)
	// executes at 0.6 timeouts and batch 24 (a full interval ahead) at
	// 1.4; the cut lasts two timeouts.
	cut = true
	const gap = 20 * time.Millisecond
	start := g.c.now
	for g.c.now-start < 2*vct {
		g.invoke(100, bigOp("k"), false)
		g.c.advance(gap)
	}
	cut = false
	if n := g.replicas[3].Stats().ViewChanges; n != 0 {
		t.Fatalf("lagging replica 3 started %d view changes while cut off", n)
	}
	for g.c.now-start < 4*vct {
		g.invoke(100, bigOp("k"), false)
		g.c.advance(gap)
	}
	g.c.run(func() bool { return g.replicas[3].LastExecuted() == g.replicas[0].LastExecuted() }, 5*time.Second, "replica 3 catching up")
	for i, r := range g.replicas {
		if n := r.Stats().ViewChanges; n != 0 {
			t.Fatalf("replica %d started %d view changes; a lagging backup's primary is not faulty", i, n)
		}
	}
	g.agreeState()
}

// TestGroupWideStallHelpRound: backups 1 and 2 lose their prepares (or
// commits) for one slot at every replica. Then no replica can commit it
// (prepares) or only those two can (commits), and with the status tick out
// of reach the first timer expiry is the only retransmission: its help
// round re-multicasts the stalled replicas' own votes and asks peers, via
// status, for the evidence they hold. The slot commits without a view
// change.
func TestGroupWideStallHelpRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind message.Type
	}{
		{"prepares", message.TypePrepare},
		{"commits", message.TypeCommit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := buildGroup(t, 4, []int{100}, func(c *Config) {
				c.StatusInterval = 10 * time.Second
			})
			vct := g.replicas[0].cfg.ViewChangeTimeout
			lose := int64(-1)
			g.c.drop = func(src, dst int, data []byte) bool {
				if lose < 0 || (src != 1 && src != 2) || len(data) == 0 || message.Type(data[0]) != tc.kind {
					return false
				}
				m, err := message.Unmarshal(data)
				if err != nil {
					return false
				}
				switch v := m.(type) {
				case *message.Prepare:
					return v.Seq == lose
				case *message.Commit:
					return v.Seq == lose
				}
				return false
			}
			g.c.start()
			g.invoke(100, opSet("a", "1"), false)

			lose = g.replicas[0].LastExecuted() + 1
			done := 0
			g.invokeAsync(100, opSet("a", "2"), false, &done)
			g.c.pump()
			g.c.advance(vct / 2)
			lose = -1 // only the first transmissions are lost
			if c := g.replicas[0].lastCommittedExec; c >= lastLost(g) {
				t.Fatalf("slot committed (%d) before the timer; the drop missed", c)
			}
			g.c.advance(vct / 2) // the first expiry: one help round
			for i, r := range g.replicas {
				if r.lastCommittedExec < lastLost(g) {
					t.Fatalf("replica %d committed only to %d after the help round", i, r.lastCommittedExec)
				}
			}
			g.c.run(func() bool { return done == 1 }, 5*time.Second, "stalled op")
			g.c.advance(2 * vct)
			for i, r := range g.replicas {
				if n := r.Stats().ViewChanges; n != 0 {
					t.Fatalf("replica %d started %d view changes over a lost vote", i, n)
				}
			}
			g.agreeState()
		})
	}
}

// lastLost is the sequence number of the stalled slot: the highest any
// replica knows a pre-prepare for.
func lastLost(g *group) int64 {
	hi := int64(0)
	for _, r := range g.replicas {
		hi = max(hi, r.maxKnownPP)
	}
	return hi
}

// TestDeadPrimarySuspectedAfterOneTimer: a crashed primary pre-prepares
// nothing, so each backup starts its view change exactly one timeout after
// the request reached it.
func TestDeadPrimarySuspectedAfterOneTimer(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	vct := g.replicas[0].cfg.ViewChangeTimeout
	dead := -1
	g.c.drop = func(src, dst int, data []byte) bool { return src == dead || dst == dead }
	seen := time.Duration(-1)
	g.c.observe = func(src, dst int, data []byte) {
		if seen < 0 && dead >= 0 && src == 100 && dst != dead {
			seen = g.c.now
		}
	}
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)

	dead = 0
	done := 0
	g.invokeAsync(100, opSet("a", "2"), false, &done)
	g.c.run(func() bool { return seen >= 0 }, 5*time.Second, "the client's resend reaching the backups")
	g.c.advance(seen + vct - time.Millisecond - g.c.now)
	for i := 1; i < 4; i++ {
		if n := g.replicas[i].Stats().ViewChanges; n != 0 {
			t.Fatalf("backup %d suspected the primary %v after seeing the request, before one timeout (%v)", i, g.c.now-seen, vct)
		}
	}
	g.c.advance(time.Millisecond)
	for i := 1; i < 4; i++ {
		if n := g.replicas[i].Stats().ViewChanges; n == 0 {
			t.Fatalf("backup %d had not suspected the dead primary one timeout (%v) after seeing the request", i, vct)
		}
	}
	g.c.run(func() bool { return done == 1 }, 5*time.Second, "op in the new view")
}

// TestEquivocatingPrimaryDeposedWithinTwoTimers: backups hold conflicting
// pre-prepares, so the first expiry runs a help round that cannot prepare
// either, and the second starts the view change.
func TestEquivocatingPrimaryDeposedWithinTwoTimers(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	vct := g.replicas[0].cfg.ViewChangeTimeout
	attacker := g.wrapFaulty(0, adversary.EquivocatePrimary)
	g.c.start()

	start := g.c.now
	done := 0
	g.invokeAsync(100, opSet("k", "v"), false, &done)
	g.c.pump()
	g.c.advance(2 * vct)
	if attacker.Stats().Equivocations == 0 {
		t.Fatal("primary never equivocated")
	}
	for i := 1; i < 4; i++ {
		if g.replicas[i].View() == 0 {
			t.Fatalf("backup %d still in view 0 %v after the equivocation", i, g.c.now-start)
		}
	}
	g.c.run(func() bool { return done == 1 }, 5*time.Second, "op in the new view")
	g.agreeState(1, 2, 3)
}
