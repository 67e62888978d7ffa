package core

import (
	"bytes"
	"testing"
	"time"

	"bftfast/internal/adversary"
	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// The suspicion rules of the view-change timer (DESIGN.md §16): a quorum
// checkpoint past a lagging backup restarts its timer, and a backup whose
// primary pre-prepared past its committed frontier runs one help round
// before it accuses. And the assignment deadline (DESIGN.md §17): a backup
// holding a client's resend that no pre-prepare assigned runs one help
// round at T and accuses at 2T, whatever else executes.

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

// TestDeadPrimarySuspectedWithinTwoDeadlines: a crashed primary assigns
// nothing, so each backup holding the client's resend starts its view
// change exactly 2T after the resend reached it (T is the assignment
// deadline, a quarter of the view-change timeout), not one full timeout.
func TestDeadPrimarySuspectedWithinTwoDeadlines(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	deadline := g.replicas[0].assignDeadline()
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
	g.c.advance(seen + 2*deadline - time.Millisecond - g.c.now)
	for i := 1; i < 4; i++ {
		if n := g.replicas[i].Stats().ViewChanges; n != 0 {
			t.Fatalf("backup %d suspected the primary %v after the resend, before 2T (%v)", i, g.c.now-seen, 2*deadline)
		}
	}
	g.c.advance(time.Millisecond)
	for i := 1; i < 4; i++ {
		if n := g.replicas[i].Stats().ViewChanges; n == 0 {
			t.Fatalf("backup %d had not suspected the dead primary 2T (%v) after the resend", i, 2*deadline)
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

// requestClient returns the client of a request datagram; ok is false for
// anything else.
func requestClient(data []byte) (client int32, ok bool) {
	if len(data) == 0 || message.Type(data[0]) != message.TypeRequest {
		return 0, false
	}
	m, err := message.Unmarshal(data)
	if err != nil {
		return 0, false
	}
	return m.(*message.Request).Client, true
}

// signedRequest returns a request of client (key table tables[n+idx]) and
// its encoding, authenticated for every replica.
func (g *group) signedRequest(idx int, client int32, ts int64, replier int32, op []byte) []byte {
	suite := crypto.NewSuite(g.tables[g.n+idx], nil)
	req := &message.Request{Client: client, Timestamp: ts, Replier: replier, Op: op}
	d := req.ContentDigest(suite, new(message.Encoder))
	req.Auth = suite.Auth(g.n, d[:])
	return message.Marshal(new(message.Encoder), req)
}

// TestCensoringPrimaryDeposed: the primary orders client 5's requests and
// drops client 4's, sent to it directly or relayed. Client 5's progress
// restarts the view-change timer every few milliseconds, so only the
// assignment deadline on client 4's resend deposes the primary: within 2T
// of the resend reaching the backups. In "ahead" the primary also keeps a
// pre-prepare a window above the backups' execution, which must not pass
// for a full window.
func TestCensoringPrimaryDeposed(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testCensoringPrimaryDeposed(t, false) })
	t.Run("ahead", func(t *testing.T) { testCensoringPrimaryDeposed(t, true) })
}

func testCensoringPrimaryDeposed(t *testing.T, ahead bool) {
	g := buildGroup(t, 4, []int{4, 5, 6}, nil)
	deadline := g.replicas[0].assignDeadline()
	attacker := g.wrapFaulty(0, adversary.Censor)
	seen := time.Duration(-1)
	g.c.observe = func(src, dst int, data []byte) {
		if seen < 0 && src == 4 && dst != 0 {
			seen = g.c.now
		}
	}
	g.c.start()
	if ahead {
		// Sequence number 200 is a window above execution for the whole
		// test, and the primary's own batches never reach it.
		const seq = 200
		suite := crypto.NewSuite(g.tables[0], nil)
		raw := g.signedRequest(2, 6, 1, message.AllReplicas, opSet("c", "ahead"))
		req, _ := message.Unmarshal(raw)
		d := req.(*message.Request).ContentDigest(suite, new(message.Encoder))
		batch := message.BatchDigest(suite, new(message.Encoder), []crypto.Digest{d})
		pp := &message.PrePrepare{View: 0, Seq: seq, Refs: []message.RequestRef{{Inline: raw}}}
		pp.Auth = suite.Auth(g.n, message.OrderContentWithCommits(new(message.Encoder), 0, seq, batch, nil))
		for i := 1; i < 4; i++ {
			g.c.post(0, i, message.Marshal(new(message.Encoder), pp))
		}
		g.c.pump()
		for i := 1; i < 4; i++ {
			if got := g.replicas[i].maxKnownPP; got != seq {
				t.Fatalf("backup %d knows pre-prepares to %d; the test needs one at %d", i, got, seq)
			}
		}
	}
	done := 0
	g.invokeAsync(4, opSet("a", "censored"), false, &done)
	for seen < 0 || g.c.now < seen+2*deadline {
		if g.c.now > 5*time.Second {
			t.Fatal("client 4 never resent")
		}
		g.invoke(5, opAppend("b", "w"), false)
		g.c.advance(5 * time.Millisecond)
	}
	if attacker.Stats().Censored == 0 {
		t.Fatal("the primary censored nothing")
	}
	for i := 1; i < 4; i++ {
		if g.replicas[i].View() == 0 {
			t.Fatalf("backup %d still in view 0 %v after client 4's resend reached it; want a view change by 2T (%v)",
				i, g.c.now-seen, 2*deadline)
		}
	}
	g.c.run(func() bool { return done == 1 }, 5*time.Second, "client 4's op in the new view")
	g.agreeState(1, 2, 3)
}

// TestReusedTimestampNotSuspicious: a faulty client sends request A to the
// primary and a different request B with the same timestamp, resent and
// too large to relay, to the backups. A executes; the primary drops B as
// old when a backup's help round sends it. Each backup forgets B at its
// first deadline expiry instead of accusing the primary at 2T, and the
// group idles afterwards without a view change.
func TestReusedTimestampNotSuspicious(t *testing.T) {
	g := buildGroup(t, 4, []int{100, 101}, nil)
	g.c.start()
	g.invoke(101, opSet("b", "0"), false)

	rawA := g.signedRequest(0, 100, 1, 0, opSet("a", "A"))
	rawB := g.signedRequest(0, 100, 1, message.AllReplicas, bigOp("a"))
	g.c.post(100, 0, rawA)
	for i := 1; i < 4; i++ {
		g.c.post(100, i, rawB)
	}
	end := g.c.now + 4*g.replicas[0].assignDeadline()
	for g.c.now < end {
		g.invoke(101, opAppend("b", "w"), false)
		g.c.advance(5 * time.Millisecond)
	}
	for i := 1; i < 4; i++ {
		if r := g.replicas[i]; len(r.reqBuffer) != 0 {
			t.Fatalf("backup %d still holds %d requests after the client's A executed", i, len(r.reqBuffer))
		}
	}
	g.c.advance(3 * g.replicas[0].cfg.ViewChangeTimeout)
	for i, r := range g.replicas {
		if n := r.Stats().ViewChanges; n != 0 {
			t.Fatalf("replica %d started %d view changes over a faulty client's reused timestamp", i, n)
		}
	}
	if got := g.sms[1].data["a"]; got != "A" {
		t.Fatalf("a = %q at replica 1, want the primary's request A", got)
	}
	g.agreeState()
}

// TestLostResendHelped: the primary loses client 100's request, its resend
// and each backup's relay of it. At age T each backup's help round sends
// the request to the primary again, and the primary orders it: no view
// change.
func TestLostResendHelped(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	lose := false
	relayLost := map[int]bool{}
	g.c.drop = func(src, dst int, data []byte) bool {
		if _, ok := requestClient(data); !ok || !lose || dst != 0 {
			return false
		}
		if src == 100 {
			return true
		}
		if relayLost[src] {
			return false
		}
		relayLost[src] = true
		return true
	}
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)

	lose = true
	done := 0
	g.invokeAsync(100, opSet("a", "2"), false, &done)
	g.c.run(func() bool { return done == 1 }, 5*time.Second, "the op whose resend was lost")
	if len(relayLost) != 3 {
		t.Fatalf("relays lost from %v; want every backup's", relayLost)
	}
	g.c.advance(2 * g.replicas[0].cfg.ViewChangeTimeout)
	for i, r := range g.replicas {
		if n := r.Stats().ViewChanges; n != 0 {
			t.Fatalf("replica %d started %d view changes over a lost resend", i, n)
		}
	}
	g.agreeState()
}

// TestSaturatedWindowNotSuspicious: with a window of one batch whose
// prepares are lost, the primary cannot assign client 101's request, and
// the client resends it to the backups. They hold the resend unassigned
// for longer than 2T, but the primary's window is full, so the deadline
// starts over instead of accusing; the view-change timer's help round
// recovers the lost prepares and both operations complete.
func TestSaturatedWindowNotSuspicious(t *testing.T) {
	g := buildGroup(t, 4, []int{100, 101}, func(c *Config) {
		c.Window = 1
		c.ViewChangeTimeout = 400 * time.Millisecond // T = 100 ms: the client resends after 150
	})
	deadline := g.replicas[0].assignDeadline()
	stall := false
	g.c.drop = func(src, dst int, data []byte) bool {
		return stall && len(data) > 0 && message.Type(data[0]) == message.TypePrepare
	}
	seen := time.Duration(-1)
	g.c.observe = func(src, dst int, data []byte) {
		if seen < 0 && stall && src == 101 && dst != 0 {
			seen = g.c.now
		}
	}
	g.c.start()
	g.invoke(100, opSet("a", "0"), false)
	g.invoke(101, opSet("b", "0"), false)

	stall = true
	start := g.c.now
	done := 0
	g.invokeAsync(100, opSet("a", "1"), false, &done) // fills the window
	g.invokeAsync(101, opSet("b", "1"), false, &done) // queued behind it
	// The view-change timer, armed by the stalled pre-prepare, runs its
	// help round at 400 ms; lift the stall just before.
	g.c.advance(start + 380*time.Millisecond - g.c.now)
	if seen < 0 || g.c.now-seen < 2*deadline {
		t.Fatalf("client 101's resend held %v at the backups; the test needs more than 2T (%v)", g.c.now-seen, 2*deadline)
	}
	for i := 1; i < 4; i++ {
		if g.replicas[i].oldestResend() == nil {
			t.Fatalf("backup %d holds no unassigned resend while the window is full", i)
		}
	}
	stall = false
	g.c.run(func() bool { return done == 2 }, 5*time.Second, "both ops after the stall")
	for i, r := range g.replicas {
		if n := r.Stats().ViewChanges; n != 0 {
			t.Fatalf("replica %d started %d view changes while the primary's window was full", i, n)
		}
	}
	g.agreeState()
}

// TestLaggingBackupDeadlineWaits: backup 3 is cut off from ordering
// traffic and holds client 101's resend of a request the group already
// executed. A quorum checkpoint above its committed frontier says it is
// behind, so its assignment deadline starts over instead of accusing, and
// the state transfer the next checkpoint starts answers the request.
func TestLaggingBackupDeadlineWaits(t *testing.T) {
	g := buildGroup(t, 4, []int{100, 101}, func(c *Config) {
		c.CheckpointInterval = 16
		c.LogWindow = 32
		c.StatusInterval = 10 * time.Second // no status tick inside the test
		c.Opts.DigestReplies = false        // no op waits for replica 3's full reply
	})
	deadline := g.replicas[0].assignDeadline()
	cut, muteUntil := false, time.Duration(0)
	g.c.drop = func(src, dst int, data []byte) bool {
		return cut && dst == 3 && isOrdering(data) || dst == 101 && g.c.now < muteUntil
	}
	seen := time.Duration(-1)
	g.c.observe = func(src, dst int, data []byte) {
		if seen < 0 && cut && src == 101 && dst == 3 {
			seen = g.c.now
		}
	}
	g.c.start()
	for g.replicas[3].LastExecuted() < 17 {
		g.invoke(100, opAppend("k", "w"), false)
	}

	// Client 101's op executes without replica 3 and its replies are lost,
	// so the client resends it; client 100 takes the group to checkpoint
	// 32, which replica 3 cannot reach by a state transfer yet.
	cut, muteUntil = true, g.c.now+100*time.Millisecond
	done := 0
	g.invokeAsync(101, opSet("a", "1"), false, &done)
	for g.replicas[0].LastExecuted() < 32 {
		g.invoke(100, opAppend("k", "w"), false)
	}
	g.c.run(func() bool { return seen >= 0 && done == 1 }, 5*time.Second, "client 101's resend and its op")
	r3 := g.replicas[3]
	if r3.knownStable <= r3.lastCommittedExec || r3.oldestResend() == nil {
		t.Fatalf("replica 3 at %d, quorum checkpoint %d, holding a resend: %v; the test needs it behind and holding one",
			r3.lastCommittedExec, r3.knownStable, r3.oldestResend() != nil)
	}
	g.c.advance(seen + 2*deadline + 10*time.Millisecond - g.c.now)
	if n := r3.Stats().ViewChanges; n != 0 {
		t.Fatalf("lagging replica 3 started %d view changes over a request the group executed", n)
	}

	for g.replicas[0].LastExecuted() < 48 {
		g.invoke(100, opAppend("k", "w"), false)
	}
	if r3.LastExecuted() < 48 || r3.oldestResend() != nil {
		t.Fatalf("replica 3 at %d after checkpoint 48, holding a resend: %v; want a state transfer that answers it",
			r3.LastExecuted(), r3.oldestResend() != nil)
	}
	cut = false
	g.c.advance(2 * g.replicas[0].cfg.ViewChangeTimeout)
	for i, r := range g.replicas {
		if n := r.Stats().ViewChanges; n != 0 {
			t.Fatalf("replica %d started %d view changes; a lagging backup's primary is not faulty", i, n)
		}
	}
}

// TestNewViewRestartsAssignmentDeadline: client 100's requests never reach
// replicas 0 and 1. Backups 2 and 3 depose primary 0 at 2T; primary 1 does
// not hold the request either, and entering view 1 restarts the deadline,
// so they depose primary 1 exactly 2T after the new view, not at once.
func TestNewViewRestartsAssignmentDeadline(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	deadline := g.replicas[0].assignDeadline()
	lose := false
	g.c.drop = func(src, dst int, data []byte) bool {
		client, ok := requestClient(data)
		return ok && lose && client == 100 && dst <= 1
	}
	seen := time.Duration(-1)
	g.c.observe = func(src, dst int, data []byte) {
		if seen < 0 && lose && src == 100 {
			seen = g.c.now
		}
	}
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)

	lose = true
	done := 0
	g.invokeAsync(100, opSet("a", "2"), false, &done)
	g.c.run(func() bool { return seen >= 0 }, 5*time.Second, "the client's resend reaching backups 2 and 3")
	g.c.advance(seen + 2*deadline - g.c.now)
	for i, r := range g.replicas {
		if r.View() != 1 || r.inViewChange {
			t.Fatalf("replica %d in view %d (changing: %v) at 2T; want view 1 installed", i, r.View(), r.inViewChange)
		}
	}
	g.c.advance(2*deadline - time.Millisecond)
	for i := 2; i < 4; i++ {
		if v := g.replicas[i].View(); v != 1 {
			t.Fatalf("backup %d moved to view %d less than 2T after view 1; its deadline did not restart", i, v)
		}
	}
	g.c.advance(time.Millisecond)
	for i := 2; i < 4; i++ {
		if v := g.replicas[i].View(); v != 2 {
			t.Fatalf("backup %d in view %d 2T after view 1; want view 2", i, v)
		}
	}
	g.c.run(func() bool { return done == 1 }, 5*time.Second, "the op in view 2")
}
