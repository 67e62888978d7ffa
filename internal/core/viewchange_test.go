package core

import (
	"fmt"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// crash makes the cluster drop every message to and from a node.
func (g *group) crash(node int) {
	prev := g.c.drop
	g.c.drop = func(src, dst int, data []byte) bool {
		if src == node || dst == node {
			return true
		}
		return prev != nil && prev(src, dst, data)
	}
}

func TestViewChangeOnPrimaryCrash(t *testing.T) { commitModes(t, testViewChangeOnPrimaryCrash) }

func testViewChangeOnPrimaryCrash(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, piggyback(pb))
	g.c.start()
	if res := g.invoke(100, opSet("a", "1"), false); string(res) != "ok" {
		t.Fatalf("warmup failed: %q", res)
	}

	g.crash(0) // the view-0 primary goes silent
	res := g.invoke(100, opSet("b", "2"), false)
	if string(res) != "ok" {
		t.Fatalf("op after primary crash failed: %q", res)
	}
	for _, i := range []int{1, 2, 3} {
		if v := g.replicas[i].View(); v < 1 {
			t.Fatalf("replica %d still in view %d after primary crash", i, v)
		}
		if got := g.sms[i].data["b"]; got != "2" {
			t.Fatalf("replica %d missing post-view-change write", i)
		}
	}
	g.agreeState(1, 2, 3)
}

func TestViewChangePreservesCommittedState(t *testing.T) {
	commitModes(t, testViewChangePreservesCommittedState)
}

func testViewChangePreservesCommittedState(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, piggyback(pb))
	g.c.start()
	for i := 0; i < 10; i++ {
		g.invoke(100, opAppend("log", fmt.Sprintf("%d,", i)), false)
	}
	g.crash(0)
	for i := 10; i < 15; i++ {
		g.invoke(100, opAppend("log", fmt.Sprintf("%d,", i)), false)
	}
	want := ""
	for i := 0; i < 15; i++ {
		want += fmt.Sprintf("%d,", i)
	}
	for _, i := range []int{1, 2, 3} {
		if got := g.sms[i].data["log"]; got != want {
			t.Fatalf("replica %d log = %q, want %q (history corrupted by view change)", i, got, want)
		}
		if g.sms[i].applied != 15 {
			t.Fatalf("replica %d applied %d ops, want 15", i, g.sms[i].applied)
		}
	}
	g.agreeState(1, 2, 3)
}

func TestConsecutiveViewChanges(t *testing.T) { commitModes(t, testConsecutiveViewChanges) }

func testConsecutiveViewChanges(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, piggyback(pb))
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)

	// Crash the view-0 primary outright and muzzle replica 1's
	// pre-prepares: view 1 elects it but it cannot order anything, so the
	// group must push on to view 2 (primary 2). Replica 1 keeps
	// participating in view changes, preserving the 2f+1 quorum.
	g.c.drop = func(src, dst int, data []byte) bool {
		if src == 0 || dst == 0 {
			return true
		}
		if src == 1 && len(data) > 0 && message.Type(data[0]) == message.TypePrePrepare {
			return true
		}
		return false
	}
	res := g.invoke(100, opSet("b", "2"), false)
	if string(res) != "ok" {
		t.Fatalf("op after double crash failed: %q", res)
	}
	for _, i := range []int{2, 3} {
		if v := g.replicas[i].View(); v < 2 {
			t.Fatalf("replica %d view = %d, want >= 2", i, v)
		}
	}
	g.agreeState(2, 3)
}

func TestViewChangeTimerNotTriggeredWhenIdle(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)
	g.c.advance(5 * time.Second) // idle: no requests pending anywhere
	for i, r := range g.replicas {
		if r.View() != 0 {
			t.Fatalf("replica %d moved to view %d while idle", i, r.View())
		}
		if r.Stats().ViewChanges != 0 {
			t.Fatalf("replica %d started %d view changes while idle", i, r.Stats().ViewChanges)
		}
	}
}

// TestEquivocatingPrimarySafety drives the protocol manually from a
// Byzantine primary that assigns the same sequence number to different
// requests at different backups. No two correct replicas may execute
// different operations at the same sequence number.
func TestEquivocatingPrimarySafety(t *testing.T) {
	c := newCluster(t)
	rng := newTestRand()
	const n = 4
	tables := make([]*crypto.KeyTable, 0, n+1)
	for i := 0; i < n; i++ {
		tables = append(tables, crypto.NewKeyTable(i))
	}
	clientTable := crypto.NewKeyTable(100)
	tables = append(tables, clientTable)
	if err := crypto.ProvisionAll(rng, tables); err != nil {
		t.Fatal(err)
	}

	// Replicas 1..3 are correct; replica 0 (the primary) is played by the
	// test using its real key table.
	replicas := make([]*Replica, n)
	sms := make([]*kvSM, n)
	for i := 1; i < n; i++ {
		cfg := DefaultConfig(n, i)
		cfg.ViewChangeTimeout = 200 * time.Millisecond
		sms[i] = newKVSM()
		rep, err := NewReplica(cfg, sms[i], tables[i], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = rep
		c.add(i, rep)
	}
	c.start()

	evilSuite := crypto.NewSuite(tables[0], nil)
	clientSuite := crypto.NewSuite(clientTable, nil)

	makeReq := func(val string, ts int64) (*message.Request, []byte, crypto.Digest) {
		req := &message.Request{Client: 100, Timestamp: ts, Replier: message.AllReplicas, Op: opSet("k", val)}
		d := req.ContentDigest(clientSuite, new(message.Encoder))
		req.Auth = clientSuite.Auth(n, d[:])
		return req, message.Marshal(new(message.Encoder), req), d
	}
	_, rawA, dA := makeReq("A", 1)
	_, rawB, dB := makeReq("B", 1)

	makePP := func(raw []byte, d crypto.Digest) []byte {
		batch := message.BatchDigest(evilSuite, new(message.Encoder), []crypto.Digest{d})
		pp := &message.PrePrepare{View: 0, Seq: 1, Refs: []message.RequestRef{{Inline: raw}}}
		pp.Auth = evilSuite.Auth(n, message.OrderContentWithCommits(new(message.Encoder), 0, 1, batch, nil))
		return message.Marshal(new(message.Encoder), pp)
	}
	// Backup 1 sees request A at seq 1; backups 2 and 3 see request B.
	c.post(0, 1, makePP(rawA, dA))
	c.post(0, 2, makePP(rawB, dB))
	c.post(0, 3, makePP(rawB, dB))
	c.pump()
	c.advance(5 * time.Second)

	// Safety: correct replicas never diverge on executed state.
	values := map[string]bool{}
	for i := 1; i < n; i++ {
		if sms[i].applied > 0 {
			values[sms[i].data["k"]] = true
		}
	}
	if len(values) > 1 {
		t.Fatalf("correct replicas executed conflicting requests at the same sequence number: %v", values)
	}
	// B can commit (two backups prepared it); A must not.
	if valuesHas(values, "A") {
		t.Fatal("minority request executed")
	}
}

func valuesHas(m map[string]bool, k string) bool { return m[k] }

func TestStateTransferCatchesUpPartitionedReplica(t *testing.T) {
	commitModes(t, testStateTransferCatchesUpPartitionedReplica)
}

func testStateTransferCatchesUpPartitionedReplica(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.Opts.PiggybackCommits = pb
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	g.c.start()
	// Partition replica 3, run far past the log window so the others
	// garbage collect everything replica 3 would need to replay.
	g.crash(3)
	for i := 0; i < 30; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	if g.replicas[3].LastExecuted() != 0 {
		t.Fatal("partitioned replica executed something")
	}
	// Heal the partition; status + checkpoint traffic must drive a state
	// transfer followed by ordinary retransmission for the tail.
	g.c.drop = nil
	target := g.replicas[1].LastExecuted()
	g.c.run(func() bool {
		return g.replicas[3].LastExecuted() >= target
	}, 30*time.Second, "state transfer completion")

	if g.replicas[3].Stats().StateTransfers == 0 {
		t.Fatal("replica 3 caught up without a state transfer (log should have been GCed)")
	}
	if got, want := g.sms[3].data["k"], g.sms[1].data["k"]; got != want {
		t.Fatalf("restored state mismatch: %q vs %q", got, want)
	}
	// And it keeps participating afterwards.
	g.invoke(100, opAppend("k", "y"), false)
	g.c.run(func() bool {
		return g.replicas[3].LastExecuted() == g.replicas[1].LastExecuted()
	}, 10*time.Second, "replica 3 back in rotation")
	g.agreeState()
}

func TestKeyRotationKeepsServiceLive(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.KeyRotationInterval = 120 * time.Millisecond
	})
	g.c.start()
	for i := 0; i < 10; i++ {
		if res := g.invoke(100, opAppend("k", "x"), false); string(res) == "err" {
			t.Fatalf("op %d failed", i)
		}
		g.c.advance(60 * time.Millisecond) // let rotations interleave
	}
	g.agreeState()
	if g.sms[0].data["k"] != "xxxxxxxxxx" {
		t.Fatalf("state = %q, want 10 x's", g.sms[0].data["k"])
	}
}

func TestProactiveRecoveryRejoins(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	g.invoke(100, opSet("a", "1"), false)
	// Replica 2 proactively recovers: session keys rotate, peers answer
	// with status, and the service keeps running.
	g.replicas[2].ScheduleRecovery(50 * time.Millisecond)
	g.c.advance(200 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if res := g.invoke(100, opAppend("a", "+"), false); string(res) == "err" {
			t.Fatalf("op %d after recovery failed", i)
		}
	}
	g.c.run(func() bool {
		return g.replicas[2].LastExecuted() == g.replicas[1].LastExecuted()
	}, 10*time.Second, "recovered replica caught up")
	g.agreeState()
}

// TestFaultyBackupCannotStall checks that a silent backup (f = 1) does not
// impede progress: quorums of 3 suffice in a group of 4.
func TestFaultyBackupCannotStall(t *testing.T) { commitModes(t, testFaultyBackupCannotStall) }

func testFaultyBackupCannotStall(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, piggyback(pb))
	g.c.start()
	g.crash(2) // backup, not the primary
	for i := 0; i < 8; i++ {
		if res := g.invoke(100, opAppend("k", "x"), false); string(res) == "err" {
			t.Fatalf("op %d failed with one silent backup", i)
		}
	}
	g.agreeState(0, 1, 3)
	if g.replicas[0].View() != 0 {
		t.Fatalf("view changed (%d) despite healthy primary", g.replicas[0].View())
	}
}

// TestSevenReplicasToleratesTwoFaults exercises the f=2 configuration used
// in the paper's Figure 3.
func TestSevenReplicasToleratesTwoFaults(t *testing.T) {
	g := buildGroup(t, 7, []int{100}, nil)
	g.c.start()
	g.crash(5)
	g.crash(6)
	for i := 0; i < 5; i++ {
		if res := g.invoke(100, opAppend("k", "x"), false); string(res) == "err" {
			t.Fatalf("op %d failed with two silent backups (f=2)", i)
		}
	}
	g.agreeState(0, 1, 2, 3, 4)
}

func TestViewChangeWithTentativeRollback(t *testing.T) {
	commitModes(t, testViewChangeWithTentativeRollback)
}

func testViewChangeWithTentativeRollback(t *testing.T, pb bool) {
	// Force a scenario where a tentatively executed batch must be rolled
	// back: the client's request prepares at the primary's partition only.
	g := buildGroup(t, 4, []int{100}, piggyback(pb))
	g.c.start()
	for i := 0; i < 6; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	// Cut replica 0 (primary) off after it can send pre-prepares but
	// before commits circulate widely: simplest approximation is to crash
	// it mid-stream and let the view change handle whatever was in flight.
	g.crash(0)
	done := 0
	g.invokeAsync(100, opAppend("k", "y"), false, &done)
	g.c.run(func() bool { return done == 1 }, 20*time.Second, "op across view change")
	g.agreeState(1, 2, 3)
	if got := g.sms[1].data["k"]; got != "xxxxxxy" {
		t.Fatalf("state = %q, want xxxxxxy", got)
	}
}

// periodicRecovery re-arms its replica's recovery after every firing, as a
// deployment's watchdog calling ScheduleRecovery would.
type periodicRecovery struct {
	*Replica
	every time.Duration
}

func (p periodicRecovery) OnTimer(key int) {
	p.Replica.OnTimer(key)
	if key == timerRecovery {
		p.ScheduleRecovery(p.every)
	}
}

func TestPeriodicProactiveRecoveryKeepsServiceLive(t *testing.T) {
	const every = 300 * time.Millisecond
	g := buildGroup(t, 4, []int{100}, nil)
	for i, r := range g.replicas {
		g.c.handlers[i] = periodicRecovery{r, every}
	}
	g.c.start()
	// Stagger the first firing by the replica id so the group never
	// recovers more than one replica at a time.
	for i, r := range g.replicas {
		r.ScheduleRecovery(every + every/time.Duration(g.n)*time.Duration(i))
	}
	// Run long enough for every replica to recover at least twice while a
	// client keeps the service busy.
	for i := 0; i < 12; i++ {
		if res := g.invoke(100, opAppend("k", "x"), false); string(res) == "err" {
			t.Fatalf("op %d failed during periodic recovery", i)
		}
		g.c.advance(200 * time.Millisecond)
	}
	g.c.advance(2 * time.Second)
	g.agreeState()
	if got := g.sms[0].data["k"]; len(got) != 12 {
		t.Fatalf("state has %d appends, want 12", len(got))
	}
}

// TestTraceViewChange asserts every correct replica's trace brackets a
// primary failure with view-change start/completion events carrying the
// views involved.
func TestTraceViewChange(t *testing.T) {
	g, recs := tracedGroup(t, 4, []int{100}, nil)
	g.c.start()
	if res := g.invoke(100, opSet("a", "1"), false); string(res) != "ok" {
		t.Fatalf("warmup failed: %q", res)
	}
	g.crash(0)
	if res := g.invoke(100, opSet("b", "2"), false); string(res) != "ok" {
		t.Fatalf("op after primary crash failed: %q", res)
	}
	for _, i := range []int{1, 2, 3} {
		evts := recs[i].Events(nil)
		si := eventIndex(evts, obs.EvViewChangeStart)
		di := eventIndex(evts, obs.EvViewChangeDone)
		if si < 0 || di < 0 {
			t.Fatalf("replica %d trace missing view-change events (start %d, done %d)", i, si, di)
		}
		if di < si {
			t.Fatalf("replica %d recorded view-change completion (index %d) before start (index %d)", i, di, si)
		}
		if v := evts[si].Aux; v < 1 {
			t.Errorf("replica %d EvViewChangeStart targets view %d, want >= 1", i, v)
		}
		if v := evts[di].Aux; v < 1 {
			t.Errorf("replica %d EvViewChangeDone entered view %d, want >= 1", i, v)
		}
		if evts[di].At < evts[si].At {
			t.Errorf("replica %d view-change done at %v before start at %v", i, evts[di].At, evts[si].At)
		}
	}
}
