package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bftfast/internal/message"
	"bftfast/internal/obs"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"too few replicas", func(c *Config) { c.N = 3 }, false},
		{"self out of range", func(c *Config) { c.Self = 4 }, false},
		{"negative self", func(c *Config) { c.Self = -1 }, false},
		{"zero checkpoint interval", func(c *Config) { c.CheckpointInterval = 0 }, false},
		{"log window too small", func(c *Config) { c.LogWindow = c.CheckpointInterval }, false},
		{"zero window", func(c *Config) { c.Window = 0 }, false},
		{"zero batch bytes", func(c *Config) { c.MaxBatchBytes = 0 }, false},
		{"zero timeout", func(c *Config) { c.ViewChangeTimeout = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 0)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestPrimaryRotation(t *testing.T) {
	cfg := DefaultConfig(4, 0)
	for view, want := range map[int64]int{0: 0, 1: 1, 3: 3, 4: 0, 7: 3, 8: 0} {
		if got := cfg.PrimaryOf(view); got != want {
			t.Fatalf("PrimaryOf(%d) = %d, want %d", view, got, want)
		}
	}
	if cfg.F() != 1 || cfg.Quorum() != 3 {
		t.Fatalf("F=%d Quorum=%d, want 1 and 3", cfg.F(), cfg.Quorum())
	}
	cfg7 := DefaultConfig(7, 0)
	if cfg7.F() != 2 || cfg7.Quorum() != 5 {
		t.Fatalf("7 replicas: F=%d Quorum=%d, want 2 and 5", cfg7.F(), cfg7.Quorum())
	}
}

func TestSingleOperationCommits(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	res := g.invoke(100, opSet("a", "1"), false)
	if string(res) != "ok" {
		t.Fatalf("result = %q, want ok", res)
	}
	// Every replica executed the operation and agrees on state.
	for i, sm := range g.sms {
		if sm.data["a"] != "1" {
			t.Fatalf("replica %d did not apply the operation", i)
		}
	}
	g.agreeState()
}

func TestSequentialOperations(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	for i := 0; i < 30; i++ {
		res := g.invoke(100, opAppend("log", fmt.Sprintf("%d,", i)), false)
		if len(res) == 0 || string(res) == "err" {
			t.Fatalf("op %d failed: %q", i, res)
		}
	}
	want := ""
	for i := 0; i < 30; i++ {
		want += fmt.Sprintf("%d,", i)
	}
	for i, sm := range g.sms {
		if sm.data["log"] != want {
			t.Fatalf("replica %d log = %q, want %q", i, sm.data["log"], want)
		}
		if sm.applied != 30 {
			t.Fatalf("replica %d applied %d mutations, want 30 (at-most-once violated?)", i, sm.applied)
		}
	}
	g.agreeState()
}

func TestReadOnlyFastPath(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	g.invoke(100, opSet("k", "v"), false)

	before := make([]int64, 4)
	for i, r := range g.replicas {
		before[i] = r.LastExecuted()
	}
	res := g.invoke(100, opGet("k"), true)
	if string(res) != "v" {
		t.Fatalf("read-only get = %q, want v", res)
	}
	roCount := 0
	for i, r := range g.replicas {
		if r.LastExecuted() != before[i] {
			t.Fatalf("read-only op consumed sequence numbers at replica %d", i)
		}
		roCount += int(r.Stats().ExecutedReadOnly)
	}
	if roCount < 3 {
		t.Fatalf("only %d replicas executed the read-only op, want >= 2f+1 = 3", roCount)
	}
}

func TestReadOnlyDisabledFallsBackToOrdering(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) { c.Opts.ReadOnly = false })
	g.c.start()
	g.invoke(100, opSet("k", "v"), false)
	res := g.invoke(100, opGet("k"), true)
	if string(res) != "v" {
		t.Fatalf("get = %q, want v", res)
	}
	for i, r := range g.replicas {
		if r.Stats().ExecutedReadOnly != 0 {
			t.Fatalf("replica %d used the read-only path while disabled", i)
		}
		if r.LastExecuted() < 2 {
			t.Fatalf("replica %d: read was not ordered", i)
		}
	}
}

func TestMultipleClients(t *testing.T) {
	clientIDs := []int{100, 101, 102, 103, 104}
	g := buildGroup(t, 4, clientIDs, nil)
	g.c.start()
	done := 0
	for round := 0; round < 5; round++ {
		for _, id := range clientIDs {
			id := id
			g.invokeAsync(id, opAppend("k"+fmt.Sprint(id), "x"), false, &done)
		}
	}
	g.c.run(func() bool { return done == 25 }, 20*time.Second, "all client ops")
	for _, id := range clientIDs {
		want := "xxxxx"
		if got := g.sms[0].data["k"+fmt.Sprint(id)]; got != want {
			t.Fatalf("client %d key = %q, want %q", id, got, want)
		}
	}
	g.agreeState()
}

func TestBatchingAmortizesProtocol(t *testing.T) {
	clientIDs := []int{100, 101, 102, 103, 104, 105, 106, 107}
	g := buildGroup(t, 4, clientIDs, func(c *Config) { c.Window = 1 })
	g.c.start()
	done := 0
	for round := 0; round < 4; round++ {
		for _, id := range clientIDs {
			g.invokeAsync(id, opAppend("x", "y"), false, &done)
		}
	}
	g.c.run(func() bool { return done == 32 }, 20*time.Second, "batched ops")
	st := g.replicas[0].Stats()
	if st.ExecutedRequests != 32 {
		t.Fatalf("executed %d requests, want 32", st.ExecutedRequests)
	}
	if st.ExecutedBatches >= st.ExecutedRequests {
		t.Fatalf("batches (%d) not fewer than requests (%d): batching ineffective",
			st.ExecutedBatches, st.ExecutedRequests)
	}
	g.agreeState()
}

func TestNoBatchingOneRequestPerBatch(t *testing.T) {
	clientIDs := []int{100, 101, 102}
	g := buildGroup(t, 4, clientIDs, func(c *Config) { c.Opts.Batching = false })
	g.c.start()
	done := 0
	for round := 0; round < 3; round++ {
		for _, id := range clientIDs {
			g.invokeAsync(id, opAppend("x", "y"), false, &done)
		}
	}
	g.c.run(func() bool { return done == 9 }, 20*time.Second, "unbatched ops")
	st := g.replicas[0].Stats()
	if st.ExecutedBatches != st.ExecutedRequests {
		t.Fatalf("batches=%d requests=%d; want one request per batch",
			st.ExecutedBatches, st.ExecutedRequests)
	}
}

func TestSeparateRequestTransmission(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	bigBody := 0
	digestRef := 0
	g.c.observe = func(src, dst int, data []byte) {
		m, err := message.Unmarshal(data)
		if err != nil {
			return
		}
		pp, ok := m.(*message.PrePrepare)
		if !ok {
			return
		}
		for _, ref := range pp.Refs {
			if ref.Inline != nil && len(ref.Inline) > 255 {
				bigBody++
			}
			if ref.Inline == nil {
				digestRef++
			}
		}
	}
	g.c.start()
	large := bytes.Repeat([]byte("v"), 2000)
	res := g.invoke(100, opSet("big", string(large)), false)
	if string(res) != "ok" {
		t.Fatalf("large op failed: %q", res)
	}
	if bigBody != 0 {
		t.Fatalf("%d oversized bodies were inlined in pre-prepares despite SRT", bigBody)
	}
	if digestRef == 0 {
		t.Fatal("no digest references observed; SRT not exercised")
	}
	if got := g.sms[2].data["big"]; got != string(large) {
		t.Fatal("large value not replicated correctly")
	}
}

// TestLateBodyFillsAssignedSlot: a separately transmitted body that
// reaches a backup after the pre-prepare assigning it fills the slot at
// once, and the backup fetches nothing.
func TestLateBodyFillsAssignedSlot(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	var late []byte
	fetches := 0
	g.c.sent = func(src, dst int, data []byte) {
		if src == 1 && len(data) > 0 && message.Type(data[0]) == message.TypeFetch {
			fetches++
		}
	}
	g.c.drop = func(src, dst int, data []byte) bool {
		if late == nil && src == 100 && dst == 1 {
			late = append([]byte(nil), data...)
			return true
		}
		return false
	}
	g.c.start()
	done := 0
	g.invokeAsync(100, opSet("big", string(bytes.Repeat([]byte("v"), 400))), false, &done)
	g.c.pump()
	r := g.replicas[1]
	s := r.log[r.maxKnownPP]
	if late == nil || s == nil || !s.havePP || s.missing != 1 {
		t.Fatal("replica 1 holds no pre-prepare waiting for the withheld body")
	}
	g.c.post(100, 1, late)
	g.c.pump()
	if s.missing != 0 || !s.sentPrepare {
		t.Fatalf("the late body left the slot unresolved (missing %d, prepared %v)", s.missing, s.sentPrepare)
	}
	g.c.run(func() bool { return done == 1 }, 5*time.Second, "the op")
	g.c.advance(g.replicas[0].cfg.StatusInterval)
	if fetches != 0 {
		t.Fatalf("replica 1 sent %d fetches for a body it received", fetches)
	}
	g.agreeState()
}

func TestSRTDisabledInlinesEverything(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.Opts.SeparateRequests = false
		c.MaxBatchBytes = 1 << 20
	})
	digestRef := 0
	g.c.observe = func(src, dst int, data []byte) {
		if m, err := message.Unmarshal(data); err == nil {
			if pp, ok := m.(*message.PrePrepare); ok {
				for _, ref := range pp.Refs {
					if ref.Inline == nil {
						digestRef++
					}
				}
			}
		}
	}
	g.c.start()
	large := bytes.Repeat([]byte("v"), 2000)
	if res := g.invoke(100, opSet("big", string(large)), false); string(res) != "ok" {
		t.Fatalf("large op failed: %q", res)
	}
	if digestRef != 0 {
		t.Fatal("digest references observed with SRT disabled")
	}
}

func TestDigestRepliesOnlyOneFullResult(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	full, digest := 0, 0
	g.c.observe = func(src, dst int, data []byte) {
		if dst != 100 {
			return
		}
		if m, err := message.Unmarshal(data); err == nil {
			if rep, ok := m.(*message.Reply); ok {
				if rep.Full {
					full++
				} else {
					digest++
				}
			}
		}
	}
	g.c.start()
	// A large result makes the distinction meaningful.
	g.invoke(100, opSet("k", string(bytes.Repeat([]byte("r"), 4096))), false)
	full, digest = 0, 0
	if res := g.invoke(100, opGet("k"), true); len(res) != 4096 {
		t.Fatalf("got %d bytes, want 4096", len(res))
	}
	if full != 1 {
		t.Fatalf("%d full replies, want exactly 1 (digest replies)", full)
	}
	if digest < 2 {
		t.Fatalf("%d digest replies, want >= 2", digest)
	}
}

func TestDigestRepliesDisabledAllFull(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) { c.Opts.DigestReplies = false })
	full := 0
	g.c.observe = func(src, dst int, data []byte) {
		if dst != 100 {
			return
		}
		if m, err := message.Unmarshal(data); err == nil {
			if rep, ok := m.(*message.Reply); ok && rep.Full {
				full++
			}
		}
	}
	g.c.start()
	if res := g.invoke(100, opSet("k", "v"), false); string(res) != "ok" {
		t.Fatalf("op failed: %q", res)
	}
	if full < 3 {
		t.Fatalf("%d full replies, want >= 3 without digest replies", full)
	}
}

func TestTentativeExecutionRepliesEarly(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	tentative := 0
	g.c.observe = func(src, dst int, data []byte) {
		if dst != 100 {
			return
		}
		if m, err := message.Unmarshal(data); err == nil {
			if rep, ok := m.(*message.Reply); ok && rep.Tentative {
				tentative++
			}
		}
	}
	g.c.start()
	g.invoke(100, opSet("k", "v"), false)
	if tentative == 0 {
		t.Fatal("no tentative replies observed with tentative execution on")
	}
	g.agreeState()
}

// TestStoredReplyDefinitiveAfterCommit: a replica stores the reply of a
// tentatively executed request as tentative; once the batch commits, a
// resend of the request is answered with a definitive reply.
func TestStoredReplyDefinitiveAfterCommit(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	var req []byte
	g.c.sent = func(src, dst int, data []byte) {
		if req == nil && src == 100 {
			req = append([]byte(nil), data...)
		}
	}
	tentative := map[int]bool{}
	g.c.observe = func(src, dst int, data []byte) {
		if m, err := message.Unmarshal(data); err == nil && dst == 100 {
			if rep, ok := m.(*message.Reply); ok {
				tentative[src] = rep.Tentative
			}
		}
	}
	g.c.start()
	g.invoke(100, opSet("k", "v"), false)
	if !tentative[0] {
		t.Fatal("the primary's first reply was not tentative; nothing to upgrade")
	}
	for i, r := range g.replicas {
		if r.lastCommittedExec != r.lastExec {
			t.Fatalf("replica %d committed %d of %d", i, r.lastCommittedExec, r.lastExec)
		}
	}
	clear(tentative)
	for i := range g.replicas {
		g.c.post(100, i, req)
	}
	g.c.pump()
	if len(tentative) != len(g.replicas) {
		t.Fatalf("%d replicas answered the resend, want %d", len(tentative), len(g.replicas))
	}
	for i, tent := range tentative {
		if tent {
			t.Fatalf("replica %d answered a committed request's resend tentatively", i)
		}
	}
}

func TestTentativeDisabledNoTentativeReplies(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) { c.Opts.TentativeExecution = false })
	tentative := 0
	g.c.observe = func(src, dst int, data []byte) {
		if m, err := message.Unmarshal(data); err == nil {
			if rep, ok := m.(*message.Reply); ok && rep.Tentative {
				tentative++
			}
		}
	}
	g.c.start()
	g.invoke(100, opSet("k", "v"), false)
	if tentative != 0 {
		t.Fatalf("%d tentative replies observed with tentative execution off", tentative)
	}
}

func TestPiggybackCommitsReduceStandaloneCommits(t *testing.T) {
	countCommits := func(piggyback bool) int {
		g := buildGroup(t, 4, []int{100, 101, 102, 103}, func(c *Config) {
			c.Opts.PiggybackCommits = piggyback
		})
		commits := 0
		g.c.observe = func(src, dst int, data []byte) {
			if m, err := message.Unmarshal(data); err == nil {
				if _, ok := m.(*message.Commit); ok {
					commits++
				}
			}
		}
		g.c.start()
		done := 0
		for round := 0; round < 10; round++ {
			for _, id := range []int{100, 101, 102, 103} {
				g.invokeAsync(id, opAppend("x", "y"), false, &done)
			}
		}
		g.c.run(func() bool { return done == 40 }, 30*time.Second, "piggyback ops")
		g.agreeState()
		return commits
	}
	with := countCommits(true)
	without := countCommits(false)
	if with >= without {
		t.Fatalf("piggybacking did not reduce standalone commits: with=%d without=%d", with, without)
	}
}

func TestAtMostOnceUnderRetransmission(t *testing.T) {
	commitModes(t, testAtMostOnceUnderRetransmission)
}

func testAtMostOnceUnderRetransmission(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, piggyback(pb))
	// Drop every reply to the client until virtual time passes 300ms,
	// forcing at least one retransmission of the same request.
	g.c.drop = func(src, dst int, data []byte) bool {
		return dst == 100 && g.c.now < 300*time.Millisecond
	}
	g.c.start()
	res := g.invoke(100, opAppend("k", "x"), false)
	if string(res) != "x" {
		t.Fatalf("result = %q, want x", res)
	}
	if g.clients[100].Stats().Retransmits == 0 {
		t.Fatal("test did not force a retransmission")
	}
	for i, sm := range g.sms {
		if sm.applied != 1 {
			t.Fatalf("replica %d applied the op %d times, want exactly 1", i, sm.applied)
		}
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	g.c.start()
	for i := 0; i < 20; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	for i, r := range g.replicas {
		if r.lastStable == 0 {
			t.Fatalf("replica %d never advanced its stable checkpoint", i)
		}
		if len(r.log) > int(r.cfg.LogWindow) {
			t.Fatalf("replica %d log holds %d slots, want <= %d after GC", i, len(r.log), r.cfg.LogWindow)
		}
		for n := range r.log {
			if n <= r.lastStable {
				t.Fatalf("replica %d kept slot %d below stable %d", i, n, r.lastStable)
			}
		}
		if r.Stats().StableCheckpoints == 0 {
			t.Fatalf("replica %d recorded no stable checkpoints", i)
		}
	}
	g.agreeState()
}

func TestLargeResultRoundTrip(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	val := string(bytes.Repeat([]byte("z"), 100*1024))
	if res := g.invoke(100, opSet("big", val), false); string(res) != "ok" {
		t.Fatalf("set failed: %q", res)
	}
	res := g.invoke(100, opGet("big"), false)
	if string(res) != val {
		t.Fatalf("got %d bytes back, want %d", len(res), len(val))
	}
}

// BenchmarkEngineThroughput measures the raw protocol engine (no simulated
// costs, in-memory delivery): requests ordered and executed per second of
// host time across a 4-replica group.
func BenchmarkEngineThroughput(b *testing.B) {
	t := &testing.T{}
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	done := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.invokeAsync(100, opAppend("k", "x"), false, &done)
		g.c.pump()
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d of %d ops", done, b.N)
	}
	b.ReportMetric(float64(g.replicas[0].Stats().ExecutedRequests), "requests")
}

// BenchmarkEngineLargeRequests exercises the separate-request-transmission
// path with 4 KB operations.
func BenchmarkEngineLargeRequests(b *testing.B) {
	t := &testing.T{}
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	op := opSet("k", string(bytes.Repeat([]byte("v"), 4096)))
	done := 0
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.invokeAsync(100, op, false, &done)
		g.c.pump()
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d of %d ops", done, b.N)
	}
}

// TestTraceNormalCaseCommit asserts a traced replica records the full
// normal-case commit sequence in protocol order. With tentative execution
// (the default) the primary executes and replies before the commit quorum
// forms; the second subtest turns it off and the commit boundary moves in
// front of execution — the ordering the span assembler depends on.
func TestTraceNormalCaseCommit(t *testing.T) { commitModes(t, testTraceNormalCaseCommit) }

func testTraceNormalCaseCommit(t *testing.T, pb bool) {
	t.Run("tentative", func(t *testing.T) {
		g, recs := tracedGroup(t, 4, []int{100}, piggyback(pb))
		g.c.start()
		if res := g.invoke(100, opSet("a", "1"), false); string(res) != "ok" {
			t.Fatalf("op failed: %q", res)
		}
		// The client has its tentative replies; the commit quorum of an idle
		// piggybacking group forms when the fallback timer sends the votes.
		g.c.advance(g.commitFallback())

		primary := recs[0].Events(nil)
		order := []obs.Kind{
			obs.EvRequestIn, obs.EvPrePrepareSent, obs.EvPrepared,
			obs.EvExecuted, obs.EvExecRequest, obs.EvReplySent, obs.EvCommitted,
		}
		prev := -1
		for _, k := range order {
			i := eventIndex(primary, k)
			if i < 0 {
				t.Fatalf("primary trace missing %v (events: %v)", k, primary)
			}
			if i <= prev {
				t.Fatalf("primary trace has %v at index %d, want after index %d", k, i, prev)
			}
			prev = i
		}
		if e := primary[eventIndex(primary, obs.EvExecuted)]; e.Aux != 1 {
			t.Errorf("EvExecuted Aux = %d, want 1 (tentative)", e.Aux)
		}
		if e := primary[eventIndex(primary, obs.EvExecRequest)]; e.Seq != 1 || e.Aux != 100 || e.Aux2 != 1 {
			t.Errorf("EvExecRequest = seq %d client %d ts %d, want 1/100/1", e.Seq, e.Aux, e.Aux2)
		}
		if e := primary[eventIndex(primary, obs.EvPrePrepareSent)]; e.Seq != 1 || e.Aux != 0 {
			t.Errorf("EvPrePrepareSent = seq %d view %d, want seq 1 view 0", e.Seq, e.Aux)
		}

		backup := recs[1].Events(nil)
		if i := eventIndex(backup, obs.EvPrePrepareSent); i >= 0 {
			t.Errorf("backup recorded EvPrePrepareSent at %d; only the primary multicasts", i)
		}
		prev = -1
		for _, k := range []obs.Kind{obs.EvPrePrepareRecv, obs.EvPrepared, obs.EvExecuted, obs.EvCommitted} {
			i := eventIndex(backup, k)
			if i < 0 {
				t.Fatalf("backup trace missing %v", k)
			}
			if i <= prev {
				t.Fatalf("backup trace has %v at index %d, want after index %d", k, i, prev)
			}
			prev = i
		}
	})

	t.Run("no-tentative", func(t *testing.T) {
		g, recs := tracedGroup(t, 4, []int{100}, func(c *Config) {
			c.Opts.PiggybackCommits = pb
			c.Opts.TentativeExecution = false
		})
		g.c.start()
		if res := g.invoke(100, opSet("a", "1"), false); string(res) != "ok" {
			t.Fatalf("op failed: %q", res)
		}
		primary := recs[0].Events(nil)
		ci := eventIndex(primary, obs.EvCommitted)
		ei := eventIndex(primary, obs.EvExecuted)
		if ci < 0 || ei < 0 || ci > ei {
			t.Fatalf("without tentative execution commit (index %d) must precede execution (index %d)", ci, ei)
		}
		if e := primary[ei]; e.Aux != 0 {
			t.Errorf("EvExecuted Aux = %d, want 0 (definitive)", e.Aux)
		}
	})
}
