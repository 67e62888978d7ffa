package core

import (
	"testing"
	"time"

	"bftfast/internal/message"
)

// piggybackGroup is a started group with piggybacked commits on (unless
// mutate says otherwise).
func piggybackGroup(t *testing.T, clientIDs []int, mutate func(*Config)) *group {
	t.Helper()
	g := buildGroup(t, 4, clientIDs, func(c *Config) {
		c.Opts.PiggybackCommits = true
		if mutate != nil {
			mutate(c)
		}
	})
	g.c.start()
	return g
}

// elapsedUntil steps virtual time in twentieths of the fallback delay until
// cond holds and returns how much passed; zero means no timer was needed.
func (g *group) elapsedUntil(cond func() bool, what string) time.Duration {
	g.c.t.Helper()
	start := g.c.now
	g.c.pump()
	for !cond() {
		if g.c.now-start > 10*time.Second {
			g.c.t.Fatalf("timed out waiting for %s", what)
		}
		g.c.advance(g.commitFallback() / 20)
	}
	return g.c.now - start
}

// flushes sums one flush counter over the group.
func (g *group) flushes(pick func(r *Replica) int64) int64 {
	var n int64
	for _, r := range g.replicas {
		n += pick(r)
	}
	return n
}

func committedEverywhere(g *group, seq int64) func() bool {
	return func() bool {
		for _, r := range g.replicas {
			if r.lastCommittedExec < seq {
				return false
			}
		}
		return true
	}
}

// TestCommitFlushPolicy pins each clause of settleCommits, and the fallback
// timer, on the virtual clock: a clause that fires costs no virtual time, a
// held commit that only the timer moves costs the fallback delay.
func TestCommitFlushPolicy(t *testing.T) {
	// A plain toggle made every read that follows a write wait out the
	// timer (kv-mixed-udp at 367 ops/s); clause (a) sends the commits the
	// held reply is waiting for as soon as it is held.
	t.Run("held read-only reply flushes", func(t *testing.T) {
		g := piggybackGroup(t, []int{100, 101}, nil)
		done := 0
		g.invokeAsync(100, opSet("k", "v"), false, &done)
		if d := g.elapsedUntil(func() bool { return done == 1 }, "the write"); d != 0 {
			t.Fatalf("write took %v of virtual time, want tentative replies at once", d)
		}
		if committedEverywhere(g, 1)() {
			t.Fatal("the write committed before any read: its commits were not held, the case tests nothing")
		}
		g.invokeAsync(101, opGet("k"), true, &done)
		d := g.elapsedUntil(func() bool { return done == 2 }, "the read")
		if limit := g.commitFallback() / 10; d >= limit {
			t.Fatalf("read after a write took %v, want under %v (a tenth of the fallback delay)", d, limit)
		}
		if n := g.flushes(func(r *Replica) int64 { return r.stats.Commits.FlushHeldRead }); n == 0 {
			t.Fatal("no replica counted a held-read flush")
		}
		if n := g.flushes(func(r *Replica) int64 { return r.stats.Commits.FlushTimer }); n != 0 {
			t.Fatalf("fallback timer fired %d times on the read's path", n)
		}
	})

	// Holding a commit saves nothing when the next request is a read (the
	// commits go out standalone anyway) and puts a commit round on the read's
	// path, +33 % on kv-mixed-udp's p99. One read that had to wait turns
	// holding off until the next checkpoint boundary.
	t.Run("a read that waited stops holding until the next checkpoint", func(t *testing.T) {
		g := piggybackGroup(t, []int{100, 101}, func(c *Config) {
			c.CheckpointInterval = 4
			c.LogWindow = 8
		})
		heldRead := func() int64 { return g.replicas[1].stats.Commits.FlushHeldRead }
		for seq := int64(1); seq <= 9; seq++ {
			g.invoke(100, opAppend("k", "x"), false)
			before := heldRead()
			if got := g.invoke(101, opGet("k"), true); int64(len(got)) != seq {
				t.Fatalf("read after write %d: %q", seq, got)
			}
			// Batches 1, 5 and 9 open a checkpoint interval: their commits
			// are held and the read behind them flushes them. The rest of
			// each interval commits at once and its reads find nothing held.
			if want := seq%4 == 1; (heldRead() > before) != want {
				t.Fatalf("read after batch %d: held-read flush = %v, want %v", seq, !want, want)
			}
		}
		if g.c.now != 0 {
			t.Fatalf("nine write/read rounds took %v of virtual time, want none", g.c.now)
		}
	})

	t.Run("peer commit flushes, own commit does not", func(t *testing.T) {
		g := piggybackGroup(t, []int{100}, nil)
		done := 0
		g.invokeAsync(100, opSet("k", "v"), false, &done)
		g.elapsedUntil(func() bool { return done == 1 }, "the write")
		// Every replica now holds its own commit for batch 1 and has seen
		// nobody else's: nothing may have been flushed.
		for i, r := range g.replicas {
			if len(r.pendingCommits) != 1 || r.stats.Commits.Standalone != 0 {
				t.Fatalf("replica %d: %d held, %d sent standalone; want its own commit held and none sent",
					i, len(r.pendingCommits), r.stats.Commits.Standalone)
			}
		}
		// Replica 3 missed the carrier: replica 1's commit reaches it alone.
		g.replicas[1].send(3, g.replicas[1].buildCommit(g.replicas[1].log[1]))
		if d := g.elapsedUntil(committedEverywhere(g, 1), "batch 1 to commit"); d != 0 {
			t.Fatalf("commit took %v after a peer's commit arrived, want no wait", d)
		}
		if got := g.replicas[3].stats.Commits.FlushPeerCommit; got != 1 {
			t.Fatalf("replica 3 counted %d peer-commit flushes, want 1", got)
		}
	})

	// Without tentative execution the window opens on commit, so a leader
	// holding the commits of a full window is holding its own next carrier.
	t.Run("closed window with queued requests flushes", func(t *testing.T) {
		g := piggybackGroup(t, []int{100, 101}, func(c *Config) {
			c.Opts.TentativeExecution = false
			c.Window = 1
		})
		done := 0
		g.invokeAsync(100, opSet("a", "1"), false, &done)
		g.invokeAsync(101, opSet("b", "2"), false, &done)
		if d := g.elapsedUntil(func() bool { return done >= 1 }, "the first write"); d != 0 {
			t.Fatalf("first write waited %v with the second queued behind its held commits, want no wait", d)
		}
		if got := g.replicas[0].stats.Commits.FlushWindow; got == 0 {
			t.Fatal("the leader never counted a window flush")
		}
		// The second write is the last batch of an idle group and, with no
		// tentative reply, is answered when the fallback commits it.
		g.elapsedUntil(func() bool { return done == 2 }, "the second write")
	})

	t.Run("closed loop stays under 3 commit datagrams per operation", func(t *testing.T) {
		g := piggybackGroup(t, []int{100, 101}, nil)
		commitDatagrams := 0
		g.c.observe = func(src, dst int, data []byte) {
			if message.Type(data[0]) == message.TypeCommit {
				commitDatagrams++
			}
		}
		const opsEach = 100
		done := 0
		var loop func(id int)
		loop = func(id int) {
			left := opsEach
			var next func([]byte)
			next = func([]byte) {
				done++
				if left--; left > 0 {
					g.clients[id].Submit(opAppend("k", "x"), false, next)
				}
			}
			g.clients[id].Submit(opAppend("k", "x"), false, next)
		}
		loop(100)
		loop(101)
		if d := g.elapsedUntil(func() bool { return done == 2*opsEach }, "closed-loop operations"); d != 0 {
			t.Fatalf("closed loop needed %v of virtual time, want every commit carried or flushed by state", d)
		}
		if commitDatagrams > 3*done {
			t.Fatalf("%d commit datagrams for %d operations, want at most 3 per operation (12 without piggybacking)",
				commitDatagrams, done)
		}
		g.c.advance(g.commitFallback())
		g.agreeState()
	})

	t.Run("idle group commits within the fallback delay", func(t *testing.T) {
		g := piggybackGroup(t, []int{100}, nil)
		done := 0
		g.invokeAsync(100, opSet("k", "v"), false, &done)
		g.elapsedUntil(func() bool { return done == 1 }, "the write")
		d := g.elapsedUntil(committedEverywhere(g, 1), "the last batch to commit")
		if d == 0 || d > g.commitFallback() {
			t.Fatalf("last batch of an idle group committed after %v, want the fallback delay %v", d, g.commitFallback())
		}
		if n := g.flushes(func(r *Replica) int64 { return r.stats.Commits.FlushTimer }); n == 0 {
			t.Fatal("no replica counted a timer flush")
		}
	})

	t.Run("mixed group agrees", func(t *testing.T) {
		g := piggybackGroup(t, []int{100, 101}, func(c *Config) {
			c.Opts.PiggybackCommits = c.Self%2 == 0
		})
		for i := 0; i < 10; i++ {
			g.invoke(100, opAppend("k", "x"), false)
			g.invoke(101, opAppend("k", "y"), false)
			if got := g.invoke(101, opGet("k"), true); len(got) != 2*(i+1) {
				t.Fatalf("round %d: read %q, want %d bytes", i, got, 2*(i+1))
			}
		}
		g.c.advance(g.commitFallback())
		if !committedEverywhere(g, 20)() {
			t.Fatal("mixed group did not commit every batch")
		}
		g.agreeState()
	})
}

// preparedSlot installs a resolved, prepared slot at r that no message will
// touch, so advance holds its commit.
func preparedSlot(r *Replica, seq int64) *slot {
	s := r.getSlot(seq)
	s.havePP = true
	s.batchDigest = digestOfByte(byte(seq))
	for _, peer := range r.peers[:2*r.cfg.F()] {
		s.addPrepare(s.batchDigest, int32(peer))
	}
	return s
}

// TestCommitFlushTimerHygiene: the fallback timer is armed when the buffer
// goes non-empty, is not pushed back by later commits, and is disarmed by
// every drain.
func TestCommitFlushTimerHygiene(t *testing.T) {
	g := piggybackGroup(t, nil, nil)
	r := g.replicas[1]
	armed := func() (time.Duration, bool) {
		tm, ok := g.c.timers[1][timerCommitFlush]
		if !ok {
			return 0, false
		}
		return tm.deadline, true
	}

	r.advance(preparedSlot(r, 5))
	first, ok := armed()
	if !ok || first != g.c.now+g.commitFallback() {
		t.Fatalf("holding the first commit armed the timer for %v (armed=%v), want now+%v", first, ok, g.commitFallback())
	}
	g.c.now += g.commitFallback() / 2
	r.advance(preparedSlot(r, 6))
	if again, _ := armed(); again != first {
		t.Fatalf("a second held commit moved the deadline %v -> %v; the first commit's wait was extended", first, again)
	}

	if refs := r.takePiggybackCommits(); len(refs) != 2 {
		t.Fatalf("carrier took %d refs, want 2", len(refs))
	}
	if _, ok := armed(); ok {
		t.Fatal("timer still armed after a carrier drained the buffer")
	}

	r.advance(preparedSlot(r, 7))
	r.flushPiggybackCommits()
	if _, ok := armed(); ok || len(r.pendingCommits) != 0 {
		t.Fatal("timer still armed, or commits still held, after a flush")
	}

	r.advance(preparedSlot(r, 8))
	r.startViewChange(1)
	if _, ok := armed(); ok || len(r.pendingCommits) != 0 {
		t.Fatal("timer still armed, or commits still held, after a view change dropped them")
	}
}

// TestPiggybackSendSideAllocs: holding commits and handing them to a carrier
// reuses one engine-owned buffer, and the policy costs nothing when nothing
// is held.
func TestPiggybackSendSideAllocs(t *testing.T) {
	g := piggybackGroup(t, nil, nil)
	r := g.replicas[1]
	ref := message.CommitRef{Seq: 5, Digest: digestOfByte(5)}
	r.pendingCommits = append(r.pendingCommits, ref, ref) // warm the buffer
	r.takePiggybackCommits()
	if got := testing.AllocsPerRun(100, func() {
		r.pendingCommits = append(r.pendingCommits, ref, ref)
		if refs := r.takePiggybackCommits(); len(refs) != 2 {
			t.Fatal("carrier did not get the held refs")
		}
	}); got != 0 {
		t.Errorf("hold + take for a prepare: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(100, r.settleCommits); got != 0 {
		t.Errorf("settleCommits with nothing held: %v allocs/op, want 0", got)
	}
}
