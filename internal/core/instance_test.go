package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/obs"
)

// TestClassFloor pins the view-change counter reset rule: classFloor(f, i, g)
// is the largest member of instance i's residue class (seqs congruent to
// i+1 mod g) that does not exceed f, so the next assignment floor+g is the
// class's first sequence above f.
func TestClassFloor(t *testing.T) {
	for _, g := range []int{1, 2, 3, 4} {
		for inst := 0; inst < g; inst++ {
			for f := int64(-8); f <= 40; f++ {
				got := classFloor(f, inst, g)
				if got > f {
					t.Fatalf("classFloor(%d, %d, %d) = %d exceeds the floor", f, inst, g, got)
				}
				if got+int64(g) <= f {
					t.Fatalf("classFloor(%d, %d, %d) = %d is not the largest class member <= floor", f, inst, g, got)
				}
				if r := ((got-int64(inst+1))%int64(g) + int64(g)) % int64(g); r != 0 {
					t.Fatalf("classFloor(%d, %d, %d) = %d not in residue class %d mod %d", f, inst, g, got, inst+1, g)
				}
			}
		}
	}
	// g = 1 must reduce to the single-leader rule lastPP = floor exactly.
	for f := int64(-3); f <= 20; f++ {
		if got := classFloor(f, 0, 1); got != f {
			t.Fatalf("classFloor(%d, 0, 1) = %d, want %d (bit-identity at g=1)", f, got, f)
		}
	}
}

// TestInstanceOfSeqRoundTrip: the sequence space is dealt round-robin, so
// instanceOfSeq must invert the dealing for every instance's assignments.
func TestInstanceOfSeqRoundTrip(t *testing.T) {
	for _, g := range []int{1, 2, 3, 4} {
		for seq := int64(1); seq <= 24; seq++ {
			inst := instanceOfSeq(seq, g)
			if inst < 0 || inst >= g {
				t.Fatalf("instanceOfSeq(%d, %d) = %d out of range", seq, g, inst)
			}
			if want := int((seq - 1) % int64(g)); inst != want {
				t.Fatalf("instanceOfSeq(%d, %d) = %d, want %d", seq, g, inst, want)
			}
			// Consistency with classFloor: seq is in its own class.
			if cf := classFloor(seq, inst, g); cf != seq {
				t.Fatalf("classFloor(%d, %d, %d) = %d, want the seq itself", seq, inst, g, cf)
			}
		}
	}
}

// TestLeaderOfRotation: within one view the g leaders are distinct replicas,
// instance 0's leader is the classic primary, and a view change rotates
// every instance's leader by one.
func TestLeaderOfRotation(t *testing.T) {
	cfg := DefaultConfig(4, 0)
	cfg.Instances = 4
	for view := int64(0); view < 9; view++ {
		seen := map[int]bool{}
		for inst := 0; inst < 4; inst++ {
			l := cfg.LeaderOf(view, inst)
			if l < 0 || l >= cfg.N {
				t.Fatalf("LeaderOf(%d, %d) = %d out of range", view, inst, l)
			}
			if seen[l] {
				t.Fatalf("view %d assigns replica %d two instances", view, l)
			}
			seen[l] = true
			if next := cfg.LeaderOf(view+1, inst); next != (l+1)%cfg.N {
				t.Fatalf("LeaderOf(%d, %d) = %d, want rotation by one from %d", view+1, inst, next, l)
			}
		}
		if p := cfg.LeaderOf(view, 0); p != cfg.PrimaryOf(view) {
			t.Fatalf("instance 0 leader %d != primary %d at view %d", p, cfg.PrimaryOf(view), view)
		}
	}
}

// TestInstanceForDigest: request assignment must stay inside [0, g) and be a
// pure function of the digest; g = 1 pins everything to instance 0.
func TestInstanceForDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(9)) //nolint:gosec // deterministic test
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		var d crypto.Digest
		rng.Read(d[:])
		if inst := instanceForDigest(d, 1); inst != 0 {
			t.Fatalf("instanceForDigest(_, 1) = %d, want 0", inst)
		}
		inst := instanceForDigest(d, 4)
		if inst < 0 || inst >= 4 {
			t.Fatalf("instanceForDigest(_, 4) = %d out of range", inst)
		}
		if again := instanceForDigest(d, 4); again != inst {
			t.Fatalf("instanceForDigest not deterministic: %d then %d", inst, again)
		}
		counts[inst]++
	}
	// The hash deal should not collapse: every instance gets a useful share
	// of a uniform digest population (exact uniformity is not required).
	for i, c := range counts {
		if c < 4096/8 {
			t.Fatalf("instance %d received only %d/4096 digests; deal collapsed: %v", i, c, counts)
		}
	}
}

// TestParallelLeadersDisjointSequences runs a healthy 4-replica group with
// two ordering instances and checks the partition from the recorded trace:
// every pre-prepare for instance i's residue class was sent by instance i's
// leader, both leaders actually ordered batches, and the replicas converge.
func TestParallelLeadersDisjointSequences(t *testing.T) {
	commitModes(t, testParallelLeadersDisjointSequences)
}

func testParallelLeadersDisjointSequences(t *testing.T, pb bool) {
	ids := []int{100, 101, 102, 103}
	g, recs := tracedGroup(t, 4, ids, func(c *Config) {
		c.Opts.PiggybackCommits = pb
		c.Instances = 2
	})
	g.c.start()

	done := 0
	const rounds = 8
	for r := 0; r < rounds; r++ {
		for _, id := range ids {
			g.invokeAsync(id, opAppend("k", fmt.Sprintf("%d-%d", id, r)), false, &done)
		}
	}
	g.c.run(func() bool { return done == rounds*len(ids) }, 60*time.Second, "multi-instance ops")
	g.c.advance(2 * time.Second)
	g.agreeState()

	byLeader := map[int32]int{}
	for i := 0; i < 4; i++ {
		for _, e := range recs[i].Events(nil) {
			if e.Kind != obs.EvPrePrepareSent {
				continue
			}
			inst := instanceOfSeq(e.Seq, 2)
			if want := int32(g.replicas[0].cfg.LeaderOf(0, inst)); e.Node != want {
				t.Fatalf("seq %d (instance %d) pre-prepared by replica %d, want leader %d",
					e.Seq, inst, e.Node, want)
			}
			byLeader[e.Node]++
		}
	}
	if len(byLeader) != 2 || byLeader[0] == 0 || byLeader[1] == 0 {
		t.Fatalf("expected both instance leaders to order batches, got %v", byLeader)
	}
}

// TestParallelLeaderChaosConverges is the chaos gauntlet at g = 2: a lossy,
// delayed network must not break exactly-once execution or convergence when
// two leaders order concurrently (gap-fill null batches, relayed requests
// and per-instance retransmission all under fire).
func TestParallelLeaderChaosConverges(t *testing.T) { commitModes(t, testParallelLeaderChaosConverges) }

func testParallelLeaderChaosConverges(t *testing.T, pb bool) {
	for _, seed := range chaosSeeds(t, 1, 2, 3) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := buildGroup(t, 4, []int{100, 101}, func(c *Config) {
				c.Opts.PiggybackCommits = pb
				c.Instances = 2
				c.CheckpointInterval = 4
				c.LogWindow = 8
				c.ViewChangeTimeout = time.Second
			})
			rng := rand.New(rand.NewSource(seed)) //nolint:gosec // deterministic chaos
			lossy := true
			g.c.drop = func(src, dst int, data []byte) bool {
				return lossy && rng.Float64() < 0.15
			}
			g.c.start()

			done := 0
			const ops = 12
			for i := 0; i < ops; i++ {
				g.invokeAsync(100, opAppend("a", "x"), false, &done)
				g.invokeAsync(101, opAppend("b", "y"), false, &done)
			}
			g.c.run(func() bool { return done == 2*ops }, 60*time.Second, "chaos ops (lossy phase)")
			lossy = false
			g.c.advance(6 * time.Second)

			var complete []int
			for i, sm := range g.sms {
				la, lb := len(sm.data["a"]), len(sm.data["b"])
				if la > ops || lb > ops {
					t.Fatalf("seed %d: replica %d holds %d/%d appends, more than submitted", seed, i, la, lb)
				}
				if la == ops && lb == ops {
					complete = append(complete, i)
				}
			}
			if len(complete) < 3 {
				t.Fatalf("seed %d: only %d replicas hold the complete history, want >= 3", seed, len(complete))
			}
			g.agreeState(complete...)
		})
	}
}

// TestLinearizabilityParallelLeaders runs the standard concurrent
// reader/writer workload against a two-instance group: the commit-order
// merge across instances must preserve linearizability, including for
// read-only fast-path reads racing writes ordered by different leaders.
func TestLinearizabilityParallelLeaders(t *testing.T) {
	commitModes(t, testLinearizabilityParallelLeaders)
}

func testLinearizabilityParallelLeaders(t *testing.T, pb bool) {
	ids := []int{100, 101, 102, 103, 104}
	g := buildGroup(t, 4, ids, func(c *Config) {
		c.Opts.PiggybackCommits = pb
		c.Instances = 2
	})
	g.c.start()
	runLinearizabilityWorkload(t, g, 2, 3, 6)
}

// TestParallelLeaderViewChangeReassignsSlice crashes one instance leader
// (replica 1, leading instance 1 in view 0) and checks that the group view
// change reassigns its slice: operations keep completing, the group leaves
// view 0, and the surviving replicas converge.
func TestParallelLeaderViewChangeReassignsSlice(t *testing.T) {
	commitModes(t, testParallelLeaderViewChangeReassignsSlice)
}

func testParallelLeaderViewChangeReassignsSlice(t *testing.T, pb bool) {
	ids := []int{100, 101, 102}
	g := buildGroup(t, 4, ids, func(c *Config) {
		c.Opts.PiggybackCommits = pb
		c.Instances = 2
	})
	g.c.start()

	// A healthy wave first, so both instances have ordered work.
	done := 0
	for _, id := range ids {
		g.invokeAsync(id, opAppend("log", "a"), false, &done)
	}
	g.c.run(func() bool { return done == len(ids) }, 30*time.Second, "pre-crash wave")

	g.crash(1) // instance 1's leader in view 0
	for _, id := range ids {
		g.invokeAsync(id, opAppend("log", "b"), false, &done)
	}
	g.c.run(func() bool { return done == 2*len(ids) }, 60*time.Second, "post-crash wave")
	g.c.advance(2 * time.Second)

	alive := []int{0, 2, 3}
	for _, i := range alive {
		if v := g.replicas[i].View(); v == 0 {
			t.Fatalf("replica %d still in view 0 after its instance leader crashed", i)
		}
		if got := len(g.sms[i].data["log"]); got != 2*len(ids) {
			t.Fatalf("replica %d holds %d appends, want %d", i, got, 2*len(ids))
		}
	}
	g.agreeState(alive...)
}
