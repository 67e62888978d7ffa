package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// chaosSeeds returns the seed sweep for chaos tests. BFT_CHAOS_SEED
// narrows it to a single seed, so a failure line like "seed=3" replays
// with: BFT_CHAOS_SEED=3 go test -run TestChaosLossyNetworkConverges.
func chaosSeeds(t *testing.T, defaults ...int64) []int64 {
	t.Helper()
	if v := os.Getenv("BFT_CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad BFT_CHAOS_SEED %q: %v", v, err)
		}
		return []int64{seed}
	}
	return defaults
}

// TestChaosLossyNetworkConverges drives the group through a lossy, delayed
// network with several adversarial seeds and asserts the two core
// guarantees: every client operation eventually completes exactly once,
// and all correct replicas converge to identical state.
func TestChaosLossyNetworkConverges(t *testing.T) { commitModes(t, testChaosLossyNetworkConverges) }

func testChaosLossyNetworkConverges(t *testing.T, pb bool) {
	for _, seed := range chaosSeeds(t, 1, 2, 3, 4, 5, 6) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := buildGroup(t, 4, []int{100, 101}, func(c *Config) {
				c.Opts.PiggybackCommits = pb
				c.CheckpointInterval = 4
				c.LogWindow = 8
				// Suspicion must be slow relative to retransmission (the
				// paper's deployments kept it conservative): transient
				// loss heals by resending, view changes are for real
				// primary faults.
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
			// The lossy phase must not be endless: liveness holds only
			// under eventual delivery, so stop dropping after a while.
			g.c.run(func() bool { return done == 2*ops }, 60*time.Second, "chaos ops (lossy phase)")
			lossy = false
			g.c.advance(6 * time.Second) // let stragglers catch up

			// Safety + liveness: no replica ever holds *more* than the
			// submitted mutations (at-most-once even across state
			// transfers), at least 2f+1 replicas hold the complete
			// history, and they agree exactly. A straggler — e.g. one
			// stranded in a lone view change, catching up by state
			// transfer at checkpoint granularity — may trail the tail of
			// the log.
			var complete []int
			for i, sm := range g.sms {
				la, lb := len(sm.data["a"]), len(sm.data["b"])
				if la > ops || lb > ops {
					t.Fatalf("seed %d: replica %d holds %d/%d appends, more than submitted (duplicate execution)",
						seed, i, la, lb)
				}
				if la == ops && lb == ops {
					complete = append(complete, i)
				}
			}
			if len(complete) < 3 {
				t.Fatalf("seed %d: only %d replicas hold the complete history, want >= 2f+1 = 3",
					seed, len(complete))
			}
			g.agreeState(complete...)
		})
	}
}

// TestChaosPrimaryFlapping kills and revives primaries repeatedly while a
// client keeps issuing operations.
func TestChaosPrimaryFlapping(t *testing.T) { commitModes(t, testChaosPrimaryFlapping) }

func testChaosPrimaryFlapping(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, func(c *Config) {
		c.Opts.PiggybackCommits = pb
		c.CheckpointInterval = 4
		c.LogWindow = 8
	})
	var dead int = -1
	g.c.drop = func(src, dst int, data []byte) bool {
		return src == dead || dst == dead
	}
	g.c.start()

	total := 0
	for phase := 0; phase < 3; phase++ {
		// Kill the current primary (as seen by replica (dead+1)%4).
		alive := (dead + 1) % 4
		dead = g.replicas[alive].cfg.PrimaryOf(g.replicas[alive].View())
		for i := 0; i < 3; i++ {
			done := 0
			g.invokeAsync(100, opAppend("log", "x"), false, &done)
			g.c.run(func() bool { return done == 1 }, 30*time.Second,
				fmt.Sprintf("op %d in phase %d", i, phase))
			total++
		}
		dead = -1                    // revive
		g.c.advance(2 * time.Second) // let the revived replica resync
	}
	g.c.advance(3 * time.Second)
	for i, sm := range g.sms {
		if got := len(sm.data["log"]); got != total {
			t.Fatalf("replica %d has %d appends, want %d", i, got, total)
		}
	}
	g.agreeState()
}

// ---------------------------------------------------------------------------
// decideNewView unit tests.
// ---------------------------------------------------------------------------

func vcRec(replica int32, lastStable int64, stableD crypto.Digest, p, q []message.PQEntry) *vcRecord {
	return &vcRecord{vc: &message.ViewChange{
		NewView:    1,
		LastStable: lastStable,
		StableD:    stableD,
		Prepared:   p,
		PrePrep:    q,
		Replica:    replica,
	}}
}

func TestDecideNewViewEmptyLogs(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	d0 := digestOfByte(1)
	vcs := map[int32]*vcRecord{
		0: vcRec(0, 0, d0, nil, nil),
		1: vcRec(1, 0, d0, nil, nil),
		2: vcRec(2, 0, d0, nil, nil),
	}
	minSeq, stableD, batches, ok := decideNewView(cfg, vcs)
	if !ok || minSeq != 0 || stableD != d0 || len(batches) != 0 {
		t.Fatalf("decide = (%d, %v, %v, %v), want (0, d0, [], true)", minSeq, stableD, batches, ok)
	}
}

func digestOfByte(b byte) crypto.Digest {
	var d crypto.Digest
	for i := range d {
		d[i] = b
	}
	return d
}

func TestDecideNewViewPreservesPrepared(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	d0 := digestOfByte(1)
	dReq := digestOfByte(7)
	p := []message.PQEntry{{Seq: 1, View: 0, Digest: dReq}}
	q := []message.PQEntry{{Seq: 1, View: 0, Digest: dReq}}
	vcs := map[int32]*vcRecord{
		0: vcRec(0, 0, d0, p, q),
		1: vcRec(1, 0, d0, p, q),
		2: vcRec(2, 0, d0, nil, q),
	}
	minSeq, _, batches, ok := decideNewView(cfg, vcs)
	if !ok || minSeq != 0 {
		t.Fatalf("decide failed: ok=%v minSeq=%d", ok, minSeq)
	}
	if len(batches) != 1 || batches[0] != (message.NVBatch{Seq: 1, Digest: dReq}) {
		t.Fatalf("batches = %v, want the prepared batch re-proposed", batches)
	}
}

func TestDecideNewViewFillsGapsWithNulls(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	d0 := digestOfByte(1)
	dReq := digestOfByte(7)
	// Only sequence 3 was prepared; 1 and 2 must become null requests
	// below it (and no trailing nulls above).
	p := []message.PQEntry{{Seq: 3, View: 0, Digest: dReq}}
	q := []message.PQEntry{{Seq: 3, View: 0, Digest: dReq}}
	vcs := map[int32]*vcRecord{
		0: vcRec(0, 0, d0, p, q),
		1: vcRec(1, 0, d0, p, q),
		2: vcRec(2, 0, d0, nil, nil),
	}
	_, _, batches, ok := decideNewView(cfg, vcs)
	if !ok {
		t.Fatal("decide failed")
	}
	want := []message.NVBatch{
		{Seq: 1, Digest: crypto.ZeroDigest},
		{Seq: 2, Digest: crypto.ZeroDigest},
		{Seq: 3, Digest: dReq},
	}
	if len(batches) != len(want) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
	for i := range want {
		if batches[i] != want[i] {
			t.Fatalf("batch %d = %v, want %v", i, batches[i], want[i])
		}
	}
}

func TestDecideNewViewHigherViewWins(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	d0 := digestOfByte(1)
	dOld := digestOfByte(7)
	dNew := digestOfByte(8)
	// Replica 0 prepared dOld at view 0; replicas 1 and 2 prepared dNew at
	// view 2 (a later view change re-proposed a different batch after dOld
	// failed to commit). The higher view must win.
	vcs := map[int32]*vcRecord{
		0: vcRec(0, 0, d0,
			[]message.PQEntry{{Seq: 1, View: 0, Digest: dOld}},
			[]message.PQEntry{{Seq: 1, View: 0, Digest: dOld}}),
		1: vcRec(1, 0, d0,
			[]message.PQEntry{{Seq: 1, View: 2, Digest: dNew}},
			[]message.PQEntry{{Seq: 1, View: 2, Digest: dNew}}),
		2: vcRec(2, 0, d0,
			[]message.PQEntry{{Seq: 1, View: 2, Digest: dNew}},
			[]message.PQEntry{{Seq: 1, View: 2, Digest: dNew}}),
	}
	_, _, batches, ok := decideNewView(cfg, vcs)
	if !ok {
		t.Fatal("decide failed")
	}
	if len(batches) != 1 || batches[0].Digest != dNew {
		t.Fatalf("batches = %v, want the view-2 batch", batches)
	}
}

func TestDecideNewViewChoosesHighestAttestedCheckpoint(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	dLow, dHigh := digestOfByte(1), digestOfByte(2)
	vcs := map[int32]*vcRecord{
		0: vcRec(0, 128, dHigh, nil, nil),
		1: vcRec(1, 128, dHigh, nil, nil),
		2: vcRec(2, 0, dLow, nil, nil),
	}
	minSeq, stableD, _, ok := decideNewView(cfg, vcs)
	if !ok || minSeq != 128 || stableD != dHigh {
		t.Fatalf("decide = (%d, %v, ok=%v), want checkpoint 128", minSeq, stableD, ok)
	}
	// A checkpoint claimed by a single replica (possibly faulty) must not
	// be chosen: with only one message above 128, the 2f+1 "at or below"
	// rule cannot bless 256, and with a fourth message at 128 the choice
	// settles on 128.
	vcs[0] = vcRec(0, 256, digestOfByte(3), nil, nil)
	vcs[3] = vcRec(3, 128, dHigh, nil, nil)
	minSeq, _, _, ok = decideNewView(cfg, vcs)
	if !ok || minSeq != 128 {
		t.Fatalf("minSeq = %d (ok=%v), want 128: solo checkpoint accepted", minSeq, ok)
	}
}

func TestDecideNewViewUndecidableWaits(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	d0 := digestOfByte(1)
	dReq := digestOfByte(7)
	// One replica claims a prepared batch, but no second Q entry backs it
	// (A2 needs f+1 = 2) and the claimer's P entry blocks the null case.
	vcs := map[int32]*vcRecord{
		0: vcRec(0, 0, d0,
			[]message.PQEntry{{Seq: 1, View: 0, Digest: dReq}},
			[]message.PQEntry{{Seq: 1, View: 0, Digest: dReq}}),
		1: vcRec(1, 0, d0, nil, nil),
		2: vcRec(2, 0, d0, nil, nil),
	}
	if _, _, _, ok := decideNewView(cfg, vcs); ok {
		t.Fatal("decide succeeded on an undecidable set")
	}
	// A fourth view-change resolves it: now 2f+1 = 3 messages have no
	// P-entry, so the null case applies.
	vcs[3] = vcRec(3, 0, d0, nil, nil)
	_, _, batches, ok := decideNewView(cfg, vcs)
	if !ok {
		t.Fatal("decide still undecided with 4 messages")
	}
	if len(batches) != 0 {
		t.Fatalf("batches = %v, want none (null trimmed)", batches)
	}
}

// TestChaosTraceTimestampsMonotonic drives a lossy network with view
// changes and checkpoints and asserts the recorder's contract: each node's
// event stream carries non-decreasing virtual timestamps (oldest-first even
// after ring wrap-around), and the merged stream is globally time-ordered.
func TestChaosTraceTimestampsMonotonic(t *testing.T) {
	seed := chaosSeeds(t, 11)[0]
	_, recs := tracedChaosRun(t, seed)

	ordered := make([]*obs.Recorder, 0, len(recs))
	for i := 0; i < 4; i++ {
		rec := recs[i]
		evts := rec.Events(nil)
		if len(evts) == 0 {
			t.Fatalf("replica %d recorded no events", i)
		}
		for j, e := range evts {
			if e.Node != int32(i) {
				t.Fatalf("replica %d event %d stamped with node %d", i, j, e.Node)
			}
			if j > 0 && e.At < evts[j-1].At {
				t.Fatalf("replica %d events reordered: %v after %v", i, e.At, evts[j-1].At)
			}
		}
		ordered = append(ordered, rec)
	}
	merged := obs.Merge(ordered...)
	for j := 1; j < len(merged); j++ {
		if merged[j].At < merged[j-1].At {
			t.Fatalf("seed %d: merged stream reordered at %d: %v after %v", seed, j, merged[j].At, merged[j-1].At)
		}
	}
}

// tracedChaosRun drives the traced lossy-network scenario with the given
// seed to quiescence and returns the group and per-replica recorders.
func tracedChaosRun(t *testing.T, seed int64) (*group, map[int]*obs.Recorder) {
	t.Helper()
	g, recs := tracedGroup(t, 4, []int{100, 101}, func(c *Config) {
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
	const ops = 10
	for i := 0; i < ops; i++ {
		g.invokeAsync(100, opAppend("a", "x"), false, &done)
		g.invokeAsync(101, opAppend("b", "y"), false, &done)
	}
	g.c.run(func() bool { return done == 2*ops }, 60*time.Second, "chaos ops (traced)")
	lossy = false
	g.c.advance(6 * time.Second)
	return g, recs
}

// TestFixedSeedReproducesByteIdenticalTrace is the replay contract behind
// BFT_CHAOS_SEED: the same seed must reproduce the same run, down to the
// serialized protocol trace. Hidden nondeterminism — map-iteration
// dependence, wall-clock leakage, unseeded randomness — breaks this test
// before it breaks anything subtler.
func TestFixedSeedReproducesByteIdenticalTrace(t *testing.T) {
	seed := chaosSeeds(t, 11)[0]
	serialize := func() []byte {
		_, recs := tracedChaosRun(t, seed)
		ordered := make([]*obs.Recorder, 0, len(recs))
		for i := 0; i < len(recs); i++ {
			ordered = append(ordered, recs[i])
		}
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf, obs.Merge(ordered...)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := serialize(), serialize()
	if !bytes.Equal(a, b) {
		t.Fatalf("seed %d: two identically seeded runs serialized different traces (%d vs %d bytes)",
			seed, len(a), len(b))
	}
}

// requestWaitingFullScan is requestWaiting as it was before the scan was
// bounded by maxKnownPP: a walk over the whole log. Kept as the reference
// the bounded scan is compared against.
func requestWaitingFullScan(r *Replica) bool {
	if len(r.reqBuffer) > 0 {
		return true
	}
	for n, s := range r.log {
		if n > r.lastCommittedExec && s.havePP && !s.committed {
			return true
		}
	}
	return false
}

// TestRequestWaitingMatchesFullScan compares the bounded requestWaiting
// with the full log walk before every delivery of a chaos run: lossy
// ordering across several checkpoints (small window, so slots are collected
// and stragglers catch up by state transfer), then a dead primary and the
// view change that rebuilds the log and lowers maxKnownPP.
func TestRequestWaitingMatchesFullScan(t *testing.T) {
	commitModes(t, testRequestWaitingMatchesFullScan)
}

func testRequestWaitingMatchesFullScan(t *testing.T, pb bool) {
	for _, seed := range chaosSeeds(t, 1, 2, 3) {
		g := buildGroup(t, 4, []int{100, 101}, func(c *Config) {
			c.Opts.PiggybackCommits = pb
			c.CheckpointInterval = 4
			c.LogWindow = 8
		})
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // deterministic chaos
		lossRate, dead := 0.15, -1
		g.c.drop = func(src, dst int, data []byte) bool {
			return src == dead || dst == dead || rng.Float64() < lossRate
		}
		checks, waiting := 0, 0
		g.c.observe = func(src, dst int, data []byte) {
			for i, r := range g.replicas {
				got, want := r.requestWaiting(), requestWaitingFullScan(r)
				if got != want {
					t.Fatalf("seed %d: replica %d requestWaiting = %v, full scan %v (view %d, lastCommittedExec %d, maxKnownPP %d)",
						seed, i, got, want, r.view, r.lastCommittedExec, r.maxKnownPP)
				}
				checks++
				if got {
					waiting++
				}
			}
		}
		g.c.start()

		done := 0
		for i := 0; i < 10; i++ {
			g.invokeAsync(100, opAppend("a", "x"), false, &done)
			g.invokeAsync(101, opAppend("b", "y"), false, &done)
		}
		g.c.run(func() bool { return done == 20 }, 60*time.Second, "lossy phase")

		lossRate = 0
		g.c.advance(3 * time.Second) // stragglers rejoin the group's view
		dead = g.replicas[1].cfg.PrimaryOf(g.replicas[1].View())
		viewChanges := func() (sum int64) {
			for _, r := range g.replicas {
				sum += r.Stats().ViewChanges
			}
			return sum
		}
		before := viewChanges()
		for i := 0; i < 6; i++ {
			g.invokeAsync(100, opAppend("a", "z"), false, &done)
		}
		g.c.run(func() bool { return done == 26 }, 60*time.Second, "ops across the view change")
		if viewChanges() == before {
			t.Fatalf("seed %d: no view change with the primary dead", seed)
		}
		if waiting == 0 || waiting == checks {
			t.Fatalf("seed %d: predicate was %d/%d true; the comparison saw only one value", seed, waiting, checks)
		}
	}
}
