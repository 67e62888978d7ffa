package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// TestRebuildPrePreparesChunksLargeBatches verifies that recovery
// retransmissions of a batch full of large requests are split into
// datagram-sized messages that a peer can reassemble.
func TestRebuildPrePreparesChunksLargeBatches(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()

	// Build a resolved slot at the primary with 30 x 4KB requests.
	primary := g.replicas[0]
	clientSuite := crypto.NewSuite(g.tables[4], nil)
	const reqs = 30
	var (
		digests  []crypto.Digest
		requests []*message.Request
	)
	for i := 0; i < reqs; i++ {
		req := &message.Request{
			Client:    100,
			Timestamp: int64(i + 1),
			Replier:   message.AllReplicas,
			Op:        bytes.Repeat([]byte{byte(i)}, 4096),
		}
		d := req.ContentDigest(clientSuite, new(message.Encoder))
		req.Auth = clientSuite.Auth(4, d[:])
		digests = append(digests, d)
		requests = append(requests, req)
	}
	s := newSlot(7)
	s.view = 0
	s.havePP = true
	s.reqDigests = digests
	s.requests = requests
	s.batchDigest = message.BatchDigest(crypto.NewSuite(g.tables[0], nil), new(message.Encoder), digests)

	all := make([]bool, reqs)
	for i := range all {
		all[i] = true
	}
	pps := primary.rebuildPrePrepares(s, all)
	if len(pps) < 3 {
		t.Fatalf("30 x 4KB batch rebuilt as %d chunks, want several", len(pps))
	}
	seen := 0
	for _, pp := range pps {
		raw := message.Marshal(new(message.Encoder), pp)
		if len(raw) > 48<<10 {
			t.Fatalf("chunk of %d bytes exceeds the datagram budget", len(raw))
		}
		if len(pp.Refs) != reqs {
			t.Fatalf("chunk carries %d refs, want the full list (%d)", len(pp.Refs), reqs)
		}
		for _, ref := range pp.Refs {
			if ref.Inline != nil {
				seen++
			}
		}
		// Every chunk must decode.
		if _, err := message.Unmarshal(raw); err != nil {
			t.Fatalf("chunk does not decode: %v", err)
		}
	}
	if seen != reqs {
		t.Fatalf("chunks inline %d bodies total, want all %d exactly once", seen, reqs)
	}

	// A backup that accepted the assignment (digests only) can fill every
	// body from the chunks and resolve the slot.
	backup := g.replicas[1]
	bs := backup.getSlot(7)
	bs.view = 0
	bs.havePP = true
	bs.reqDigests = digests
	bs.requests = make([]*message.Request, reqs)
	bs.missing = reqs
	bs.batchDigest = s.batchDigest
	backup.log[7] = bs
	for _, d := range digests {
		backup.missingBody[d] = append(backup.missingBody[d], 7)
	}
	for _, pp := range pps {
		backup.fillBodiesFromPP(bs, pp)
	}
	if !bs.resolved() {
		t.Fatalf("backup slot still missing %d bodies after all chunks", bs.missing)
	}
	for i, req := range bs.requests {
		if req == nil || !bytes.Equal(req.Op, requests[i].Op) {
			t.Fatalf("body %d mismatched after reassembly", i)
		}
	}
}

// TestFillBodiesRejectsForgedBodies: a chunk with a body whose client
// authenticator is invalid must not fill the slot.
func TestFillBodiesRejectsForgedBodies(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	clientSuite := crypto.NewSuite(g.tables[4], nil)

	req := &message.Request{Client: 100, Timestamp: 1, Replier: message.AllReplicas, Op: []byte("real")}
	d := req.ContentDigest(clientSuite, new(message.Encoder))
	req.Auth = clientSuite.Auth(4, d[:])

	backup := g.replicas[1]
	bs := backup.getSlot(9)
	bs.view = 0
	bs.havePP = true
	bs.reqDigests = []crypto.Digest{d}
	bs.requests = make([]*message.Request, 1)
	bs.missing = 1
	backup.log[9] = bs
	backup.missingBody[d] = []int64{9}

	forged := &message.Request{Client: 100, Timestamp: 1, Replier: message.AllReplicas, Op: []byte("real")}
	forged.Auth = crypto.Authenticator{macOfByte(1), macOfByte(1), macOfByte(1), macOfByte(1)}
	pp := &message.PrePrepare{View: 0, Seq: 9, Refs: []message.RequestRef{{Inline: message.Marshal(new(message.Encoder), forged)}}}
	backup.fillBodiesFromPP(bs, pp)
	if bs.missing != 1 {
		t.Fatal("forged body filled the slot")
	}
	// The genuine body works.
	pp.Refs[0].Inline = message.Marshal(new(message.Encoder), req)
	backup.fillBodiesFromPP(bs, pp)
	if bs.missing != 0 {
		t.Fatal("genuine body rejected")
	}
}

// lateBodyGroup is a group in which request bodies are lost on their way to
// backup lateBackup. It records the level -1 fetches that backup sends, with
// their destinations, and the pre-prepares delivered to it after its first
// fetch.
type lateBodyGroup struct {
	*group
	fetches []*message.Fetch
	dsts    []int
	answers []*message.PrePrepare
}

const lateBackup = 2

// newLateBodyGroup starts a lateBodyGroup that loses every client request
// to the backup.
func newLateBodyGroup(t *testing.T, clients []int, mutate func(*Config)) *lateBodyGroup {
	t.Helper()
	lg := &lateBodyGroup{group: buildGroup(t, 4, clients, mutate)}
	lg.c.drop = func(src, dst int, data []byte) bool {
		return src >= 100 && dst == lateBackup && message.Type(data[0]) == message.TypeRequest
	}
	lg.c.observe = func(src, dst int, data []byte) {
		m, err := message.Unmarshal(data)
		if err != nil {
			return
		}
		switch m := m.(type) {
		case *message.Fetch:
			if src == lateBackup && m.Level == -1 {
				lg.fetches = append(lg.fetches, m)
				lg.dsts = append(lg.dsts, dst)
			}
		case *message.PrePrepare:
			if dst == lateBackup && len(lg.fetches) > 0 {
				lg.answers = append(lg.answers, m)
			}
		}
	}
	lg.c.start()
	return lg
}

// submitLarge submits one separately transmitted write from each client.
func (lg *lateBodyGroup) submitLarge(clients []int, done *int) {
	for _, id := range clients {
		lg.invokeAsync(id, opSet(fmt.Sprint(id), string(bytes.Repeat([]byte{'v'}, 400))), false, done)
	}
	lg.c.pump()
}

// grace is the wait between a pre-prepare that leaves bodies missing and
// the fetch for them.
func (lg *lateBodyGroup) grace() time.Duration { return lg.replicas[0].cfg.StatusInterval / 16 }

// TestLateBodyFetchedFromLeader: a separately transmitted body lost on its
// way to one backup is fetched once the grace period expires — from the
// primary, naming only the missing entry — and the primary's answer
// inlines that body alone, after which the batch commits.
func TestLateBodyFetchedFromLeader(t *testing.T) {
	// Window 1 holds the second and third requests back until the first
	// batch executes, so they share batch 2; only the third body is lost.
	lg := newLateBodyGroup(t, []int{100, 101, 102}, func(c *Config) { c.Window = 1 })
	lg.c.drop = func(src, dst int, data []byte) bool {
		return src == 102 && dst == lateBackup && message.Type(data[0]) == message.TypeRequest
	}
	done := 0
	lg.submitLarge([]int{100, 101, 102}, &done)
	backup := lg.replicas[lateBackup]
	s := backup.log[2]
	if s == nil || !s.havePP || len(s.requests) != 2 || s.missing != 1 || s.requests[1] != nil {
		t.Fatal("setup: backup should hold batch 2 with its second body missing")
	}
	lg.c.advance(lg.grace() - time.Millisecond)
	if len(lg.fetches) != 0 {
		t.Fatalf("backup fetched %d times inside the grace period", len(lg.fetches))
	}
	lg.c.advance(time.Millisecond)
	if len(lg.fetches) != 1 {
		t.Fatalf("backup sent %d level -1 fetches after the grace period, want 1", len(lg.fetches))
	}
	f, leader := lg.fetches[0], backup.cfg.PrimaryOf(0)
	if lg.dsts[0] != leader || f.Index != 2 || len(f.Missing) != 1 || f.Missing[0] != 1 {
		t.Fatalf("fetch to %d for seq %d missing %v, want to leader %d for seq 2 missing [1]", lg.dsts[0], f.Index, f.Missing, leader)
	}
	if len(lg.answers) != 1 {
		t.Fatalf("leader answered with %d pre-prepares, want 1", len(lg.answers))
	}
	if refs := lg.answers[0].Refs; len(refs) != 2 || refs[0].Inline != nil || refs[1].Inline == nil {
		t.Fatal("answer should inline the missing body and only it")
	}
	lg.c.run(func() bool { return done == 3 && backup.log[2] != nil && backup.log[2].committed }, time.Second, "batch 2 committing at the backup")
}

// TestLateBodyFetchesCapped: with more late slots than statusHelpLimit, one
// firing of the grace timer fetches the lowest statusHelpLimit of them and
// re-arms the timer for the rest.
func TestLateBodyFetchesCapped(t *testing.T) {
	var clients []int
	for i := 0; i < statusHelpLimit+2; i++ {
		clients = append(clients, 100+i)
	}
	lg := newLateBodyGroup(t, clients, func(c *Config) { c.Window = 16 })
	done := 0
	lg.submitLarge(clients, &done)
	backup := lg.replicas[lateBackup]
	for n := int64(1); n <= int64(len(clients)); n++ {
		if s := backup.log[n]; s == nil || s.missing != 1 {
			t.Fatalf("setup: backup should miss the body of batch %d", n)
		}
	}
	lg.c.advance(lg.grace())
	if len(lg.fetches) != statusHelpLimit {
		t.Fatalf("first firing sent %d fetches, want %d", len(lg.fetches), statusHelpLimit)
	}
	for i, f := range lg.fetches {
		if f.Index != int64(i+1) {
			t.Fatalf("fetch %d is for seq %d, want %d (lowest first)", i, f.Index, i+1)
		}
	}
	if !backup.bodyFetchArmed || lg.c.timers[lateBackup][timerBodyFetch] == nil {
		t.Fatal("capped firing did not re-arm the grace timer")
	}
	lg.c.advance(lg.grace())
	if len(lg.fetches) != len(clients) {
		t.Fatalf("after the second firing %d fetches, want %d", len(lg.fetches), len(clients))
	}
	lg.c.run(func() bool { return backup.LastExecuted() == int64(len(clients)) }, time.Second, "backup executing every batch")
}

// TestDecideNewViewIsPureFunction: the new-view decision must be a pure,
// deterministic function of the view-change set — primaries and backups
// evaluate it independently and must agree bit for bit.
func TestDecideNewViewIsPureFunction(t *testing.T) {
	cfg := DefaultConfig(4, 0)
	gen := func(seed int64) map[int32]*vcRecord {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec
		vcs := make(map[int32]*vcRecord)
		for origin := int32(0); origin < 4; origin++ {
			if rng.Intn(5) == 0 && origin > 0 {
				continue // sometimes a VC is missing
			}
			var p, q []message.PQEntry
			for n := int64(1); n <= 6; n++ {
				if rng.Intn(2) == 0 {
					e := message.PQEntry{Seq: n, View: int64(rng.Intn(3)), Digest: digestOfByte(byte(rng.Intn(3)))}
					q = append(q, e)
					if rng.Intn(2) == 0 {
						p = append(p, e)
					}
				}
			}
			vcs[origin] = vcRec(origin, int64(rng.Intn(2))*4, digestOfByte(1), p, q)
		}
		return vcs
	}
	for seed := int64(0); seed < 200; seed++ {
		a := gen(seed)
		b := gen(seed)
		m1, d1, b1, ok1 := decideNewView(cfg, a)
		m2, d2, b2, ok2 := decideNewView(cfg, b)
		if ok1 != ok2 || m1 != m2 || d1 != d2 || !sameBatches(b1, b2) {
			t.Fatalf("seed %d: decision not deterministic", seed)
		}
		// Re-evaluate the same map (exercises map-iteration order).
		m3, d3, b3, ok3 := decideNewView(cfg, a)
		if ok1 != ok3 || m1 != m3 || d1 != d3 || !sameBatches(b1, b3) {
			t.Fatalf("seed %d: decision depends on map iteration order", seed)
		}
	}
}

// TestSnapshotRoundTripAtReplicaLevel checks the replica's composite
// snapshot (client table + service state) restores to an identical
// checkpoint digest.
func TestSnapshotRoundTripAtReplicaLevel(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	for i := 0; i < 5; i++ {
		g.invoke(100, opAppend("k", "x"), false)
	}
	r := g.replicas[2]
	ids := r.sortedClients()
	want := r.checkpointDigest(ids)
	r.retainCheckpoint(99, ids)
	snap := r.snapshotAt(99)

	// Restore into a sibling replica built fresh.
	g2 := buildGroup(t, 4, []int{100}, nil)
	g2.c.start()
	r2 := g2.replicas[2]
	if err := r2.restoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if r2.checkpointDigest(r2.sortedClients()) != want {
		t.Fatal("restored checkpoint digest differs")
	}
}

// TestSnapshotPropertyRandomTables round-trips the replica snapshot with
// randomized client tables.
func TestSnapshotPropertyRandomTables(t *testing.T) {
	g := buildGroup(t, 4, []int{100}, nil)
	g.c.start()
	r := g.replicas[0]

	f := func(ids []int32, results [][]byte) bool {
		r.clients = make(map[int32]*clientRecord)
		for i, id := range ids {
			if id < 0 {
				id = -id
			}
			result := []byte{}
			if i < len(results) {
				result = results[i]
			}
			r.clients[id] = &clientRecord{
				lastTimestamp: int64(i + 1),
				lastReply: &message.Reply{
					Timestamp: int64(i + 1), Client: id, Full: true,
					Result: result, ResultD: crypto.Hash(result),
				},
			}
		}
		sorted := r.sortedClients()
		want := r.checkpointDigest(sorted)
		r.retainCheckpoint(99, sorted)
		snap := r.snapshotAt(99)
		r.clients = make(map[int32]*clientRecord)
		if err := r.restoreSnapshot(snap); err != nil {
			return false
		}
		return r.checkpointDigest(r.sortedClients()) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
