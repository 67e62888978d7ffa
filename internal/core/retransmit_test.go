package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

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

	pps := primary.rebuildPrePrepares(s, nil)
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
