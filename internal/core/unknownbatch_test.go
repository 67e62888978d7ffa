package core

import (
	"bytes"
	"testing"
	"time"

	"bftfast/internal/message"
)

// TestViewChangeReproposesBatchUnknownToOneReplica exercises the
// unknown-batch recovery path end to end: a large (separately transmitted)
// request prepares at three replicas while the fourth misses both the body
// and the pre-prepare; the primary then crashes; the new view re-proposes
// the prepared batch by digest, and the deprived replica must fetch its
// contents from peers before it can participate — and still end with
// identical state.
func TestViewChangeReproposesBatchUnknownToOneReplica(t *testing.T) {
	commitModes(t, testViewChangeReproposesBatchUnknownToOneReplica)
}

func testViewChangeReproposesBatchUnknownToOneReplica(t *testing.T, pb bool) {
	g := buildGroup(t, 4, []int{100}, piggyback(pb))

	large := string(bytes.Repeat([]byte("v"), 2000)) // > InlineThreshold
	phase := 0
	g.c.drop = func(src, dst int, data []byte) bool {
		if len(data) == 0 {
			return false
		}
		switch phase {
		case 1:
			// Deprive replica 3 of the client's body multicast and the
			// primary's pre-prepare; let prepares/commits flow so the rest
			// of the group prepares the batch.
			if dst == 3 && (message.Type(data[0]) == message.TypeRequest ||
				message.Type(data[0]) == message.TypePrePrepare) {
				return true
			}
			// And keep the batch from committing anywhere: block commits so
			// the view change must re-propose it.
			if message.Type(data[0]) == message.TypeCommit {
				return true
			}
		case 2:
			// Primary crashed.
			if src == 0 || dst == 0 {
				return true
			}
		}
		return false
	}

	batchFetches := 0
	g.c.observe = func(src, dst int, data []byte) {
		if src != 3 || len(data) == 0 || message.Type(data[0]) != message.TypeFetch {
			return
		}
		if m, err := message.Unmarshal(data); err == nil {
			if f, ok := m.(*message.Fetch); ok && f.Level == -1 {
				batchFetches++
			}
		}
	}

	g.c.start()
	g.invoke(100, opSet("warm", "up"), false)

	phase = 1
	done := 0
	g.invokeAsync(100, opSet("big", large), false, &done)
	// Let the batch prepare at replicas 0-2 (commits are blocked).
	g.c.advance(50 * time.Millisecond)
	prepared := 0
	for _, i := range []int{1, 2} {
		for _, s := range g.replicas[i].log {
			if s.prepared && !s.committed {
				prepared++
			}
		}
	}
	if prepared == 0 {
		t.Fatal("setup failed: nothing prepared-but-uncommitted at the backups")
	}

	phase = 2 // crash the primary; the view change must rescue the batch
	g.c.run(func() bool { return done == 1 }, 30*time.Second, "large op across view change")

	// Replica 3 never saw the batch contents before the new view chose its
	// digest; it must have fetched them and executed identically.
	g.c.run(func() bool {
		return g.sms[3].data["big"] == large
	}, 30*time.Second, "replica 3 recovering the unknown batch")
	g.agreeState(1, 2, 3)
	for _, i := range []int{1, 2, 3} {
		if got := g.sms[i].data["big"]; got != large {
			t.Fatalf("replica %d lost the re-proposed batch", i)
		}
	}
	if batchFetches == 0 {
		t.Fatal("replica 3 never issued a batch-content fetch; the unknown-batch path was not exercised")
	}
}
