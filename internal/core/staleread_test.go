package core

import (
	"testing"
	"time"

	"bftfast/internal/linearizability"
	"bftfast/internal/message"
	"bftfast/internal/proc"
)

// staleKV wraps kvSM but answers reads with the PREVIOUS value of each key
// — a Byzantine replica serving stale data. Writes are applied honestly so
// the replica keeps participating in ordering.
type staleKV struct {
	*kvSM
	previous map[string]string
}

func newStaleKV() *staleKV {
	return &staleKV{kvSM: newKVSM(), previous: make(map[string]string)}
}

func (s *staleKV) Execute(client int32, op []byte, readOnly bool) []byte {
	parts := splitOp(op)
	if len(parts) == 2 && parts[0] == "get" {
		return []byte(s.previous[parts[1]])
	}
	if len(parts) == 3 && parts[0] == "set" && !readOnly {
		s.previous[parts[1]] = s.kvSM.data[parts[1]]
	}
	return s.kvSM.Execute(client, op, readOnly)
}

func splitOp(op []byte) []string {
	var parts []string
	start := 0
	for i, b := range op {
		if b == 0 {
			parts = append(parts, string(op[start:i]))
			start = i + 1
		}
	}
	return append(parts, string(op[start:]))
}

// TestReadOnlyQuorumProtectsAgainstStaleReads reconstructs the paper's
// §3.1 warning: the read-only optimization preserves linearizability only
// because clients demand 2f+1 matching read-only replies. The adversary
// here combines the two ways a reply can be stale — a Byzantine replica
// that answers reads with old values, and an honest replica cut off from
// ordering traffic (so its state lags) but still reachable by read-only
// requests. With f+1 = 2 matching stale replies available, a weaker client
// rule would return the old value after the new write committed; the
// 2f+1 rule forces the client through the ordered path instead.
func TestReadOnlyQuorumProtectsAgainstStaleReads(t *testing.T) {
	commitModes(t, testReadOnlyQuorumProtectsAgainstStaleReads)
}

func testReadOnlyQuorumProtectsAgainstStaleReads(t *testing.T, pb bool) {
	const n = 4
	ids := []int{100, 101}
	// Digest replies are off so every reply carries a full body: the test
	// isolates the read-only quorum rule itself.
	g := buildGroup(t, n, ids, func(c *Config) {
		c.Opts.PiggybackCommits = pb
		c.Opts.DigestReplies = false
	})

	// Replace replica 3's state machine with the stale-serving liar.
	liar := newStaleKV()
	rep, err := NewReplica(g.replicas[3].cfg, liar, g.tables[3], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.replicas[3] = rep
	g.c.handlers[3] = rep

	lagging := false
	freshRepliesToDrop := 0
	g.c.drop = func(src, dst int, data []byte) bool {
		if len(data) == 0 {
			return false
		}
		if lagging && dst == 2 {
			switch message.Type(data[0]) {
			case message.TypePrePrepare, message.TypePrepare, message.TypeCommit:
				return true // replica 2 stops learning about new ordering
			}
		}
		// Make the stale replies win the race: the fresh replicas' first
		// replies to the reading client are lost (UDP may do that), so the
		// client holds a full stale pair before any fresh evidence.
		if freshRepliesToDrop > 0 && dst == 101 && (src == 0 || src == 1) &&
			message.Type(data[0]) == message.TypeReply {
			freshRepliesToDrop--
			return true
		}
		return false
	}
	g.c.start()

	rec := linearizability.NewRecorder()
	record := func(kind linearizability.Kind, value string, invoke, ret time.Duration) {
		rec.Record("r", linearizability.Op{Client: 100, Kind: kind, Value: value, Invoke: invoke, Return: ret})
	}

	// Committed baseline value.
	inv := g.c.now
	if res := g.invoke(100, opSet("r", "old"), false); string(res) != "ok" {
		t.Fatal("baseline write failed")
	}
	record(linearizability.Write, "old", inv, g.c.now)

	// Cut replica 2 off from ordering and commit a new value at {0,1,3}.
	lagging = true
	inv = g.c.now
	if res := g.invoke(100, opSet("r", "new"), false); string(res) != "ok" {
		t.Fatal("write during partial partition failed")
	}
	record(linearizability.Write, "new", inv, g.c.now)

	// A read-only request now finds two stale repliers: honest-but-lagging
	// replica 2 and the liar replica 3 — and the fresh replicas' replies
	// are delayed past them.
	freshRepliesToDrop = 2
	inv = g.c.now
	got := g.invoke(101, opGet("r"), true)
	record(linearizability.Read, string(got), inv, g.c.now)

	if err := rec.CheckAll(); err != nil {
		t.Fatalf("stale read escaped the 2f+1 read-only rule: %v", err)
	}
	if string(got) != "new" {
		t.Fatalf("read returned %q, want the committed value", got)
	}
}

var _ proc.Handler = (*Replica)(nil)
