package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bftfast/internal/linearizability"
)

// runLinearizabilityWorkload drives concurrent readers and writers on one
// register key through the group, recording a real-time history, and
// checks it with the linearizability checker. The read-only optimization
// makes this interesting: reads take the single-round-trip path, and the
// paper's claim is that 2f+1 matching replies keep them linearizable.
func runLinearizabilityWorkload(t *testing.T, g *group, writers, readers, opsEach int) {
	t.Helper()
	rec := linearizability.NewRecorder()
	pending := 0

	submit := func(clientID int, op []byte, readOnly bool, kind linearizability.Kind, wrote string) {
		pending++
		invoke := g.c.now
		g.clients[clientID].Submit(op, readOnly, func(res []byte) {
			pending--
			value := wrote
			if kind == linearizability.Read {
				value = string(res)
			}
			rec.Record("r", linearizability.Op{
				Client: clientID,
				Kind:   kind,
				Value:  value,
				Invoke: invoke,
				Return: g.c.now,
			})
		})
	}

	clientID := 100
	var allIDs []int
	for i := 0; i < writers+readers; i++ {
		allIDs = append(allIDs, clientID+i)
	}
	_ = allIDs

	rng := rand.New(rand.NewSource(5)) //nolint:gosec
	for round := 0; round < opsEach; round++ {
		for w := 0; w < writers; w++ {
			id := clientID + w
			val := fmt.Sprintf("w%d-%d", w, round)
			submit(id, opSet("r", val), false, linearizability.Write, val)
		}
		for r := 0; r < readers; r++ {
			id := clientID + writers + r
			submit(id, opGet("r"), true, linearizability.Read, "")
		}
		// Let a random slice of the round progress before the next one so
		// operations overlap in interesting ways.
		g.c.advance(time.Duration(rng.Intn(40)) * time.Millisecond)
	}
	g.c.run(func() bool { return pending == 0 }, 120*time.Second, "all recorded ops")

	if rec.Ops() != (writers+readers)*opsEach {
		t.Fatalf("recorded %d ops, want %d", rec.Ops(), (writers+readers)*opsEach)
	}
	if err := rec.CheckAll(); err != nil {
		t.Fatalf("history not linearizable: %v", err)
	}
}

func TestLinearizabilityHealthyGroup(t *testing.T) { commitModes(t, testLinearizabilityHealthyGroup) }

func testLinearizabilityHealthyGroup(t *testing.T, pb bool) {
	ids := []int{100, 101, 102, 103, 104}
	g := buildGroup(t, 4, ids, piggyback(pb))
	g.c.start()
	runLinearizabilityWorkload(t, g, 2, 3, 6)
}

func TestLinearizabilityUnderLoss(t *testing.T) { commitModes(t, testLinearizabilityUnderLoss) }

func testLinearizabilityUnderLoss(t *testing.T, pb bool) {
	ids := []int{100, 101, 102, 103, 104}
	g := buildGroup(t, 4, ids, func(c *Config) {
		c.Opts.PiggybackCommits = pb
		c.ViewChangeTimeout = time.Second
	})
	rng := rand.New(rand.NewSource(3)) //nolint:gosec
	g.c.drop = func(src, dst int, data []byte) bool { return rng.Float64() < 0.08 }
	g.c.start()
	runLinearizabilityWorkload(t, g, 2, 3, 5)
}

func TestLinearizabilityAcrossPrimaryCrash(t *testing.T) {
	commitModes(t, testLinearizabilityAcrossPrimaryCrash)
}

func testLinearizabilityAcrossPrimaryCrash(t *testing.T, pb bool) {
	ids := []int{100, 101, 102, 103}
	g := buildGroup(t, 4, ids, piggyback(pb))
	g.c.start()

	rec := linearizability.NewRecorder()
	pending := 0
	submit := func(clientID int, op []byte, readOnly bool, kind linearizability.Kind, wrote string) {
		pending++
		invoke := g.c.now
		g.clients[clientID].Submit(op, readOnly, func(res []byte) {
			pending--
			value := wrote
			if kind == linearizability.Read {
				value = string(res)
			}
			rec.Record("r", linearizability.Op{
				Client: clientID, Kind: kind, Value: value, Invoke: invoke, Return: g.c.now,
			})
		})
	}

	// A first wave against the healthy group.
	for i, id := range ids {
		if i%2 == 0 {
			val := fmt.Sprintf("pre-%d", id)
			submit(id, opSet("r", val), false, linearizability.Write, val)
		} else {
			submit(id, opGet("r"), true, linearizability.Read, "")
		}
	}
	g.c.run(func() bool { return pending == 0 }, 60*time.Second, "pre-crash wave")

	// Crash the primary mid-run and issue a second wave.
	g.crash(0)
	for i, id := range ids {
		if i%2 == 0 {
			val := fmt.Sprintf("post-%d", id)
			submit(id, opSet("r", val), false, linearizability.Write, val)
		} else {
			submit(id, opGet("r"), true, linearizability.Read, "")
		}
	}
	g.c.run(func() bool { return pending == 0 }, 60*time.Second, "post-crash wave")

	if err := rec.CheckAll(); err != nil {
		t.Fatalf("history across the view change not linearizable: %v", err)
	}
}
