package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/kvservice"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// countingKV is a kvservice store that counts the rollbacks the replica
// asks of it. The embedded methods carry the Checkpointer capability.
type countingKV struct {
	*kvservice.Service
	rollbacks int
}

func (c *countingKV) RollbackTo(seq int64) error {
	c.rollbacks++
	return c.Service.RollbackTo(seq)
}

// fourMethods hides everything but the StateMachine methods of a service,
// as any wrapper written against the four-method interface does; the
// replica then retains checkpoints through the whole-state adapter.
type fourMethods struct{ sm StateMachine }

func (f fourMethods) Execute(client int32, op []byte, readOnly bool) []byte {
	return f.sm.Execute(client, op, readOnly)
}
func (f fourMethods) StateDigest() crypto.Digest { return f.sm.StateDigest() }
func (f fourMethods) Snapshot() []byte           { return f.sm.Snapshot() }
func (f fourMethods) Restore(snap []byte) error  { return f.sm.Restore(snap) }

// scenarioResult is everything two runs of checkpointScenario must agree
// on, whichever way their replicas retain checkpoints.
type scenarioResult struct {
	replies   []string // "<client>:<result>" in completion order
	digests   []crypto.Digest
	trace     []byte // merged BFTTRC01
	rollbacks int    // RollbackTo calls seen by the native stores
}

// checkpointScenario drives one fixed schedule through a 4-replica group
// over kvservice stores — native[i] hands replica i the store itself (the
// Checkpointer capability), otherwise it sits behind fourMethods:
//
//  1. lossy network (seeded 12 % loss) across several checkpoints;
//  2. a batch prepares and executes tentatively at one backup only, the
//     view changes without that backup's view-change message, and the
//     backup has to undo the batch;
//  3. a replica is partitioned until the others collect the log it would
//     need, then heals and is brought up by state transfer;
//  4. the primary dies and the group carries on in the next view.
//
// Before every delivery it checks the bound on retained checkpoints.
func checkpointScenario(t *testing.T, native [4]bool) scenarioResult {
	t.Helper()
	const interval, window = 4, 8
	const bound = window/interval + 1
	stores := make([]*countingKV, 4)
	adapters := make([]*wholeState, 4)
	g, recs := tracedGroupSM(t, 4, []int{100, 101}, func(c *Config) {
		c.CheckpointInterval = interval
		c.LogWindow = window
		c.ViewChangeTimeout = time.Second
	}, func(i int) StateMachine {
		stores[i] = &countingKV{Service: kvservice.New()}
		if native[i] {
			return stores[i]
		}
		return fourMethods{stores[i]}
	})
	for i, r := range g.replicas {
		if w, ok := r.cp.(*wholeState); ok {
			adapters[i] = w
		} else if !native[i] {
			t.Fatalf("replica %d: hidden service did not get the adapter", i)
		}
	}

	rng := rand.New(rand.NewSource(5)) //nolint:gosec // deterministic chaos
	loss := 0.12
	partitioned, dead := -1, -1
	var crafted func(src, dst int, data []byte) bool
	g.c.drop = func(src, dst int, data []byte) bool {
		if src == dead || dst == dead || src == partitioned || dst == partitioned {
			return true
		}
		if crafted != nil && crafted(src, dst, data) {
			return true
		}
		return loss > 0 && rng.Float64() < loss
	}
	g.c.observe = func(int, int, []byte) {
		for i, r := range g.replicas {
			if n := len(r.ckTables); n > bound {
				t.Fatalf("replica %d retains %d checkpoints, bound is %d", i, n, bound)
			}
			n := stores[i].Checkpoints()
			if adapters[i] != nil {
				n = len(adapters[i].snaps)
			}
			if n != len(r.ckTables) {
				t.Fatalf("replica %d retains %d client tables but its service %d checkpoints", i, len(r.ckTables), n)
			}
		}
	}
	g.c.start()

	var res scenarioResult
	done := 0
	submit := func(client int, op []byte) {
		g.clients[client].Submit(op, false, func(r []byte) {
			res.replies = append(res.replies, fmt.Sprintf("%d:%s", client, r))
			done++
		})
	}
	waitAll := func(want int, what string) {
		t.Helper()
		g.c.run(func() bool { return done == want }, 60*time.Second, what)
	}
	viewChanges := func(i int) int64 { return g.replicas[i].Stats().ViewChanges }

	// 1. Lossy ordering across several checkpoints; keys overlap so that
	// undo maps hold overwritten and deleted keys.
	for i := 0; i < 12; i++ {
		submit(100, kvservice.SetOp(fmt.Sprintf("k%d", i%5), fmt.Sprintf("a%d", i)))
		submit(101, kvservice.SetOp(fmt.Sprintf("k%d", i%3), fmt.Sprintf("b%d", i)))
		if i%4 == 3 {
			submit(100, kvservice.DelOp(fmt.Sprintf("k%d", i%5)))
		}
	}
	waitAll(27, "lossy phase")
	loss = 0
	g.c.advance(6 * time.Second)
	view := g.replicas[0].View()
	for i, r := range g.replicas {
		if r.View() != view {
			t.Fatalf("replica %d in view %d, replica 0 in view %d after the lossy phase", i, r.View(), view)
		}
	}

	// 2. Tentative execution at one backup only, then a view change that
	// does not hear from it. The victim is neither the primary nor the next
	// one; prepares reach only the victim, nothing commits, and the
	// victim's view-change messages are lost, so the new view is decided
	// from the other three, none of which prepared the batch: it becomes a
	// null request and the victim rolls back.
	primary := g.replicas[0].cfg.PrimaryOf(view)
	victim := (primary + 2) % 4
	execBefore := g.replicas[victim].LastExecuted()
	crafted = func(src, dst int, data []byte) bool {
		switch message.Type(data[0]) {
		case message.TypePrepare:
			return dst != victim
		case message.TypeCommit:
			return true
		case message.TypeViewChange, message.TypeViewChangeAck:
			return src == victim
		}
		return false
	}
	before := viewChanges(primary)
	submit(100, kvservice.SetOp("k1", "tentative"))
	g.c.run(func() bool { return viewChanges(primary) > before }, 30*time.Second, "view change past the tentative batch")
	crafted = nil
	waitAll(28, "operation re-proposed in the new view")
	g.c.advance(3 * time.Second)
	if g.replicas[victim].LastExecuted() <= execBefore {
		t.Fatalf("victim %d never executed past %d", victim, execBefore)
	}

	// 3. A replica misses more than the log window and is brought up by
	// state transfer, from checkpoints its peers materialize on demand.
	partitioned = (g.replicas[0].cfg.PrimaryOf(g.replicas[0].View()) + 1) % 4
	transfersBefore := g.replicas[partitioned].Stats().StateTransfers
	for i := 0; i < 14; i++ {
		submit(101, kvservice.SetOp(fmt.Sprintf("k%d", i%4), fmt.Sprintf("c%d", i)))
	}
	waitAll(42, "operations past the partitioned replica's window")
	lagging := partitioned
	partitioned = -1
	target := g.replicas[(lagging+1)%4].LastExecuted()
	g.c.run(func() bool { return g.replicas[lagging].LastExecuted() >= target }, 30*time.Second, "state transfer")
	if g.replicas[lagging].Stats().StateTransfers == transfersBefore {
		t.Fatalf("replica %d caught up without a state transfer", lagging)
	}

	// 4. Dead primary.
	dead = g.replicas[lagging].cfg.PrimaryOf(g.replicas[lagging].View())
	survivor := (dead + 1) % 4
	before = viewChanges(survivor)
	for i := 0; i < 6; i++ {
		submit(100, kvservice.SetOp("k0", fmt.Sprintf("d%d", i)))
	}
	waitAll(48, "operations across the primary's death")
	if viewChanges(survivor) == before {
		t.Fatal("no view change with the primary dead")
	}
	g.c.advance(3 * time.Second)

	var want crypto.Digest
	for i, st := range stores {
		res.digests = append(res.digests, st.StateDigest())
		res.rollbacks += st.rollbacks
		if i == dead {
			continue
		}
		if want == (crypto.Digest{}) {
			want = st.StateDigest()
		} else if st.StateDigest() != want {
			t.Fatalf("live replica %d ends with a different store digest", i)
		}
	}
	ordered := make([]*obs.Recorder, 0, len(recs))
	for i := 0; i < len(recs); i++ {
		ordered = append(ordered, recs[i])
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, obs.Merge(ordered...)); err != nil {
		t.Fatal(err)
	}
	res.trace = buf.Bytes()
	return res
}

// TestCheckpointerAndAdapterAreIndistinguishable runs the scenario with
// every replica on the native capability, with every service hidden behind
// the four StateMachine methods, and with two of each: clients must see
// the same reply bytes in the same order, stores must end at the same
// digests and the protocol trace must be byte-identical — which covers the
// fragments a lazy SnapshotAt serves against an eager Snapshot, rollback
// against Restore-and-replay, and a mixed group completing a state
// transfer.
func TestCheckpointerAndAdapterAreIndistinguishable(t *testing.T) {
	nativeRun := checkpointScenario(t, [4]bool{true, true, true, true})
	if nativeRun.rollbacks == 0 {
		t.Fatal("scenario never rolled tentative execution back through the capability")
	}
	for name, native := range map[string][4]bool{
		"hidden": {},
		"mixed":  {true, false, true, false},
		"mixed2": {false, true, false, true},
	} {
		got := checkpointScenario(t, native)
		if fmt.Sprint(got.replies) != fmt.Sprint(nativeRun.replies) {
			t.Errorf("%s: replies differ from the native run:\n%v\n%v", name, got.replies, nativeRun.replies)
		}
		if fmt.Sprint(got.digests) != fmt.Sprint(nativeRun.digests) {
			t.Errorf("%s: final store digests differ from the native run", name)
		}
		if !bytes.Equal(got.trace, nativeRun.trace) {
			t.Errorf("%s: trace differs from the native run (%d vs %d bytes)", name, len(got.trace), len(nativeRun.trace))
		}
	}
}

// TestCheckpointMaterializedOnlyOnFetch: taking checkpoints serializes
// nothing; the first fetch of a checkpoint serializes it once, and the
// counter says so.
func TestCheckpointMaterializedOnlyOnFetch(t *testing.T) {
	regs := make([]*obs.Registry, 4)
	g := buildGroupSM(t, 4, []int{100}, func(c *Config) {
		c.CheckpointInterval = 4
		c.LogWindow = 8
	}, func(int) StateMachine { return kvservice.New() })
	for i, r := range g.replicas {
		regs[i] = obs.NewRegistry()
		r.RegisterMetrics(regs[i], "engine.")
	}
	g.crash(3)
	g.c.start()
	for i := 0; i < 30; i++ {
		g.invoke(100, kvservice.SetOp("k", fmt.Sprint(i)), false)
	}
	for i := 0; i < 3; i++ {
		if _, m := g.replicas[i].Checkpoints(); m != 0 {
			t.Fatalf("replica %d materialized %d checkpoints with nobody fetching", i, m)
		}
		if g.replicas[i].Stats().StableCheckpoints == 0 {
			t.Fatalf("replica %d has no stable checkpoint", i)
		}
	}
	g.c.drop = nil
	target := g.replicas[1].LastExecuted()
	g.c.run(func() bool { return g.replicas[3].LastExecuted() >= target }, 30*time.Second, "state transfer")
	var total int64
	for i := 0; i < 3; i++ {
		_, m := g.replicas[i].Checkpoints()
		total += m
		got, _ := regs[i].Get("engine.checkpoint.materialized")
		if got.Value != m {
			t.Fatalf("replica %d: registry says %d materialized, engine %d", i, got.Value, m)
		}
		retained, _ := regs[i].Get("engine.checkpoint.retained")
		if n, _ := g.replicas[i].Checkpoints(); retained.Value != int64(n) || n == 0 {
			t.Fatalf("replica %d: registry says %d retained, engine %d", i, retained.Value, n)
		}
	}
	if total == 0 {
		t.Fatal("a state transfer completed and nobody materialized a checkpoint")
	}
}
