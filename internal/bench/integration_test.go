package bench

import (
	"math/rand"
	"testing"
	"time"

	"bftfast/internal/bfs"
	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/fs"
	"bftfast/internal/message"
	"bftfast/internal/proc"
	"bftfast/internal/sim"
	"bftfast/internal/workload"
)

// dropFunc reports whether the datagram src sends to dst is lost.
type dropFunc func(src, dst int, data []byte) bool

// lossyEnv loses, at the sender, the datagrams its group's drop function
// picks; a nil function loses none.
type lossyEnv struct {
	proc.Env
	self int
	drop *dropFunc
}

func (e lossyEnv) Send(dst int, data []byte) {
	if *e.drop == nil || !(*e.drop)(e.self, dst, data) {
		e.Env.Send(dst, data)
	}
}

func (e lossyEnv) Multicast(dsts []int, data []byte) {
	if *e.drop == nil {
		e.Env.Multicast(dsts, data)
		return
	}
	kept := make([]int, 0, len(dsts))
	for _, dst := range dsts {
		if !(*e.drop)(e.self, dst, data) {
			kept = append(kept, dst)
		}
	}
	if len(kept) > 0 {
		e.Env.Multicast(kept, data)
	}
}

// lossyNode runs a handler over a lossyEnv.
type lossyNode struct {
	proc.Handler
	self int
	drop *dropFunc
}

func (n lossyNode) Init(env proc.Env) { n.Handler.Init(lossyEnv{Env: env, self: n.self, drop: n.drop}) }

// countingBFS is a BFS service that counts its successful rollbacks. The
// embedded methods carry the Checkpointer capability.
type countingBFS struct {
	*bfs.Service
	rollbacks int
}

func (c *countingBFS) RollbackTo(seq int64) error {
	err := c.Service.RollbackTo(seq)
	if err == nil {
		c.rollbacks++
	}
	return err
}

// fourMethods hides a BFS service's Checkpointer capability, as any
// wrapper written against the four-method interface does; the replica then
// retains checkpoints through the whole-state adapter.
type fourMethods struct{ s *bfs.Service }

func (f fourMethods) Execute(client int32, op []byte, readOnly bool) []byte {
	return f.s.Execute(client, op, readOnly)
}
func (f fourMethods) StateDigest() crypto.Digest { return f.s.StateDigest() }
func (f fourMethods) Snapshot() []byte           { return f.s.Snapshot() }
func (f fourMethods) Restore(snap []byte) error  { return f.s.Restore(snap) }
func (f fourMethods) SetEnv(env proc.Env)        { f.s.SetEnv(env) }

// bfsGroup is a simulated BFS group of n replicas (ids 0..n-1) and one
// PostMark client (id n), every node sending through drop.
type bfsGroup struct {
	s        *sim.Simulator
	services []*countingBFS
	replicas []*core.Replica
	runner   *workload.PostMark
	work     *fsWorkNode
	drop     dropFunc
}

// newBFSGroup builds the group. mutate adjusts every replica's config and
// hide lists the replicas whose service is behind fourMethods.
func newBFSGroup(t *testing.T, n int, pm workload.PostMarkConfig, mutate func(*core.Config), hide ...int) *bfsGroup {
	t.Helper()
	g := &bfsGroup{
		s:        sim.New(sim.DefaultCostModel(), 11),
		services: make([]*countingBFS, n),
		replicas: make([]*core.Replica, n),
		runner:   workload.NewPostMark(pm),
	}
	rng := rand.New(rand.NewSource(11)) //nolint:gosec // deterministic simulation
	tables := make([]*crypto.KeyTable, n+1)
	for i := range tables {
		tables[i] = crypto.NewKeyTable(i)
	}
	if err := crypto.ProvisionAll(rng, tables); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		i := i
		g.s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
			cfg := core.DefaultConfig(n, i)
			if mutate != nil {
				mutate(&cfg)
			}
			g.services[i] = &countingBFS{Service: bfs.NewService(bfs.BFSProfile())}
			var sm core.StateMachine = g.services[i]
			for _, h := range hide {
				if h == i {
					sm = fourMethods{g.services[i].Service}
				}
			}
			rep, err := core.NewReplica(cfg, sm, tables[i], m, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.replicas[i] = rep
			return lossyNode{Handler: rep, self: i, drop: &g.drop}
		})
	}
	g.work = &fsWorkNode{start: g.runner.Start}
	g.s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
		ccfg := core.ClientConfig{
			N: n, Self: n, Opts: core.AllOptimizations(),
			InlineThreshold:   core.DefaultConfig(n, 0).InlineThreshold,
			RetransmitTimeout: 300 * time.Millisecond,
		}
		cl, err := core.NewClient(ccfg, tables[n], m)
		if err != nil {
			t.Fatal(err)
		}
		g.work.inner = cl
		g.work.fsc = fsAdapter{submit: func(op []byte, readOnly bool, done func([]byte)) {
			cl.Submit(op, readOnly, done)
		}}
		return lossyNode{Handler: g.work, self: n, drop: &g.drop}
	})
	return g
}

// finish runs PostMark to completion and lets the pipeline's tail settle.
func (g *bfsGroup) finish(t *testing.T) {
	t.Helper()
	limit := 30 * time.Second
	g.s.Run(limit)
	for !g.work.Done && limit < 10*time.Minute {
		limit += 30 * time.Second
		g.s.Resume(limit)
	}
	if !g.work.Done {
		t.Fatal("PostMark did not finish on the replicated service")
	}
	if g.runner.Errors() != 0 {
		t.Fatalf("%d operation errors", g.runner.Errors())
	}
	g.s.Resume(limit + 5*time.Second)
}

// agree checks that every replica listed that has executed as far as the
// first has the same file system; it returns how many have.
func (g *bfsGroup) agree(t *testing.T, ids ...int) int {
	t.Helper()
	base := g.replicas[ids[0]]
	caughtUp := 1
	for _, i := range ids[1:] {
		if g.replicas[i].LastExecuted() == base.LastExecuted() {
			caughtUp++
			if g.services[i].StateDigest() != g.services[ids[0]].StateDigest() {
				t.Fatalf("replica %d file system diverged from replica %d", i, ids[0])
			}
		}
	}
	return caughtUp
}

// TestBFSReplicasConvergeUnderPostMark runs the PostMark workload through a
// full simulated BFT group and checks that all four replicas' file systems
// end bit-identical — the replication invariant under a realistic service.
func TestBFSReplicasConvergeUnderPostMark(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pm := workload.DefaultPostMark()
	pm.InitialFiles = 60
	pm.Transactions = 300
	g := newBFSGroup(t, 4, pm, nil)
	g.finish(t)
	if caughtUp := g.agree(t, 0, 1, 2, 3); caughtUp < 3 {
		t.Fatalf("only %d replicas caught up with replica 0", caughtUp)
	}
	// And the ordering made real progress.
	if g.replicas[0].LastExecuted() < int64(pm.Transactions) {
		t.Fatalf("replica 0 executed only %d batches for %d transactions",
			g.replicas[0].LastExecuted(), pm.Transactions)
	}
}

// ordering returns the view and sequence number of a prepare or commit,
// and whether data is one.
func ordering(data []byte) (view, seq int64, ok bool) {
	m, err := message.Unmarshal(data)
	if err != nil {
		return 0, 0, false
	}
	switch m := m.(type) {
	case *message.Prepare:
		return m.View, m.Seq, true
	case *message.Commit:
		return m.View, m.Seq, true
	}
	return 0, 0, false
}

// onWrite calls at, once, as the client submits the first file write
// after when reports true. A write is not idempotent (it moves the file's
// mtime), so a batch executed once too often or too few times shows in
// the state digest.
func (g *bfsGroup) onWrite(when func() bool, at func()) {
	submit, fired := g.work.fsc, false
	g.work.fsc = fsAdapter{submit: func(op []byte, readOnly bool, done func([]byte)) {
		if !fired && fs.OpCode(op[0]) == fs.OpWrite && when() {
			fired = true
			at()
		}
		submit.Call(op, readOnly, done)
	}}
}

// TestBFSPrimaryCrashRollsBack crashes the primary of a seven-replica BFS
// group mid-PostMark. Just before, one backup alone prepares a batch and
// executes it tentatively: prepares reach only it and nothing commits.
// Its view-change messages are then lost, so the new view is decided by
// the other five backups, none of which prepared the batch, and does not
// re-propose it at its sequence number. The victim must undo it in place through the file
// system's copy-on-write checkpoints — no state transfer — and every live
// replica must end with the same file system.
func TestBFSPrimaryCrashRollsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pm := workload.DefaultPostMark()
	pm.InitialFiles = 60
	pm.Transactions = 300
	const n, primary, victim = 7, 0, 2
	g := newBFSGroup(t, n, pm, nil)

	// Well past the first checkpoint, the next write is ordered in view 0
	// as a batch above seq0 and prepares at the victim only.
	var seq0 int64
	tentative := func(src, dst int, data []byte) bool {
		view, seq, ok := ordering(data)
		if !ok || view != 0 || seq <= seq0 {
			return false
		}
		return message.Type(data[0]) == message.TypeCommit || dst != victim
	}
	crashed := func(src, dst int, data []byte) bool {
		if src == primary || dst == primary || tentative(src, dst, data) {
			return true
		}
		typ := message.Type(data[0])
		return src == victim && (typ == message.TypeViewChange || typ == message.TypeViewChangeAck)
	}
	g.onWrite(func() bool { return g.replicas[victim].LastExecuted() >= 200 }, func() {
		for _, r := range g.replicas {
			seq0 = max(seq0, r.LastExecuted())
		}
		g.drop = tentative
		g.s.At(g.s.Now()+20*time.Millisecond, func() { g.drop = crashed })
	})
	g.finish(t)

	if g.services[victim].rollbacks == 0 {
		t.Fatalf("replica %d never rolled back", victim)
	}
	for i, s := range g.services {
		if transfers := g.replicas[i].Stats().StateTransfers; s.rollbacks > 0 && transfers != 0 {
			t.Fatalf("replica %d rolled back %d times and also took %d state transfers", i, s.rollbacks, transfers)
		}
	}
	if caughtUp := g.agree(t, 1, 2, 3, 4, 5, 6); caughtUp != n-1 {
		t.Fatalf("only %d of %d live replicas caught up", caughtUp, n-1)
	}
}

// TestBFSMixedGroupStateTransfer hides replica 1's Checkpointer, so it
// retains whole snapshots through core's adapter while its peers keep
// theirs copy-on-write. Replica 3 is cut off until the others have
// collected the log it would need, and when it comes back it may take
// state-transfer replies from replica 1 only: the fragments one
// implementation serves must verify at, and restore, the other.
func TestBFSMixedGroupStateTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	pm := workload.DefaultPostMark()
	pm.InitialFiles = 60
	pm.Transactions = 300
	const hidden, lagging = 1, 3
	g := newBFSGroup(t, 4, pm, func(c *core.Config) {
		c.CheckpointInterval = 16
		c.LogWindow = 32
	}, hidden)
	g.onWrite(func() bool { return g.replicas[0].LastExecuted() >= 100 }, func() {
		g.drop = func(src, dst int, data []byte) bool { return src == lagging || dst == lagging }
	})
	g.onWrite(func() bool { return g.replicas[0].LastExecuted() >= 300 }, func() {
		g.drop = func(src, dst int, data []byte) bool {
			typ := message.Type(data[0])
			return dst == lagging && src != hidden && (typ == message.TypeMeta || typ == message.TypeFragment)
		}
	})
	g.finish(t)

	if g.replicas[lagging].Stats().StateTransfers == 0 {
		t.Fatalf("replica %d caught up without a state transfer", lagging)
	}
	if g.services[hidden].FS().Checkpoints() != 0 {
		t.Fatalf("replica %d kept its checkpoints in its file system, not in core's adapter", hidden)
	}
	if _, served := g.replicas[hidden].Checkpoints(); served == 0 {
		t.Fatalf("replica %d never serialized a checkpoint for the transfer", hidden)
	}
	if caughtUp := g.agree(t, 0, 1, 2, 3); caughtUp != 4 {
		t.Fatalf("only %d of 4 replicas caught up", caughtUp)
	}
}
