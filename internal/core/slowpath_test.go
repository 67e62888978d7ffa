package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"bftfast/internal/message"
	"bftfast/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/slowpath.golden from the current engine")

const slowpathGolden = "testdata/slowpath.golden"

// nodeSends digests, in order, every datagram one node handed its
// environment: destination, length and bytes.
type nodeSends struct {
	h          hash.Hash
	datagrams  int
	bytes      int
	byType     map[message.Type]int
	lateBodies int // level -1 fetches naming missing entries
	batchAsks  int // level -1 fetches for a whole batch
	stateAsks  int // level 0 and 1 fetches
}

func (s *nodeSends) add(dst int, data []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(int32(dst)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(data)))
	s.h.Write(hdr[:])
	s.h.Write(data)
	s.datagrams++
	s.bytes += len(data)
	if len(data) == 0 {
		return
	}
	s.byType[message.Type(data[0])]++
	if message.Type(data[0]) != message.TypeFetch {
		return
	}
	m, err := message.Unmarshal(data)
	if err != nil {
		return
	}
	switch f := m.(*message.Fetch); {
	case f.Level >= 0:
		s.stateAsks++
	case len(f.Missing) > 0:
		s.lateBodies++
	default:
		s.batchAsks++
	}
}

func (s *nodeSends) line(node int) string {
	types := make([]string, 0, len(s.byType))
	for t, n := range s.byType {
		types = append(types, fmt.Sprintf("%s=%d", t, n))
	}
	sort.Strings(types)
	return fmt.Sprintf("node %d datagrams=%d bytes=%d sha256=%x %s",
		node, s.datagrams, s.bytes, s.h.Sum(nil), strings.Join(types, " "))
}

// slowpathResult is what one run of slowpathScenario pins.
type slowpathResult struct {
	sends map[int]*nodeSends
	trace []byte // merged BFTTRC01 of the four replicas
}

func (r slowpathResult) lines() []string {
	out := []string{fmt.Sprintf("trace bytes=%d sha256=%x", len(r.trace), sha256.Sum256(r.trace))}
	nodes := make([]int, 0, len(r.sends))
	for n := range r.sends {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		out = append(out, r.sends[n].line(n))
	}
	return out
}

// slowpathScenario drives one fixed-seed schedule through every catch-up
// path of the replica, over separately transmitted (400-byte) and inline
// request bodies:
//
//  1. a lossy link (seeded 10 % loss) across several checkpoints;
//  2. one client's body dropped on its way to one backup, which fetches it
//     from the leader after the grace period;
//  3. a batch executed tentatively at one backup only, then a view change
//     without that backup's view-change: it rolls back and replays;
//  4. a replica partitioned past a checkpoint, brought back by state
//     transfer;
//  5. a dead primary whose last batch prepared everywhere but at one
//     backup, which fetches the batch the new view re-proposes by digest;
//  6. a proactive recovery of a live replica.
func slowpathScenario(t *testing.T) slowpathResult {
	t.Helper()
	recs := make(map[int]*obs.Recorder)
	g := buildGroup(t, 4, []int{100, 101, 102}, func(c *Config) {
		rec := obs.NewRecorder(int32(c.Self), 1<<16)
		recs[c.Self] = rec
		c.Trace = rec
		c.CheckpointInterval = 4
		c.LogWindow = 8
		c.ViewChangeTimeout = time.Second
	})
	res := slowpathResult{sends: make(map[int]*nodeSends)}
	g.c.sent = func(src, dst int, data []byte) {
		s := res.sends[src]
		if s == nil {
			s = &nodeSends{h: sha256.New(), byType: make(map[message.Type]int)}
			res.sends[src] = s
		}
		s.add(dst, data)
	}
	rng := rand.New(rand.NewSource(3)) //nolint:gosec // deterministic loss
	loss := 0.10
	partitioned, dead := -1, -1
	var crafted func(src, dst int, data []byte) bool
	g.c.drop = func(src, dst int, data []byte) bool {
		if src == dead || dst == dead || src == partitioned || dst == partitioned {
			return true
		}
		if crafted != nil && len(data) > 0 && crafted(src, dst, data) {
			return true
		}
		return loss > 0 && rng.Float64() < loss
	}
	g.c.start()

	done := 0
	submit := func(client int, op []byte) {
		g.clients[client].Submit(op, false, func([]byte) { done++ })
	}
	waitAll := func(want int, what string) {
		t.Helper()
		g.c.run(func() bool { return done == want }, 60*time.Second, what)
	}
	big := func(key string, fill byte) []byte { return opSet(key, string(bytes.Repeat([]byte{fill}, 400))) }
	primaryOf := func(i int) int { return g.replicas[i].cfg.PrimaryOf(g.replicas[i].View()) }
	catchUp := func(i, from int, what string) {
		t.Helper()
		g.c.run(func() bool { return g.replicas[i].LastExecuted() >= g.replicas[from].LastExecuted() }, 30*time.Second, what)
	}

	// 1. Lossy link.
	for i := 0; i < 10; i++ {
		submit(100, opAppend("a", "x"))
		submit(101, big(fmt.Sprintf("big%d", i%3), byte('a'+i)))
		submit(102, opAppend("b", "y"))
	}
	waitAll(30, "lossy phase")
	loss = 0
	g.c.advance(3 * time.Second)
	primary := primaryOf(0)
	for i := range g.replicas {
		if primaryOf(i) != primary {
			t.Fatalf("replica %d disagrees on the primary after the lossy phase", i)
		}
	}

	// 2. A late separately transmitted body.
	late := (primary + 1) % 4
	droppedBody := false
	crafted = func(src, dst int, data []byte) bool {
		if !droppedBody && src == 101 && dst == late && message.Type(data[0]) == message.TypeRequest {
			droppedBody = true
			return true
		}
		return false
	}
	submit(101, big("late", 'L'))
	waitAll(31, "operation with a late body")
	crafted = nil
	catchUp(late, primary, "backup fetching the late body")
	if res.sends[late].lateBodies == 0 {
		t.Fatalf("replica %d never fetched the dropped body", late)
	}

	// 3. Tentative execution at one backup only, then a view change that
	// does not hear from it (see checkpointScenario).
	victim := (primary + 2) % 4
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
	before := g.replicas[primary].Stats().ViewChanges
	submit(100, opAppend("a", "tentative"))
	g.c.run(func() bool { return g.replicas[primary].Stats().ViewChanges > before }, 30*time.Second, "view change past the tentative batch")
	crafted = nil
	waitAll(32, "operation re-proposed in the new view")
	g.c.advance(3 * time.Second)

	// 4. Partition past a checkpoint, then state transfer.
	partitioned = (primaryOf(0) + 1) % 4
	lagging := partitioned
	transfers := g.replicas[lagging].Stats().StateTransfers
	for i := 0; i < 14; i++ {
		submit(101+i%2, opAppend("c", fmt.Sprint(i%10)))
	}
	waitAll(46, "operations past the partitioned replica's window")
	partitioned = -1
	catchUp(lagging, (lagging+1)%4, "state transfer")
	if g.replicas[lagging].Stats().StateTransfers == transfers {
		t.Fatalf("replica %d caught up without a state transfer", lagging)
	}
	g.c.advance(time.Second)

	// 5. The primary dies with its last batch prepared everywhere but at
	// one backup, which never saw the body or the pre-prepare.
	primary = primaryOf(lagging)
	deprived := (primary + 3) % 4
	crafted = func(src, dst int, data []byte) bool {
		switch message.Type(data[0]) {
		case message.TypeRequest, message.TypePrePrepare:
			return dst == deprived
		case message.TypeCommit:
			return true
		}
		return false
	}
	submit(101, big("unknown", 'U'))
	g.c.advance(50 * time.Millisecond)
	dead = primary
	crafted = nil
	waitAll(47, "operation across the primary's death")
	catchUp(deprived, (primary+1)%4, "backup fetching the re-proposed batch")
	if res.sends[deprived].batchAsks == 0 {
		t.Fatalf("replica %d never fetched the unknown batch", deprived)
	}

	// 6. Proactive recovery of a live replica.
	recovering := (primary + 2) % 4
	g.replicas[recovering].ScheduleRecovery(50 * time.Millisecond)
	g.c.advance(200 * time.Millisecond)
	for i := 0; i < 3; i++ {
		submit(102, opAppend("b", "z"))
		waitAll(48+i, "operation after recovery")
	}
	g.c.advance(3 * time.Second)
	var live []int
	for i := range g.replicas {
		if i != dead {
			live = append(live, i)
		}
	}
	g.agreeState(live...)

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

// TestSlowPathGolden pins what every node sends, datagram by datagram, and
// the replicas' merged trace across slowpathScenario. The file was
// generated before the catch-up messages each got one builder; run with
// -update only for a deliberate change of slow-path behaviour. On a
// mismatch the merged trace is written out for bft-trace -decode.
func TestSlowPathGolden(t *testing.T) {
	res := slowpathScenario(t)
	got := strings.Join(res.lines(), "\n") + "\n"
	if *update {
		if err := os.WriteFile(slowpathGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(slowpathGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	path := filepath.Join(t.TempDir(), "slowpath.trc")
	if err := os.WriteFile(path, res.trace, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("%s differs\n got:\n%swant:\n%smerged trace: %s", slowpathGolden, got, want, path)
}
