package core

import (
	"bytes"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/proc"
)

// clientHarness drives a Client engine directly, playing the replica group.
type clientHarness struct {
	t      *testing.T
	c      *cluster
	client *Client
	tables []*crypto.KeyTable
	n      int
	sent   []delivery // messages the client sent, captured via observe
}

func newClientHarness(t *testing.T, opts Options) *clientHarness {
	t.Helper()
	const n = 4
	const clientID = 100
	tables := make([]*crypto.KeyTable, 0, n+1)
	for i := 0; i < n; i++ {
		tables = append(tables, crypto.NewKeyTable(i))
	}
	tables = append(tables, crypto.NewKeyTable(clientID))
	if err := crypto.ProvisionAll(newTestRand(), tables); err != nil {
		t.Fatal(err)
	}
	cfg := ClientConfig{N: n, Self: clientID, Opts: opts, InlineThreshold: 255,
		RetransmitTimeout: 100 * time.Millisecond}
	cl, err := NewClient(cfg, tables[n], nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t)
	h := &clientHarness{t: t, c: c, client: cl, tables: tables, n: n}
	c.observe = func(src, dst int, data []byte) {
		if src == clientID {
			h.sent = append(h.sent, delivery{src: src, dst: dst, data: data})
		}
	}
	// Register sink handlers for the replicas so deliveries are observed.
	for i := 0; i < n; i++ {
		c.add(i, sinkHandler{})
	}
	c.add(clientID, cl)
	c.start()
	return h
}

// sinkHandler swallows everything; the harness plays the replicas itself.
type sinkHandler struct{}

func (sinkHandler) Init(proc.Env)  {}
func (sinkHandler) Receive([]byte) {}
func (sinkHandler) OnTimer(int)    {}

// reply builds an authenticated reply from a replica.
func (h *clientHarness) reply(replica int, ts int64, result []byte, tentative, full bool) {
	rep := &message.Reply{
		View:      0,
		Timestamp: ts,
		Client:    100,
		Replica:   int32(replica),
		Tentative: tentative,
		Full:      full,
		ResultD:   crypto.Hash(result),
	}
	if full {
		rep.Result = result
	}
	suite := crypto.NewSuite(h.tables[replica], nil)
	mac, ok := suite.MAC(100, rep.AuthContent(new(message.Encoder)))
	if !ok {
		h.t.Fatal("no key toward client")
	}
	rep.MAC = mac
	h.client.Receive(message.Marshal(new(message.Encoder), rep))
}

func TestClientAcceptsFPlusOneCommittedReplies(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = append([]byte(nil), res...) })
	h.c.pump()

	h.reply(0, 1, []byte("R"), false, true)
	if got != nil {
		t.Fatal("accepted after one reply")
	}
	h.reply(1, 1, []byte("R"), false, false)
	if string(got) != "R" {
		t.Fatalf("result = %q after f+1 committed matching replies", got)
	}
}

func TestClientNeedsQuorumForTentative(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	h.reply(0, 1, []byte("R"), true, true)
	h.reply(1, 1, []byte("R"), true, false)
	if got != nil {
		t.Fatal("accepted 2 tentative replies; needs 2f+1 = 3")
	}
	h.reply(2, 1, []byte("R"), true, false)
	if string(got) != "R" {
		t.Fatalf("result = %q after 2f+1 tentative replies", got)
	}
}

func TestClientRejectsMismatchedResults(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// Two replicas lie with one value, one honest replica disagrees:
	// no certificate forms from the liars alone plus nothing.
	h.reply(0, 1, []byte("LIE"), false, true)
	h.reply(1, 1, []byte("TRUTH"), false, true)
	if got != nil {
		t.Fatal("accepted without f+1 matching replies")
	}
	// A second honest reply resolves it.
	h.reply(2, 1, []byte("TRUTH"), false, false)
	if string(got) != "TRUTH" {
		t.Fatalf("result = %q, want TRUTH", got)
	}
}

func TestClientIgnoresForgedReplies(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// A reply with a bad MAC (signed with replica 3's key but claiming to
	// be replica 0) must not count.
	rep := &message.Reply{Timestamp: 1, Client: 100, Replica: 0, Full: true,
		Result: []byte("evil"), ResultD: crypto.Hash([]byte("evil"))}
	suite := crypto.NewSuite(h.tables[3], nil)
	mac, _ := suite.MAC(100, rep.AuthContent(new(message.Encoder)))
	rep.MAC = mac
	h.client.Receive(message.Marshal(new(message.Encoder), rep))
	h.client.Receive(message.Marshal(new(message.Encoder), rep))
	h.client.Receive(message.Marshal(new(message.Encoder), rep))
	if got != nil {
		t.Fatal("forged replies formed a certificate")
	}
	if h.client.Stats().Rejected == 0 {
		t.Fatal("forged replies not counted as rejected")
	}
}

func TestClientDigestReplyNeedsFullBody(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// A full certificate of digest-only replies must wait for the body.
	h.reply(0, 1, []byte("R"), false, false)
	h.reply(1, 1, []byte("R"), false, false)
	h.reply(2, 1, []byte("R"), false, false)
	if got != nil {
		t.Fatal("accepted digest-only certificate without the full result")
	}
	h.reply(3, 1, []byte("R"), false, true)
	if string(got) != "R" {
		t.Fatalf("result = %q once the body arrived", got)
	}
}

func TestClientLyingReplierBodyRejected(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()

	// The designated replier sends a body whose digest does not match what
	// the group attests: the full reply must be rejected outright (its
	// internal digest field is also wrong, failing the self-check).
	rep := &message.Reply{Timestamp: 1, Client: 100, Replica: 0, Full: true,
		Result: []byte("evil"), ResultD: crypto.Hash([]byte("good"))}
	suite := crypto.NewSuite(h.tables[0], nil)
	mac, _ := suite.MAC(100, rep.AuthContent(new(message.Encoder)))
	rep.MAC = mac
	h.client.Receive(message.Marshal(new(message.Encoder), rep))
	h.reply(1, 1, []byte("good"), false, false)
	h.reply(2, 1, []byte("good"), false, false)
	if got != nil {
		t.Fatal("certificate formed from a forged body")
	}
	h.reply(3, 1, []byte("good"), false, true)
	if string(got) != "good" {
		t.Fatalf("result = %q, want good", got)
	}
}

func TestClientReadOnlyFallsBackToReadWrite(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	done := false
	h.client.Submit([]byte("read"), true, func(res []byte) { done = true })
	h.c.pump()

	// First transmission is a read-only multicast to all 4 replicas.
	if len(h.sent) != 4 {
		t.Fatalf("read-only sent %d messages, want 4 (multicast)", len(h.sent))
	}
	m, err := message.Unmarshal(h.sent[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if !m.(*message.Request).ReadOnly {
		t.Fatal("first transmission not flagged read-only")
	}

	// No replies: the retransmission must reissue through the ordered path.
	h.sent = nil
	h.c.advance(500 * time.Millisecond)
	if len(h.sent) == 0 {
		t.Fatal("no retransmission happened")
	}
	m, err = message.Unmarshal(h.sent[0].data)
	if err != nil {
		t.Fatal(err)
	}
	req := m.(*message.Request)
	if req.ReadOnly {
		t.Fatal("fallback retransmission still read-only")
	}
	if req.Timestamp != 2 {
		t.Fatalf("fallback timestamp = %d, want a fresh one", req.Timestamp)
	}
	_ = done
}

func TestClientRetransmitDemandsFullReplies(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	h.client.Submit(bytes.Repeat([]byte("x"), 10), false, func([]byte) {})
	h.c.pump()
	h.sent = nil
	h.c.advance(time.Second)
	if len(h.sent) == 0 {
		t.Fatal("no retransmission")
	}
	m, err := message.Unmarshal(h.sent[0].data)
	if err != nil {
		t.Fatal(err)
	}
	if m.(*message.Request).Replier != message.AllReplicas {
		t.Fatal("retransmission did not demand full replies from everyone")
	}
	if h.client.Stats().Retransmits == 0 {
		t.Fatal("retransmit counter not incremented")
	}
}

func TestClientAdaptiveTimeoutGrowsWithLatency(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	// Complete three ops with ~200ms latency each; srtt should push the
	// timeout above the 100ms configured floor.
	for ts := int64(1); ts <= 3; ts++ {
		done := false
		h.client.Submit([]byte("op"), false, func([]byte) { done = true })
		h.c.pump()
		h.c.advance(80 * time.Millisecond) // below the timeout floor
		h.reply(0, ts, []byte("R"), false, true)
		h.reply(1, ts, []byte("R"), false, false)
		h.c.pump()
		if !done {
			t.Fatalf("op %d did not complete", ts)
		}
	}
	if h.client.srtt < 50*time.Millisecond {
		t.Fatalf("srtt = %v, want ~80ms after three samples", h.client.srtt)
	}
	// The next op's timeout must be at least 4x srtt.
	h.client.Submit([]byte("op"), false, func([]byte) {})
	h.c.pump()
	if got, want := h.client.cur.timeout, 4*h.client.srtt; got < want {
		t.Fatalf("adaptive timeout = %v, want >= %v", got, want)
	}
}

func TestClientJitterDeterministicAndBounded(t *testing.T) {
	mk := func() *Client {
		cfg := ClientConfig{N: 4, Self: 100, RetransmitTimeout: 100 * time.Millisecond}
		cl, err := NewClient(cfg, crypto.NewKeyTable(100), nil)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		ja, jb := a.jitter(time.Second), b.jitter(time.Second)
		if ja != jb {
			t.Fatal("jitter not deterministic across identical clients")
		}
		if ja < -250*time.Millisecond || ja >= 250*time.Millisecond {
			t.Fatalf("jitter %v out of [-d/4, d/4)", ja)
		}
	}
	if a.jitter(0) != 0 {
		t.Fatal("zero-duration jitter not zero")
	}
}

func TestClientQueueRunsInOrder(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	var order []int64
	for i := 0; i < 3; i++ {
		h.client.Submit([]byte("op"), false, func([]byte) {
			order = append(order, h.client.ts)
		})
	}
	h.c.pump()
	for ts := int64(1); ts <= 3; ts++ {
		h.reply(0, ts, []byte("R"), false, true)
		h.reply(1, ts, []byte("R"), false, false)
		h.c.pump()
	}
	if len(order) != 3 {
		t.Fatalf("%d ops completed, want 3", len(order))
	}
}

// completeAfter runs one operation through the harness whose replies
// arrive latency after its request (replica 0's full reply and replica 1's
// digest, both committed) and returns the timeout its first attempt had.
// A zero latency leaves srtt alone: the client keeps only positive samples.
func (h *clientHarness) completeAfter(latency time.Duration) time.Duration {
	h.t.Helper()
	done := false
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	p := h.client.cur
	h.c.advance(latency)
	h.reply(0, p.timestamp, []byte("R"), false, true)
	h.reply(1, p.timestamp, []byte("R"), false, false)
	if !done {
		h.t.Fatalf("op %d did not complete", p.timestamp)
	}
	return p.timeout
}

func TestClientTimeoutFloor(t *testing.T) {
	const rto = 100 * time.Millisecond // the harness's RetransmitTimeout

	h := newClientHarness(t, AllOptimizations())
	if got := h.completeAfter(0); got != rto {
		t.Fatalf("timeout before any sample = %v, want RetransmitTimeout %v", got, rto)
	}
	for i := 0; i < 3; i++ {
		h.completeAfter(time.Millisecond)
	}
	if got := h.completeAfter(0); got != rto/8 {
		t.Fatalf("timeout after 1 ms samples = %v, want RetransmitTimeout/8 = %v", got, rto/8)
	}

	// 60 ms, under the first attempt's jittered RetransmitTimeout (at least
	// 3/4 of it), so no sample comes from a retransmission.
	h = newClientHarness(t, AllOptimizations())
	for i := 0; i < 3; i++ {
		h.completeAfter(60 * time.Millisecond)
	}
	if got := h.completeAfter(0); h.client.srtt != 60*time.Millisecond || got != 4*h.client.srtt {
		t.Fatalf("timeout after 60 ms samples = %v (srtt %v), want 4·srtt = 240ms", got, h.client.srtt)
	}
}

// TestClientSampleTimesLatestTransmission: an operation that needed
// retransmissions feeds srtt the time since its latest transmission, not
// its whole latency, so the operation after an outage still gets the
// timeout floor.
func TestClientSampleTimesLatestTransmission(t *testing.T) {
	const rto = 100 * time.Millisecond // the harness's RetransmitTimeout

	h := newClientHarness(t, AllOptimizations())
	for i := 0; i < 3; i++ {
		h.completeAfter(time.Millisecond)
	}
	done := false
	h.client.Submit([]byte("op"), false, func([]byte) { done = true })
	p := h.client.cur
	for p.retries < 3 {
		h.c.advance(time.Millisecond)
	}
	h.c.advance(time.Millisecond)
	h.reply(0, p.timestamp, []byte("R"), false, true)
	h.reply(1, p.timestamp, []byte("R"), false, false)
	if !done {
		t.Fatal("retransmitted op did not complete")
	}
	if got := h.completeAfter(0); got != rto/8 {
		t.Fatalf("first timeout after a retransmitted op = %v (srtt %v), want RetransmitTimeout/8 = %v", got, h.client.srtt, rto/8)
	}
}

func TestClientSkipsDeadReplier(t *testing.T) {
	clients := []int{100, 101}
	g := buildGroup(t, 4, clients, nil)
	const dead = 3 // a backup: the group keeps its view
	crashed := false
	g.c.drop = func(src, dst int, data []byte) bool {
		return crashed && (src == dead || dst == dead)
	}
	// After its first retransmission a client must never designate the
	// dead replica again.
	designated := make(map[int]int)
	g.c.sent = func(src, dst int, data []byte) {
		if src < g.n || g.clients[src].Stats().Retransmits == 0 || message.Type(data[0]) != message.TypeRequest {
			return
		}
		m, err := message.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if m.(*message.Request).Replier == dead {
			designated[src]++
		}
	}
	g.c.start()
	for _, id := range clients {
		g.invoke(id, opAppend("k", "x"), false)
	}
	crashed = true
	for i := 0; i < 12; i++ {
		for _, id := range clients {
			g.invoke(id, opAppend("k", "y"), false)
		}
	}
	for _, id := range clients {
		cl := g.clients[id]
		if got := cl.Stats().Retransmits; got != 1 {
			t.Errorf("client %d retransmitted %d times with replica %d down, want 1", id, got, dead)
		}
		if designated[id] != 0 {
			t.Errorf("client %d designated dead replica %d %d times after its timeout", id, dead, designated[id])
		}
		if !cl.suspect[dead] {
			t.Errorf("client %d does not suspect replica %d", id, dead)
		}
	}

	// The next authenticated reply from a suspect that counts toward a
	// request clears it, and the rotation designates it again.
	h := newClientHarness(t, AllOptimizations())
	h.client.Submit([]byte("op"), false, func([]byte) {})
	h.c.pump()
	first := int(h.client.cur.replier)
	h.c.advance(150 * time.Millisecond) // past the first timeout
	if !h.client.suspect[first] {
		t.Fatalf("replica %d designated, silent past the timeout, not suspect", first)
	}
	h.reply((first+1)%h.n, 1, []byte("R"), false, true)
	h.reply((first+2)%h.n, 1, []byte("R"), false, false)
	for ts := int64(2); ts <= int64(2*h.n); ts++ {
		h.client.Submit([]byte("op"), false, func([]byte) {})
		if r := int(h.client.cur.replier); r == first {
			t.Fatalf("op %d designates suspect replica %d", ts, r)
		}
		h.reply((first+1)%h.n, ts, []byte("R"), false, true)
		h.reply((first+2)%h.n, ts, []byte("R"), false, true)
	}
	h.client.Submit([]byte("op"), false, func([]byte) {})
	ts := h.client.cur.timestamp
	forged := &message.Reply{Timestamp: ts, Client: 100, Replica: int32(first), ResultD: crypto.Hash([]byte("R"))}
	forged.MAC, _ = crypto.NewSuite(h.tables[(first+1)%h.n], nil).MAC(100, forged.AuthContent(new(message.Encoder)))
	h.client.Receive(message.Marshal(new(message.Encoder), forged))
	if !h.client.suspect[first] {
		t.Fatalf("a reply forged in replica %d's name cleared it", first)
	}
	h.reply(first, ts, []byte("R"), false, false) // authenticated digest reply
	if h.client.suspect[first] {
		t.Fatalf("replica %d still suspect after an authenticated reply", first)
	}
	h.reply((first+1)%h.n, ts, []byte("R"), false, true)
	designatedAgain := false
	for i := 0; i < h.n; i++ {
		h.client.Submit([]byte("op"), false, func([]byte) {})
		ts := h.client.cur.timestamp
		designatedAgain = designatedAgain || int(h.client.cur.replier) == first
		h.reply((first+1)%h.n, ts, []byte("R"), false, true)
		h.reply((first+2)%h.n, ts, []byte("R"), false, true)
	}
	if !designatedAgain {
		t.Fatalf("cleared replica %d never designated again", first)
	}
}

func TestClientBodyAfterDigestVoteCompletes(t *testing.T) {
	// The designated replier is dead; the other three replicas' committed
	// digest replies make a certificate with no body. Their full replies to
	// the retransmission are no new vote, but must complete the operation.
	h := newClientHarness(t, AllOptimizations())
	var got []byte
	h.client.Submit([]byte("op"), false, func(res []byte) { got = res })
	h.c.pump()
	replier := int(h.client.cur.replier)
	for i := 1; i < h.n; i++ {
		h.reply((replier+i)%h.n, 1, []byte("R"), false, false)
	}
	h.c.advance(150 * time.Millisecond)
	if got != nil || h.client.Stats().Retransmits != 1 {
		t.Fatalf("result %q, %d retransmits; want none yet and one", got, h.client.Stats().Retransmits)
	}
	h.reply((replier+1)%h.n, 1, []byte("R"), false, true)
	if string(got) != "R" {
		t.Fatalf("result = %q after a full reply to the retransmission", got)
	}
}

func TestPrimaryCrashOutageBound(t *testing.T) {
	const vct = 500 * time.Millisecond
	clients := []int{100, 101}
	g := buildGroup(t, 4, clients, func(c *Config) { c.ViewChangeTimeout = vct })
	dead := -1
	g.c.drop = func(src, dst int, data []byte) bool { return src == dead || dst == dead }
	g.c.start()
	// Warm up every client with operations that take 1 ms, so each has a
	// latency sample (the testbed's deliveries take no virtual time).
	for i := 0; i < 3; i++ {
		for _, id := range clients {
			done := 0
			g.invokeAsync(id, opAppend("k", "w"), false, &done)
			g.c.now += time.Millisecond
			g.c.pump()
			if done != 1 {
				t.Fatalf("warm-up op of client %d did not complete", id)
			}
		}
	}

	dead = g.replicas[0].cfg.PrimaryOf(g.replicas[0].View())
	crashAt := g.c.now
	var firstDone time.Duration
	for _, id := range clients {
		g.clients[id].Submit(opAppend("k", "after"), false, func([]byte) {
			if firstDone == 0 {
				firstDone = g.c.now
			}
		})
	}
	g.c.run(func() bool { return firstDone != 0 }, 5*time.Second, "first completion after the crash")
	rto := g.clients[clients[0]].cfg.RetransmitTimeout
	bound := vct + 5*rto/32 + 50*time.Millisecond // VCT + 1.25·RTO/8 + 50 ms
	if outage := firstDone - crashAt; outage > bound {
		t.Fatalf("primary %d crash to first completion = %v, want <= %v", dead, outage, bound)
	} else {
		t.Logf("primary %d crash to first completion = %v (bound %v)", dead, outage, bound)
	}
}

// TestClientOperationAllocs counts the allocations of one completed
// operation: Submit, then a full and a digest reply.
func TestClientOperationAllocs(t *testing.T) {
	h := newClientHarness(t, AllOptimizations())
	h.c.drop = func(int, int, []byte) bool { return true } // the harness copies what it delivers
	const runs = 50
	// Pre-built replies: replica 0 full and replica 1 digest-only, both
	// committed, for every timestamp the measured operations take.
	replies := make([][2][]byte, runs+2)
	for ts := range replies {
		for i := range replies[ts] {
			rep := &message.Reply{Timestamp: int64(ts), Client: 100, Replica: int32(i),
				Full: i == 0, ResultD: crypto.Hash([]byte("R"))}
			if rep.Full {
				rep.Result = []byte("R")
			}
			suite := crypto.NewSuite(h.tables[i], nil)
			rep.MAC, _ = suite.MAC(100, rep.AuthContent(new(message.Encoder)))
			replies[ts][i] = message.Marshal(new(message.Encoder), rep)
		}
	}
	completed := 0
	done := func([]byte) { completed++ }
	op := []byte("op")
	allocs := testing.AllocsPerRun(runs, func() {
		h.client.Submit(op, false, done)
		ts := h.client.cur.timestamp
		h.client.Receive(replies[ts][0])
		h.client.Receive(replies[ts][1])
	})
	if completed != runs+1 {
		t.Fatalf("%d of %d operations completed", completed, runs+1)
	}
	// What is left: the pendingOp, the marshalled request Env.Send keeps,
	// and the harness's timer record. Before the votes and full bodies were
	// reused and the request encoded from a scratch value this was 7 (a
	// votes slice, a full-body map and its bucket, the request).
	if allocs > 3 {
		t.Fatalf("%v allocations per completed operation, want <= 3", allocs)
	}
}
