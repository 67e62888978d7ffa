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
