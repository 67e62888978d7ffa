package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bftfast/bft"
	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// span is one timed interval of the traced pass. start and end are
// nanoseconds since the run's time base. client is the client id the work
// was done for when the recording site can tell (a request's sender, a
// reply's receiver, Execute's client argument) and -1 otherwise; the
// writer uses it to find the parent operation.
type span struct {
	name       string
	node       int // the node whose goroutine did the work
	start, end int64
	client     int
	peer       int // Send: destination; -1 otherwise
	bytes      int
}

// msgKinds are the wire types counted on their own; every other tag byte
// (view-change traffic, fetch, state transfer, key exchange) is "other".
var msgKinds = []string{"request", "reply", "pre-prepare", "prepare", "commit", "checkpoint", "status", "other"}

func msgKind(data []byte) int {
	if len(data) > 0 {
		name := message.Type(data[0]).String()
		for i, k := range msgKinds[:len(msgKinds)-1] {
			if k == name {
				return i
			}
		}
	}
	return len(msgKinds) - 1
}

// recorder holds what the traced pass's shims record. Counts and timings
// cover the whole measured window; spans only its first spanWindow, and at
// most maxSpans of them, so a saturated run does not hold gigabytes.
type recorder struct {
	base     time.Time
	counting atomic.Bool // measured window open
	spanning atomic.Bool // span window open
	nspans   atomic.Int64
	nodes    sync.Map // node id -> *nodeRecord
}

const (
	spanWindow = 2 * time.Second
	maxSpans   = 100_000
)

// nodeRecord is one node's share of the record. Sends and executes of a
// node come from its own event loop and deliveries from its reader, so the
// lock is almost never contended.
type nodeRecord struct {
	mu         sync.Mutex
	sentByKind [8]int64
	sentBytes  int64
	send       histogram // time inside Network.Send
	deliver    histogram // time inside the receive callback
	execute    histogram
	snapshots  histogram
	digests    histogram
	spans      []span
}

func newRecorder(base time.Time) *recorder { return &recorder{base: base} }

func (r *recorder) node(id int) *nodeRecord {
	if n, ok := r.nodes.Load(id); ok {
		return n.(*nodeRecord)
	}
	n, _ := r.nodes.LoadOrStore(id, &nodeRecord{})
	return n.(*nodeRecord)
}

// each calls fn with every node's record, locked, in node-id order.
func (r *recorder) each(fn func(id int, n *nodeRecord)) {
	var ids []int
	r.nodes.Range(func(id, _ any) bool { ids = append(ids, id.(int)); return true })
	sort.Ints(ids)
	for _, id := range ids {
		n := r.node(id)
		n.mu.Lock()
		fn(id, n)
		n.mu.Unlock()
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// keepSpan reports whether one more span fits the span budget.
func (r *recorder) keepSpan() bool {
	return r.spanning.Load() && r.nspans.Add(1) <= maxSpans
}

// tracedNetwork is a bft.Network that counts and times every datagram on
// its way into the real network, leaving the bytes alone.
type tracedNetwork struct {
	inner bft.Network
	rec   *recorder
}

// isClient tells client ids from replica ids (replicas are 0..n-1).
func isClient(id int) bool { return id >= clientBase }

func (t *tracedNetwork) Send(src, dst int, data []byte) {
	if !t.rec.counting.Load() {
		t.inner.Send(src, dst, data)
		return
	}
	kind, size := msgKind(data), len(data)
	start := t.rec.now()
	t.inner.Send(src, dst, data)
	end := t.rec.now()
	n := t.rec.node(src)
	n.mu.Lock()
	n.sentByKind[kind]++
	n.sentBytes += int64(size)
	n.send.observe(end - start)
	if t.rec.keepSpan() {
		client := -1
		if isClient(src) {
			client = src
		} else if isClient(dst) {
			client = dst
		}
		n.spans = append(n.spans, span{name: "send " + msgKinds[kind], node: src, start: start, end: end, client: client, peer: dst, bytes: size})
	}
	n.mu.Unlock()
}

func (t *tracedNetwork) Register(id int, recv func(data []byte)) error {
	n := t.rec.node(id)
	return t.inner.Register(id, func(data []byte) {
		if !t.rec.counting.Load() {
			recv(data)
			return
		}
		start := t.rec.now()
		recv(data)
		end := t.rec.now()
		n.mu.Lock()
		n.deliver.observe(end - start)
		n.mu.Unlock()
	})
}

func (t *tracedNetwork) Unregister(id int) { t.inner.Unregister(id) }

// tracedService is a bft.StateMachine that times the calls a replica makes
// into its service.
type tracedService struct {
	inner   bft.StateMachine
	rec     *recorder
	replica int
	n       *nodeRecord
}

func newTracedService(inner bft.StateMachine, rec *recorder, replica int) *tracedService {
	return &tracedService{inner: inner, rec: rec, replica: replica, n: rec.node(replica)}
}

// timed runs fn and files its duration under h (one of s.n's histograms),
// with a span when wanted.
func (s *tracedService) timed(name string, client int, h *histogram, fn func()) {
	if !s.rec.counting.Load() {
		fn()
		return
	}
	start := s.rec.now()
	fn()
	end := s.rec.now()
	s.n.mu.Lock()
	h.observe(end - start)
	if s.rec.keepSpan() {
		s.n.spans = append(s.n.spans, span{name: name, node: s.replica, start: start, end: end, client: client, peer: -1})
	}
	s.n.mu.Unlock()
}

func (s *tracedService) Execute(client int32, op []byte, readOnly bool) (res []byte) {
	s.timed("execute", int(client), &s.n.execute, func() { res = s.inner.Execute(client, op, readOnly) })
	return res
}

func (s *tracedService) StateDigest() (d crypto.Digest) {
	s.timed("state-digest", -1, &s.n.digests, func() { d = s.inner.StateDigest() })
	return d
}

func (s *tracedService) Snapshot() (snap []byte) {
	s.timed("snapshot", -1, &s.n.snapshots, func() { snap = s.inner.Snapshot() })
	return snap
}

func (s *tracedService) Restore(snap []byte) error { return s.inner.Restore(snap) }
