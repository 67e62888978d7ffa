// Package verifypool is the parallel MAC-verification stage of the
// multicore host pipeline: it sits between a wall-clock transport and a
// protocol engine, fanning inbound datagrams across a worker pool that
// performs MAC verification and decode-into off the engine's thread, then
// hands the results back in submission order on a single consumer
// goroutine.
//
// The paper's performance argument rests on MAC authenticators being cheap
// enough that ordering, not crypto, bounds throughput — but on a real host
// where every datagram is verified serially on the engine's single thread,
// per-host throughput is capped at one core. The pipeline moves the two
// embarrassingly parallel pieces of inbound processing (HMAC verification
// and wire decoding) onto spare cores while preserving both invariants the
// engine contract depends on:
//
//   - No concurrency in the engine: only the pool's single consumer
//     goroutine delivers envelopes, and the transport runs the engine on it
//     under the node's engine lock, like every other caller.
//   - Per-sender arrival order: every datagram is enqueued on an ordering
//     channel at submission time, before its verification is scheduled;
//     the consumer releases envelopes strictly in that order, waiting for
//     each envelope's verification to finish. Since a transport submits
//     from a single reader goroutine, submission order extends arrival
//     order, which in turn extends per-sender send order for ordered
//     paths.
//
// With Workers <= 1 the pool bypasses the goroutines entirely and verifies
// synchronously inside Submit, so single-core behavior — and therefore the
// headline simulator figures, which never build a pool at all — is
// unchanged.
//
// Only the three hot message types (request, prepare, commit) are verified
// in the pool; everything else is passed through as an opaque engine-owned
// copy for the engine's ordinary Receive path, whose own verification
// logic is unchanged. A rejected datagram (bad MAC, malformed, forged) is
// counted and dropped at the consumer: its bytes never reach the engine.
package verifypool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// Config parameterizes a Pool.
type Config struct {
	// Workers is the number of verification goroutines; 0 means
	// runtime.GOMAXPROCS(0). With a value <= 1 the pool verifies
	// synchronously inside Submit (no goroutines, no reordering window).
	Workers int

	// Keys is the receiving node's key table. Each worker verifies through
	// its own crypto.VerifyView of it.
	Keys *crypto.KeyTable

	// Depth is the number of in-flight envelopes (and the capacity of the
	// internal channels). 0 means a default sized to ride out a burst
	// from a UDP reader while the engine works through the one before.
	Depth int

	// MaxDatagram bounds the size of submitted datagrams; larger ones are
	// rejected. 0 means the transport's UDP bound (64 KiB).
	MaxDatagram int

	// Buffers, when set, is the free-list that SubmitOwned buffers are
	// returned to on release. Transports that hand the pool ownership of
	// reader buffers share this list with their readers. Nil creates one
	// sized to Depth.
	Buffers *BufferPool

	// Deliver receives each surviving envelope on the pool's consumer
	// goroutine (or synchronously inside Submit when Workers <= 1), in
	// submission order. The receiver must call Envelope.Release when the
	// engine is done with it. Must be non-nil.
	Deliver func(*Envelope)
}

const (
	defaultDepth    = 512
	defaultDatagram = 64 << 10
)

// Pool is the verification stage. Create with New; stop with Close.
type Pool struct {
	workers     int
	keys        *crypto.KeyTable
	maxDatagram int
	deliver     func(*Envelope)
	bufs        *BufferPool

	free    chan *Envelope // recycled envelopes
	work    chan *Envelope // unordered: feeds the workers
	ordered chan *Envelope // submission order: feeds the consumer

	// mu guards closed. Submitters hold it shared for the whole
	// submission so Close cannot close the channels under them.
	mu     sync.RWMutex
	closed bool

	workerWG   sync.WaitGroup
	consumerWG sync.WaitGroup

	// syncMu serializes the bypass verifier when Workers <= 1 (transports
	// may submit from concurrent delivery goroutines).
	syncMu sync.Mutex
	syncV  *verifier

	verified    atomic.Int64 // envelopes delivered pre-verified
	passthrough atomic.Int64 // envelopes delivered for the engine's own verification
	rejected    atomic.Int64 // datagrams dropped: bad MAC, malformed, forged
	dropped     atomic.Int64 // datagrams dropped: pool full or closed (backpressure)
}

// New builds and starts a pool. Config.Deliver must be set.
func New(cfg Config) *Pool {
	if cfg.Deliver == nil {
		panic("verifypool: Config.Deliver is nil")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.Depth
	if depth <= 0 {
		depth = defaultDepth
	}
	maxDatagram := cfg.MaxDatagram
	if maxDatagram <= 0 {
		maxDatagram = defaultDatagram
	}
	bufs := cfg.Buffers
	if bufs == nil {
		bufs = NewBufferPool(depth, maxDatagram)
	}
	p := &Pool{
		workers:     workers,
		keys:        cfg.Keys,
		maxDatagram: maxDatagram,
		deliver:     cfg.Deliver,
		bufs:        bufs,
		free:        make(chan *Envelope, depth),
	}
	for i := 0; i < depth; i++ {
		p.free <- &Envelope{pool: p, ready: make(chan struct{}, 1)}
	}
	if workers <= 1 {
		p.syncV = newVerifier(cfg.Keys)
		return p
	}
	p.work = make(chan *Envelope, depth)
	p.ordered = make(chan *Envelope, depth)
	for i := 0; i < workers; i++ {
		p.workerWG.Add(1)
		go p.runWorker()
	}
	p.consumerWG.Add(1)
	go p.consume()
	return p
}

// Workers reports the effective worker count.
func (p *Pool) Workers() int { return p.workers }

// Buffers returns the free-list SubmitOwned buffers are drawn from and
// returned to.
func (p *Pool) Buffers() *BufferPool { return p.bufs }

// Submit hands one datagram to the pipeline, copying it into a pooled
// envelope (the caller keeps ownership of data). It reports false — and
// counts a drop — when the pool is saturated or closed; datagram
// semantics, the protocol retransmits. Safe for concurrent use.
//
//bftvet:allocfree
func (p *Pool) Submit(data []byte) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e := p.acquire()
	if e == nil {
		return false
	}
	if cap(e.buf) < len(data) {
		e.buf = make([]byte, len(data))
	}
	e.data = e.buf[:len(data)]
	copy(e.data, data)
	p.dispatch(e)
	return true
}

// SubmitOwned is Submit taking ownership of a free-listed reader buffer
// holding n bytes, avoiding the copy. Ownership transfers only on true:
// when the pool is saturated or closed it reports false and the caller
// keeps (and typically reuses) the buffer. On release the buffer returns
// to the pool's BufferPool, where the reader gets it back.
//
//bftvet:allocfree
func (p *Pool) SubmitOwned(buf []byte, n int) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if n < 0 || n > len(buf) {
		p.rejected.Add(1)
		return false
	}
	e := p.acquire()
	if e == nil {
		return false
	}
	e.ext = buf
	e.data = buf[:n]
	p.dispatch(e)
	return true
}

// acquire takes a recycled envelope, or nil (counting a drop) when the
// pool is saturated or closed. Caller holds p.mu shared.
//
//bftvet:allocfree
func (p *Pool) acquire() *Envelope {
	if p.closed {
		p.dropped.Add(1)
		return nil
	}
	select {
	case e := <-p.free:
		return e
	default:
		p.dropped.Add(1)
		return nil
	}
}

// dispatch routes an acquired envelope: enqueue for the workers, or — in
// bypass mode — verify and deliver synchronously. The ordered channel is
// written first, so the consumer sees submission order regardless of which
// worker finishes first. Both channels have capacity for every live
// envelope, so the sends never block. Caller holds p.mu shared.
//
//bftvet:allocfree
func (p *Pool) dispatch(e *Envelope) {
	if p.workers <= 1 {
		// finish stays under syncMu: concurrent submitters (channel-network
		// delivery goroutines) must not invert verify/deliver order.
		p.syncMu.Lock()
		p.syncV.process(e)
		p.finish(e)
		p.syncMu.Unlock()
		return
	}
	p.ordered <- e
	p.work <- e
}

func (p *Pool) runWorker() {
	defer p.workerWG.Done()
	v := newVerifier(p.keys)
	for e := range p.work {
		v.process(e)
		e.ready <- struct{}{}
	}
}

// consume releases envelopes in submission order, waiting for each one's
// verification to complete — the fan-in that turns a parallel stage back
// into an ordered stream.
func (p *Pool) consume() {
	defer p.consumerWG.Done()
	for e := range p.ordered {
		<-e.ready
		p.finish(e)
	}
}

// finish accounts one processed envelope and delivers survivors.
//
//bftvet:allocfree
func (p *Pool) finish(e *Envelope) {
	switch e.verdict {
	case VerdictRejected:
		p.rejected.Add(1)
		e.Release()
	case VerdictVerified:
		p.verified.Add(1)
		p.deliver(e)
	default:
		p.passthrough.Add(1)
		p.deliver(e)
	}
}

// Close stops the pool: in-flight envelopes are still verified and
// delivered, subsequent submissions fail. Envelopes already handed to the
// deliverer stay valid until released.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	if p.workers > 1 {
		close(p.work)
		p.workerWG.Wait()
		close(p.ordered)
		p.consumerWG.Wait()
	}
}

// Verified reports how many envelopes were delivered pre-verified.
func (p *Pool) Verified() int64 { return p.verified.Load() }

// Passthrough reports how many envelopes were delivered unverified for the
// engine's ordinary Receive path.
func (p *Pool) Passthrough() int64 { return p.passthrough.Load() }

// Rejected reports how many datagrams failed verification or decoding.
func (p *Pool) Rejected() int64 { return p.rejected.Load() }

// Dropped reports how many datagrams were refused on a saturated or closed
// pool.
func (p *Pool) Dropped() int64 { return p.dropped.Load() }

// QueueDepth reports how many submitted envelopes await ordered delivery
// (0 in bypass mode, where verification is synchronous). A depth pinned
// near the pool's capacity is the backpressure signal: submitters are
// outrunning the fan-in consumer.
func (p *Pool) QueueDepth() int64 {
	if p.workers <= 1 {
		return 0
	}
	return int64(len(p.ordered))
}

// RegisterMetrics exposes the pool's counters under prefix (e.g.
// "node3.verify."). The gauges read atomics and are safe to snapshot while
// the pool runs.
func (p *Pool) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"verified", p.verified.Load)
	reg.GaugeFunc(prefix+"passthrough", p.passthrough.Load)
	reg.GaugeFunc(prefix+"rejected", p.rejected.Load)
	reg.GaugeFunc(prefix+"dropped", p.dropped.Load)
	reg.GaugeFunc(prefix+"queue_depth", p.QueueDepth)
}

// verifier is the per-worker verification state: a private read-view of
// the key table (own HMAC-state cache, own digest scratch) and a private
// encoder for recomputing authenticated content.
type verifier struct {
	view *crypto.VerifyView
	enc  message.Encoder
}

func newVerifier(keys *crypto.KeyTable) *verifier {
	return &verifier{view: keys.View()}
}

// process verifies one datagram in place, setting the envelope's verdict.
// The three hot types get full MAC verification and decode-into; all other
// types are copied for the engine's own Receive path.
func (v *verifier) process(e *Envelope) {
	data := e.data
	if len(data) == 0 {
		e.verdict = VerdictRejected
		return
	}
	e.Kind = message.Type(data[0])
	switch e.Kind {
	case message.TypePrepare:
		if message.UnmarshalPrepareInto(data, &e.Prepare) != nil {
			e.verdict = VerdictRejected
			return
		}
		content := message.OrderContentWithCommitsInto(&v.enc, e.Prepare.View, e.Prepare.Seq, e.Prepare.Digest, e.Prepare.Commits)
		if !v.view.VerifyEntry(int(e.Prepare.Replica), e.Prepare.Auth, content) {
			e.verdict = VerdictRejected
			return
		}
		e.verdict = VerdictVerified
	case message.TypeCommit:
		if message.UnmarshalCommitInto(data, &e.Commit) != nil {
			e.verdict = VerdictRejected
			return
		}
		if !v.view.VerifyEntry(int(e.Commit.Replica), e.Commit.Auth, message.OrderContentInto(&v.enc, e.Commit.View, e.Commit.Seq, e.Commit.Digest)) {
			e.verdict = VerdictRejected
			return
		}
		e.verdict = VerdictVerified
	case message.TypeRequest:
		// The engine retains request bodies (reqBuffer, pre-prepare
		// inlining), so the decoded request must alias an engine-owned
		// copy, not the recycled envelope buffer.
		raw := make([]byte, len(data))
		copy(raw, data)
		m, err := message.Unmarshal(raw)
		if err != nil {
			e.verdict = VerdictRejected
			return
		}
		req, ok := m.(*message.Request)
		if !ok {
			e.verdict = VerdictRejected
			return
		}
		if int(req.Client) < 0 {
			e.verdict = VerdictRejected
			return
		}
		d := v.view.Digest(req.ContentInto(&v.enc))
		if !v.view.VerifyEntry(int(req.Client), req.Auth, d[:]) {
			e.verdict = VerdictRejected
			return
		}
		e.Request, e.RequestRaw, e.ReqDigest = req, raw, d
		e.verdict = VerdictVerified
	default:
		// Cold types (pre-prepare, view change, status, ...): hand the
		// engine an owned copy; its Receive path verifies as always.
		owned := make([]byte, len(data))
		copy(owned, data)
		e.owned = owned
		e.verdict = VerdictPassthrough
	}
}
