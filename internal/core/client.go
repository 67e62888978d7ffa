package core

import (
	"fmt"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// Client timer keys.
const timerClientRetransmit = 1

// ClientConfig parameterizes a Client engine.
type ClientConfig struct {
	// N is the replica group size; replicas occupy node ids [0, N).
	N int
	// Self is this client's node id (outside [0, N)).
	Self int
	// Opts mirrors the replica group's optimization settings; the client
	// needs DigestReplies (to designate repliers), ReadOnly (to multicast
	// reads), and SeparateRequests/InlineThreshold (to multicast large
	// request bodies).
	Opts Options
	// InlineThreshold must match the replicas' configuration.
	InlineThreshold int
	// RetransmitTimeout is the first attempt's retransmission timeout until
	// the client has measured an operation's latency; after that the first
	// attempt waits max(4·srtt, RetransmitTimeout/8). Each retry doubles
	// the timeout, up to 8x RetransmitTimeout.
	RetransmitTimeout time.Duration
	// TimestampBase seeds the client's monotonically increasing request
	// timestamps. Short-lived client processes reusing one identity must
	// seed it from a clock (the replicas deduplicate by timestamp);
	// long-lived engines and deterministic simulations leave it zero.
	TimestampBase int64
	// Trace receives protocol trace events stamped with Env.Now time; nil
	// disables tracing. The recorder must be private to this client.
	Trace *obs.Recorder
}

// ClientStats exposes client-side protocol counters.
type ClientStats struct {
	Completed   int64
	Retransmits int64
	Rejected    int64 // replies that failed authentication or matching
}

// replyVote is one replica's (latest) opinion about the pending request,
// and the latest full result it sent, already checked against its digest.
type replyVote struct {
	voted     bool
	resultD   crypto.Digest
	tentative bool
	view      int64
	full      bool
	bodyD     crypto.Digest
	body      []byte
}

// voteTally counts the votes for one result digest.
type voteTally struct {
	resultD   crypto.Digest
	committed int
	total     int
	maxView   int64
}

// pendingOp is the client's single outstanding request.
type pendingOp struct {
	op        []byte
	readOnly  bool // as declared by the caller
	asRW      bool // read-only op retried through the read-write path
	timestamp int64
	replier   int32
	timeout   time.Duration
	retries   int
	sentAt    time.Duration // the latest transmission
	done      func(result []byte)
}

// Client is the BFT client engine: it authenticates requests to the
// replica group, collects reply certificates (f+1 matching committed
// replies, 2f+1 matching tentative or read-only replies), validates
// digest replies against the designated replica's full result, and
// retransmits — demanding full replies from everyone — when progress
// stalls. Like the paper's library it runs one operation at a time;
// callers queue further operations until the callback fires.
type Client struct {
	cfg   ClientConfig
	suite *crypto.Suite
	env   proc.Env

	view  int64
	ts    int64
	cur   *pendingOp
	queue []*pendingOp

	// jitterState drives retransmission-timeout jitter (deterministic per
	// client) so a population of clients that lost requests in the same
	// burst does not retransmit in a synchronized wave forever.
	jitterState uint64

	// srtt is a smoothed estimate of operation latency (0 until the first
	// sample). Once measured, the first attempt's timeout is 4·srtt, but
	// no less than RetransmitTimeout/8: the configured value is not a
	// floor, so a lost request or a dead primary costs a few round trips,
	// not a fixed 150 ms. The 4·srtt guard keeps the timer above the
	// queueing delay: with a fixed timeout, any load level whose queueing
	// delay exceeds it makes every client duplicate every request, which
	// sustains the overload — congestion collapse.
	srtt time.Duration

	// suspect marks replicas that were designated repliers of a request
	// whose timer fired before they voted; the replier rotation skips them
	// until their next authenticated reply. Without it, with one replica
	// down, every request designating it waits out a timeout for its full
	// result.
	suspect []bool

	// Hot-path scratch state (the engine is single-threaded): the two
	// encoders (contentEnc's bytes are hashed or MAC'd, never sent;
	// wireEnc's are cloned once for Env.Send), the cached all-replicas
	// destination slice, a reusable request and its authenticator, a
	// decode-into reply, the pending request's votes (indexed by replica,
	// cleared per operation), and checkCertificate's per-digest tally
	// (filled in replica order).
	contentEnc   message.Encoder
	wireEnc      message.Encoder
	all          []int
	reqScratch   message.Request
	authScratch  crypto.Authenticator
	replyScratch message.Reply
	votes        []replyVote
	tallies      []voteTally

	rec   *obs.Recorder // nil disables tracing
	stats ClientStats
}

// trace records one protocol event stamped with the engine's current time;
// a nil recorder costs one branch (see Replica.trace).
//
//bftvet:allocfree
func (c *Client) trace(kind obs.Kind, ts int64) {
	if c.rec == nil {
		return
	}
	if !c.rec.Wants(kind) {
		return
	}
	c.rec.Record(c.env.Now(), kind, 0, int64(c.cfg.Self), ts)
}

// jitter returns a deterministic pseudo-random duration in [-d/4, d/4).
func (c *Client) jitter(d time.Duration) time.Duration {
	c.jitterState = c.jitterState*6364136223846793005 + 1442695040888963407
	span := int64(d) / 2
	if span <= 0 {
		return 0
	}
	return time.Duration(int64(c.jitterState>>16)%span - span/2)
}

var _ proc.Handler = (*Client)(nil)

// NewClient builds a client engine. The key table must contain pairwise
// keys with every replica.
func NewClient(cfg ClientConfig, keys *crypto.KeyTable, meter crypto.Meter) (*Client, error) {
	if cfg.N < 4 {
		return nil, fmt.Errorf("core: client of %d replicas; need at least 4", cfg.N)
	}
	if cfg.Self >= 0 && cfg.Self < cfg.N {
		return nil, fmt.Errorf("core: client id %d collides with replica ids [0, %d)", cfg.Self, cfg.N)
	}
	if keys.Self() != cfg.Self {
		return nil, fmt.Errorf("core: key table owner %d != client id %d", keys.Self(), cfg.Self)
	}
	if cfg.RetransmitTimeout <= 0 {
		cfg.RetransmitTimeout = 150 * time.Millisecond
	}
	all := make([]int, cfg.N)
	for i := range all {
		all[i] = i
	}
	return &Client{
		cfg:         cfg,
		suite:       crypto.NewSuite(keys, meter),
		ts:          cfg.TimestampBase,
		jitterState: uint64(cfg.Self)*0x9e3779b97f4a7c15 + 1,
		all:         all,
		suspect:     make([]bool, cfg.N),
		votes:       make([]replyVote, cfg.N),
		rec:         cfg.Trace,
	}, nil
}

// Stats returns a copy of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// RegisterMetrics exposes the client's counters as read-through gauges
// under prefix (e.g. "client100."). Snapshots must be taken from the
// node's event context, like Stats.
func (c *Client) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"completed", func() int64 { return c.stats.Completed })
	reg.GaugeFunc(prefix+"retransmits", func() int64 { return c.stats.Retransmits })
	reg.GaugeFunc(prefix+"rejected", func() int64 { return c.stats.Rejected })
}

// Init implements proc.Handler.
func (c *Client) Init(env proc.Env) { c.env = env }

// Submit queues an operation for execution; done fires with the result
// once a reply certificate is assembled. Submit must be called from the
// engine's event context (Init, a timer, a reply callback, or before the
// environment starts).
func (c *Client) Submit(op []byte, readOnly bool, done func(result []byte)) {
	p := &pendingOp{op: op, readOnly: readOnly, done: done}
	if c.cur != nil {
		c.queue = append(c.queue, p)
		return
	}
	c.cur = p
	c.begin(p)
}

func (c *Client) begin(p *pendingOp) {
	c.ts++
	p.timestamp = c.ts
	clear(c.votes)
	p.timeout = c.cfg.RetransmitTimeout
	if c.srtt > 0 {
		p.timeout = max(4*c.srtt, c.cfg.RetransmitTimeout/8)
	}
	p.sentAt = c.env.Now()
	p.replier = message.AllReplicas
	if c.cfg.Opts.DigestReplies {
		// Rotate the designated full-replier for load balancing, past
		// suspects (all suspect: the rotation's own pick).
		r := int(c.ts % int64(c.cfg.N))
		for i := 0; i < c.cfg.N && c.suspect[r]; i++ {
			r = (r + 1) % c.cfg.N
		}
		p.replier = int32(r)
	}
	// Traced before the MAC/marshal work so the span's request phase
	// includes the client-side send cost (Env.Now advances with charges).
	c.trace(obs.EvClientSend, p.timestamp)
	c.transmit(p, false)
	c.env.SetTimer(timerClientRetransmit, p.timeout+c.jitter(p.timeout))
}

// transmit sends (or resends) the pending request. Retransmissions demand
// full replies from every replica and go to the whole group.
func (c *Client) transmit(p *pendingOp, retransmit bool) {
	req := &c.reqScratch
	*req = message.Request{
		Client:    int32(c.cfg.Self),
		Timestamp: p.timestamp,
		ReadOnly:  p.readOnly && !p.asRW && c.cfg.Opts.ReadOnly,
		Replier:   p.replier,
		Op:        p.op,
	}
	if retransmit {
		req.Replier = message.AllReplicas
	}
	d := req.ContentDigest(c.suite, &c.contentEnc)
	c.authScratch = c.suite.AuthInto(c.authScratch, c.cfg.N, d[:])
	req.Auth = c.authScratch
	raw := message.Marshal(&c.wireEnc, req)

	switch {
	case retransmit, req.ReadOnly:
		// Read-only requests go everywhere by design; retransmissions go
		// everywhere to route around a faulty primary or replier.
		c.env.Multicast(c.all, raw)
	case c.cfg.Opts.separate(len(raw), c.cfg.InlineThreshold):
		// Separate request transmission: all replicas receive and
		// authenticate the body in parallel; the pre-prepare will carry
		// only its digest.
		c.env.Multicast(c.all, raw)
	default:
		c.env.Send(c.primary(), raw)
	}
}

// primary is the client's current primary guess from the views reported in
// accepted replies.
func (c *Client) primary() int { return int(c.view % int64(c.cfg.N)) }

// Receive implements proc.Handler. Replies — the only message a client
// accepts — decode into a reused scratch value; the retained Result bytes
// alias data, which the engine owns.
func (c *Client) Receive(data []byte) {
	if err := message.UnmarshalInto(data, &c.replyScratch); err != nil {
		c.stats.Rejected++
		return
	}
	c.onReply(&c.replyScratch)
}

func (c *Client) onReply(rep *message.Reply) {
	p := c.cur
	if p == nil || rep.Timestamp != p.timestamp || int(rep.Client) != c.cfg.Self {
		return
	}
	sender := int(rep.Replica)
	if sender < 0 || sender >= c.cfg.N {
		c.stats.Rejected++
		return
	}
	if !c.suite.VerifyMAC(sender, rep.MAC, rep.AuthContent(&c.contentEnc)) {
		c.stats.Rejected++
		return
	}
	v := &c.votes[sender]
	newBody := false
	if rep.Full {
		// Validate the full body against its digest once; a lying replier
		// cannot make a forged body match the group's digest votes.
		if c.suite.Digest(rep.Result) != rep.ResultD {
			c.stats.Rejected++
			return
		}
		newBody = !v.full || v.bodyD != rep.ResultD
		v.full, v.bodyD, v.body = true, rep.ResultD, rep.Result
	}
	c.suspect[sender] = false
	switch {
	case !v.voted || v.resultD != rep.ResultD || v.tentative:
		v.voted, v.resultD, v.tentative, v.view = true, rep.ResultD, rep.Tentative, rep.View
	case !newBody:
		return // nothing new
	}
	// A body can complete a certificate its sender's earlier digest-only
	// vote already counted in: a dead replier's result arriving from a
	// replica answering the retransmission.
	c.checkCertificate(p)
}

// checkCertificate assembles the reply certificate: f+1 matching committed
// replies for ordinary operations, or 2f+1 matching replies (tentative
// counts) — always 2f+1 for the read-only fast path, which never commits.
func (c *Client) checkCertificate(p *pendingOp) {
	f := (c.cfg.N - 1) / 3
	c.tallies = c.tallies[:0]
	for i := range c.votes {
		v := &c.votes[i]
		if !v.voted {
			continue
		}
		i := 0
		for i < len(c.tallies) && c.tallies[i].resultD != v.resultD {
			i++
		}
		if i == len(c.tallies) {
			c.tallies = append(c.tallies, voteTally{resultD: v.resultD})
		}
		t := &c.tallies[i]
		t.total++
		if !v.tentative {
			t.committed++
		}
		if v.view > t.maxView {
			t.maxView = v.view
		}
	}
	readFast := p.readOnly && !p.asRW && c.cfg.Opts.ReadOnly
	for i := range c.tallies {
		t := &c.tallies[i]
		ok := t.total >= 2*f+1 || (!readFast && t.committed >= f+1)
		if !ok {
			continue
		}
		body, have := c.fullBody(t.resultD)
		if !have {
			continue // certificate ready but full result still in flight
		}
		c.env.CancelTimer(timerClientRetransmit)
		if t.maxView > c.view {
			c.view = t.maxView
		}
		if sample := c.env.Now() - p.sentAt; sample > 0 {
			if c.srtt == 0 {
				c.srtt = sample
			} else {
				c.srtt = (7*c.srtt + sample) / 8
			}
		}
		c.trace(obs.EvClientDone, p.timestamp)
		c.stats.Completed++
		c.cur = nil
		done := p.done
		if len(c.queue) > 0 {
			next := c.queue[0]
			c.queue = c.queue[1:]
			c.cur = next
			c.begin(next)
		}
		if done != nil {
			done(body)
		}
		return
	}
}

// fullBody returns a verified full result with digest d, looking through
// the pending request's votes in replica order.
func (c *Client) fullBody(d crypto.Digest) ([]byte, bool) {
	for i := range c.votes {
		if v := &c.votes[i]; v.full && v.bodyD == d {
			return v.body, true
		}
	}
	return nil, false
}

// OnTimer implements proc.Handler: retransmission with exponential backoff;
// a timed-out read-only request is reissued through the read-write path
// (the paper's fallback for reads racing concurrent writes).
func (c *Client) OnTimer(key int) {
	if key != timerClientRetransmit || c.cur == nil {
		return
	}
	p := c.cur
	c.stats.Retransmits++
	p.retries++
	if p.replier != message.AllReplicas && !c.votes[p.replier].voted {
		c.suspect[p.replier] = true
	}
	if p.readOnly && !p.asRW && c.cfg.Opts.ReadOnly {
		// Fall back to the ordered path with a fresh timestamp.
		p.asRW = true
		c.ts++
		p.timestamp = c.ts
		clear(c.votes)
	}
	c.transmit(p, true)
	// The latency sample times the latest transmission: an operation that
	// waited out an outage must not feed the outage into srtt, or the next
	// operations would time out after 4·srtt instead of the floor.
	p.sentAt = c.env.Now()
	c.trace(obs.EvClientResend, p.timestamp)
	if p.timeout < 8*c.cfg.RetransmitTimeout {
		p.timeout *= 2
	}
	c.env.SetTimer(timerClientRetransmit, p.timeout+c.jitter(p.timeout))
}
