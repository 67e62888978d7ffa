package core

import (
	"slices"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// onRequest authenticates and routes a client request: at-most-once
// bookkeeping, the read-only fast path, request buffering, and primary
// queueing / backup relay. raw is the encoded message as received (retained
// for inlining into pre-prepares).
func (r *Replica) onRequest(req *message.Request, raw []byte) {
	if int(req.Client) < 0 {
		r.stats.DroppedMessages++
		return
	}
	d := req.ContentDigest(r.suite, &r.contentEnc)
	if !r.suite.VerifyAuth(int(req.Client), req.Auth, d[:]) {
		r.stats.DroppedMessages++
		return
	}
	r.trace(obs.EvRequestIn, 0, int64(req.Client), req.Timestamp)
	rec := r.clientRec(req.Client)

	// At-most-once: old requests are dropped, the most recent one answered
	// from the stored reply.
	if !req.ReadOnly || !r.cfg.Opts.ReadOnly {
		if req.Timestamp < rec.lastTimestamp {
			return
		}
		if req.Timestamp == rec.lastTimestamp {
			r.resendStoredReply(req, rec)
			return
		}
	}

	if req.ReadOnly && r.cfg.Opts.ReadOnly {
		r.executeReadOnly(req)
		return
	}

	// An assigned request is already being ordered, unless the assignment
	// came first and is waiting for this body.
	_, assigned := r.inFlight[d]
	if assigned && len(r.missingBody[d]) == 0 {
		return
	}
	if buf, ok := r.reqBuffer[d]; ok {
		// Duplicate transmission; keep the widest replier designation so a
		// retransmission demanding full replies is honored at execution.
		if req.Replier == message.AllReplicas {
			buf.req.Replier = message.AllReplicas
			r.noteResend(buf)
		}
		return
	}

	buf := &bufferedRequest{req: req, raw: raw, digest: d}
	r.reqBuffer[d] = buf

	// Fill any pre-prepare that was waiting for this body (separate
	// request transmission delivers bodies and assignments in any order).
	r.bodyArrived(d, req)

	if assigned {
		return
	}
	if r.resent(req, len(raw)) {
		r.noteResend(buf)
	}
	if r.inViewChange {
		return
	}
	if primary := r.cfg.PrimaryOf(r.view); primary == r.cfg.Self {
		r.queue = append(r.queue, d)
		r.trySendBatches()
	} else if !buf.relayed && !r.cfg.Opts.separate(len(raw), r.cfg.InlineThreshold) {
		// A small request reaching a backup means the client missed the
		// primary (stale view, or a retransmission): relay it. Large
		// separately-transmitted bodies were multicast to the whole group,
		// so the primary already has them — relaying those would burn the
		// primary's inbound bandwidth (it is the 4/0 bottleneck).
		buf.relayed = true
		r.env.Send(primary, raw)
	}
	r.syncVCTimer(false)
}

// resent reports whether req, first buffered here, is its client's
// retransmission. With digest replies a first transmission names one
// replier, so AllReplicas marks a resend. Without them every transmission
// names AllReplicas, and only a small request tells: its first
// transmission goes to the primary alone. (A duplicate of a buffered body
// is a resend either way; onRequest notes it there.)
func (r *Replica) resent(req *message.Request, size int) bool {
	return req.Replier == message.AllReplicas &&
		(r.cfg.Opts.DigestReplies || !r.cfg.Opts.separate(size, r.cfg.InlineThreshold))
}

// clientRec returns (creating if needed) the client's execution record.
func (r *Replica) clientRec(client int32) *clientRecord {
	rec := r.clients[client]
	if rec == nil {
		rec = &clientRecord{lastTimestamp: -1}
		r.clients[client] = rec
	}
	return rec
}

// bodyArrived fills every slot waiting for request body d.
func (r *Replica) bodyArrived(d crypto.Digest, req *message.Request) {
	seqs := r.missingBody[d]
	if len(seqs) == 0 {
		return
	}
	delete(r.missingBody, d)
	for _, seq := range seqs {
		r.fillMissing(r.log[seq], d, req)
	}
}

// fillMissing resolves one missing request body in a slot.
func (r *Replica) fillMissing(s *slot, d crypto.Digest, req *message.Request) {
	if s == nil || s.missing == 0 {
		return
	}
	for i, rd := range s.reqDigests {
		if rd == d && s.requests[i] == nil {
			s.requests[i] = req
			s.missing--
		}
	}
	if s.resolved() && !r.inViewChange && s.view == r.view {
		r.onSlotResolved(s)
	}
}

// onPrePrepare processes a sequence-number assignment from the primary.
// It also accepts batch-content retransmissions that fill a new-view slot
// whose digest is known but whose bodies are not (see enterNewView): those
// are validated by digest match rather than by the sender's authenticator.
func (r *Replica) onPrePrepare(pp *message.PrePrepare) {
	if s := r.log[pp.Seq]; s != nil && s.unknownBatch {
		r.resolveUnknownBatch(s, pp)
		return
	}
	if r.inViewChange || pp.View != r.view || r.isPrimary() || !r.inWindow(pp.Seq) {
		return
	}
	s := r.getSlot(pp.Seq)
	if s.havePP {
		// First assignment wins; but a retransmission may carry inline
		// bodies for requests we are still missing.
		if s.missing > 0 {
			r.fillBodiesFromPP(s, pp)
		}
		return
	}

	// Resolve the batch; one bad inline body rejects the whole message.
	reqDigests := make([]crypto.Digest, len(pp.Refs))
	requests := make([]*message.Request, len(pp.Refs))
	missing := 0
	for i, ref := range pp.Refs {
		req, d, ok := r.refBody(ref)
		if !ok {
			r.stats.DroppedMessages++
			return
		}
		reqDigests[i], requests[i] = d, req
		if req == nil {
			missing++
		}
	}
	batch := message.BatchDigest(r.suite, &r.contentEnc, reqDigests)
	content := message.OrderContentWithCommits(&r.contentEnc, pp.View, pp.Seq, batch, pp.Commits)
	primary := r.cfg.PrimaryOf(pp.View)
	if !r.suite.VerifyAuth(primary, pp.Auth, content) {
		r.stats.DroppedMessages++
		return
	}

	r.trace(obs.EvPrePrepareRecv, pp.Seq, pp.View, 0)
	if pp.Seq > r.maxKnownPP {
		r.maxKnownPP = pp.Seq
	}
	s.havePP = true
	s.view = pp.View
	s.batchDigest = batch
	s.reqDigests = reqDigests
	s.requests = requests
	s.missing = missing
	s.ppAuth = pp.Auth
	s.ppCommits = pp.Commits
	for i, d := range reqDigests {
		r.inFlight[d] = pp.Seq
		if requests[i] == nil {
			r.missingBody[d] = append(r.missingBody[d], pp.Seq)
		}
	}
	r.applyPiggybackCommits(pp.Commits, int32(primary), pp.View)
	if s.resolved() {
		r.onSlotResolved(s)
	}
	// A missing body here does NOT mean the client's multicast was lost —
	// under load it is usually just late: bodies serialize behind other
	// bodies at this port while the small pre-prepare slips past them.
	// Fetching immediately makes the primary answer with the batch fully
	// inlined (tens of KB), duplicating traffic exactly when the links
	// are busiest; with hundreds of clients the duplicate bodies delay
	// the next pre-prepares, which lose more races, which trigger more
	// fetches. Instead a short grace timer lets queued bodies drain, and
	// fetchLateBodies recovers only the ones that still have not shown
	// up — those were genuinely dropped.
	if s.missing > 0 {
		r.armBodyFetch()
	}
	r.syncVCTimer(false)
}

// refBody resolves one pre-prepare entry to its request digest and body.
// An inline body is decoded and digested, and its client's authenticator
// is verified over that digest (ok is false if any of that fails); a
// digest reference resolves to the buffered body, or to nil while none has
// arrived. Every path that takes a request from a pre-prepare goes through
// here, each with its own acceptance rule.
func (r *Replica) refBody(ref message.RequestRef) (*message.Request, crypto.Digest, bool) {
	if ref.Inline == nil {
		if buf := r.reqBuffer[ref.Digest]; buf != nil {
			return buf.req, ref.Digest, true
		}
		return nil, ref.Digest, true
	}
	m, err := message.Unmarshal(ref.Inline)
	if err != nil {
		return nil, crypto.Digest{}, false
	}
	req, ok := m.(*message.Request)
	if !ok {
		return nil, crypto.Digest{}, false
	}
	d := req.ContentDigest(r.suite, &r.contentEnc)
	return req, d, r.suite.VerifyAuth(int(req.Client), req.Auth, d[:])
}

// onSlotResolved fires once a slot has its pre-prepare and all bodies:
// the backup multicasts its prepare and the ordering pipeline advances.
func (r *Replica) onSlotResolved(s *slot) {
	if !s.sentPrepare && !r.isPrimary() {
		s.sentPrepare = true
		r.broadcast(r.buildPrepare(s, r.takePiggybackCommits()))
		s.addPrepare(s.batchDigest, int32(r.cfg.Self))
	}
	r.advance(s)
}

// buildPrepare builds this replica's prepare for s, to be sent before the next
// message is built (its authenticator is scratch). Retransmissions carry no commits.
func (r *Replica) buildPrepare(s *slot, commits []message.CommitRef) *message.Prepare {
	prep := &message.Prepare{View: s.view, Seq: s.seq, Digest: s.batchDigest, Replica: int32(r.cfg.Self), Commits: commits}
	content := message.OrderContentWithCommits(&r.contentEnc, prep.View, prep.Seq, prep.Digest, prep.Commits)
	r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, content)
	prep.Auth = r.authScratch
	return prep
}

// onPrepare processes a backup's prepare vote.
func (r *Replica) onPrepare(p *message.Prepare) {
	if !r.admitPrepare(p) {
		return
	}
	content := message.OrderContentWithCommits(&r.contentEnc, p.View, p.Seq, p.Digest, p.Commits)
	if !r.suite.VerifyAuth(int(p.Replica), p.Auth, content) {
		r.stats.DroppedMessages++
		return
	}
	s := r.getSlot(p.Seq)
	if s.addPrepare(p.Digest, p.Replica) {
		r.applyPiggybackCommits(p.Commits, p.Replica, p.View)
		r.advance(s)
	}
}

// admitPrepare applies the cheap admissibility checks that precede
// verification: current view, in-window sequence, and a plausible sender
// (a backup other than this replica — the primary never sends prepares).
func (r *Replica) admitPrepare(p *message.Prepare) bool {
	if r.inViewChange || p.View != r.view || !r.inWindow(p.Seq) {
		return false
	}
	sender := int(p.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self || sender == r.cfg.PrimaryOf(p.View) {
		r.stats.DroppedMessages++
		return false
	}
	return true
}

// onCommit processes a commit vote.
func (r *Replica) onCommit(c *message.Commit) {
	if !r.admitCommit(c) {
		return
	}
	if !r.suite.VerifyAuth(int(c.Replica), c.Auth, message.OrderContent(&r.contentEnc, c.View, c.Seq, c.Digest)) {
		r.stats.DroppedMessages++
		return
	}
	s := r.getSlot(c.Seq)
	if s.addCommit(c.Digest, c.Replica) {
		r.advance(s)
	}
}

// admitCommit is admitPrepare for commits (every replica but this one may
// send them).
func (r *Replica) admitCommit(c *message.Commit) bool {
	if r.inViewChange || c.View != r.view || !r.inWindow(c.Seq) {
		return false
	}
	sender := int(c.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		r.stats.DroppedMessages++
		return false
	}
	return true
}

// applyPiggybackCommits treats commit references carried by a pre-prepare
// or prepare as commit votes from its sender. The carrier's authenticator
// covers the references, so they are as trustworthy as standalone commits.
func (r *Replica) applyPiggybackCommits(refs []message.CommitRef, sender int32, view int64) {
	for _, ref := range refs {
		if !r.inWindow(ref.Seq) {
			continue
		}
		s := r.getSlot(ref.Seq)
		if s.addCommit(ref.Digest, sender) {
			r.advance(s)
		}
	}
}

// advance drives one slot through prepared -> commit-sent -> committed and
// triggers execution.
func (r *Replica) advance(s *slot) {
	if !s.resolved() {
		return
	}
	f := r.cfg.F()
	if s.checkPrepared(f) && !s.sentCommit {
		r.trace(obs.EvPrepared, s.seq, s.view, 0)
		s.sentCommit = true
		s.addCommit(s.batchDigest, int32(r.cfg.Self))
		if r.cfg.Opts.PiggybackCommits && s.seq > r.holdCommitsAfter {
			if len(r.pendingCommits) == 0 {
				r.env.SetTimer(timerCommitFlush, r.cfg.StatusInterval/8)
			}
			r.pendingCommits = append(r.pendingCommits, message.CommitRef{Seq: s.seq, Digest: s.batchDigest})
		} else {
			r.broadcast(r.buildCommit(s))
		}
	}
	if s.checkCommitted(f) || s.prepared {
		r.tryExecute()
	}
}

// buildCommit builds a standalone commit for s, under buildPrepare's rule.
func (r *Replica) buildCommit(s *slot) *message.Commit {
	c := &message.Commit{View: s.view, Seq: s.seq, Digest: s.batchDigest, Replica: int32(r.cfg.Self)}
	r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, message.OrderContent(&r.contentEnc, c.View, c.Seq, c.Digest))
	c.Auth = r.authScratch
	r.stats.Commits.Standalone++
	return c
}

// takePiggybackCommits drains the held commits onto an outgoing carrier. The
// result aliases the engine's buffer until the next commit is held: a prepare
// is marshalled before that; a pre-prepare, whose refs its slot keeps, clones.
func (r *Replica) takePiggybackCommits() []message.CommitRef {
	out := r.pendingCommits
	if len(out) == 0 {
		return nil
	}
	r.stats.Commits.Piggybacked += int64(len(out))
	r.dropPendingCommits()
	return out
}

// dropPendingCommits empties the piggyback buffer and disarms its timer.
func (r *Replica) dropPendingCommits() {
	r.pendingCommits = r.pendingCommits[:0]
	r.env.CancelTimer(timerCommitFlush)
}

// settleCommits is the piggyback flush policy, run at the end of every
// Receive. Held commits ride the next pre-prepare or prepare unless engine
// state says someone is waiting for them: (a) a read-only reply is held
// behind the commit frontier; (b) a held commit's slot already has another
// replica's commit — the batch's commits are flowing and this replica
// missed the carrier; (c) this replica is the primary and trySendBatches
// left requests queued — its next carrier is blocked on the commits it
// holds. It only advances a send the fallback timer would have made.
func (r *Replica) settleCommits() {
	if len(r.pendingCommits) == 0 {
		return
	}
	switch {
	case len(r.pendingRO) > 0:
		r.stats.Commits.FlushHeldRead++
		// Reads interleave with writes, and a held commit puts a commit round
		// on the next read's path: hold none until the next checkpoint boundary.
		r.holdCommitsAfter = (r.lastExec/r.cfg.CheckpointInterval + 1) * r.cfg.CheckpointInterval
	case r.peerCommitSeen():
		r.stats.Commits.FlushPeerCommit++
	case len(r.queue) > 0 && r.isPrimary():
		r.stats.Commits.FlushWindow++
	default:
		return
	}
	r.flushPiggybackCommits()
}

// peerCommitSeen reports whether the slot of a held commit has a commit
// vote for the same batch besides this replica's own.
func (r *Replica) peerCommitSeen() bool {
	for _, ref := range r.pendingCommits {
		if s := r.log[ref.Seq]; s != nil && len(s.commits[ref.Digest]) > 1 {
			return true
		}
	}
	return false
}

// flushPiggybackCommits sends the held commits standalone.
func (r *Replica) flushPiggybackCommits() {
	for _, ref := range r.pendingCommits {
		if s := r.log[ref.Seq]; s != nil && s.resolved() && s.batchDigest == ref.Digest {
			r.broadcast(r.buildCommit(s))
		}
	}
	r.dropPendingCommits()
}

// trySendBatches lets the primary assign sequence numbers to queued
// requests, one batch per ordering round, within the sliding window: with
// e the last executed batch and W the window, the primary holds new
// batches once its next seq would exceed e + W (the paper's batching
// rule).
func (r *Replica) trySendBatches() {
	if !r.isPrimary() || r.inViewChange {
		return
	}
	window := r.batchWindow()
	for len(r.queue) > 0 {
		next := r.lastPP + 1
		if next > r.lastExec+window || next > r.lastStable+r.cfg.LogWindow {
			break
		}
		batch := r.nextBatch()
		if len(batch) == 0 {
			break
		}
		r.sendPrePrepare(batch)
	}
}

// batchWindow is how many batches above the last executed one the primary
// may have assigned.
func (r *Replica) batchWindow() int64 {
	if !r.cfg.Opts.Batching {
		// Without batching every request runs its own ordering round
		// immediately; parallelism is bounded only by the log window.
		return r.cfg.LogWindow / 2
	}
	return r.cfg.Window
}

// nextBatch pops requests off the queue up to the batch bounds, skipping
// entries that were executed or assigned in the meantime.
func (r *Replica) nextBatch() []*bufferedRequest {
	var (
		out   []*bufferedRequest
		bytes int
	)
	maxReqs := r.cfg.MaxBatchRequests
	if !r.cfg.Opts.Batching {
		maxReqs = 1
	}
	for len(r.queue) > 0 && len(out) < maxReqs {
		d := r.queue[0]
		buf, ok := r.reqBuffer[d]
		if !ok {
			r.queue = r.queue[1:]
			continue // executed or garbage collected
		}
		if _, assigned := r.inFlight[d]; assigned {
			r.queue = r.queue[1:]
			continue
		}
		// The byte bound caps the pre-prepare's size: separately
		// transmitted requests contribute only their digest, which is why
		// SRT fits more large requests per batch (Figure 7).
		size := len(buf.raw)
		if r.cfg.Opts.separate(size, r.cfg.InlineThreshold) {
			size = crypto.DigestSize
		}
		if len(out) > 0 && bytes+size > r.cfg.MaxBatchBytes {
			break
		}
		r.queue = r.queue[1:]
		out = append(out, buf)
		bytes += size
	}
	return out
}

// sendPrePrepare assigns the next sequence number to a batch and
// multicasts the pre-prepare. Small requests are inlined; large ones ride
// as digests when separate request transmission is on.
func (r *Replica) sendPrePrepare(batch []*bufferedRequest) {
	r.lastPP++
	seq := r.lastPP
	if seq > r.maxKnownPP {
		r.maxKnownPP = seq
	}
	refs := make([]message.RequestRef, len(batch))
	reqDigests := make([]crypto.Digest, len(batch))
	requests := make([]*message.Request, len(batch))
	for i, buf := range batch {
		reqDigests[i] = buf.digest
		requests[i] = buf.req
		if r.cfg.Opts.separate(len(buf.raw), r.cfg.InlineThreshold) {
			refs[i] = message.RequestRef{Digest: buf.digest}
		} else {
			refs[i] = message.RequestRef{Inline: buf.raw}
		}
		r.inFlight[buf.digest] = seq
	}
	batchD := message.BatchDigest(r.suite, &r.contentEnc, reqDigests)
	pp := &message.PrePrepare{View: r.view, Seq: seq, Refs: refs, Commits: slices.Clone(r.takePiggybackCommits())}
	content := message.OrderContentWithCommits(&r.contentEnc, pp.View, pp.Seq, batchD, pp.Commits)
	// The pre-prepare's authenticator is retained in the slot (s.ppAuth),
	// so it must be freshly allocated, not scratch.
	pp.Auth = r.suite.Auth(r.cfg.N, content)
	r.broadcast(pp)
	r.trace(obs.EvPrePrepareSent, seq, r.view, int64(len(batch)))

	s := r.getSlot(seq)
	s.havePP = true
	s.view = r.view
	s.batchDigest = batchD
	s.reqDigests = reqDigests
	s.requests = requests
	s.missing = 0
	s.ppAuth = pp.Auth
	s.ppCommits = pp.Commits
	r.advance(s)
}

// fillBodiesFromPP harvests inline request bodies from a retransmitted
// pre-prepare for a slot still missing some; a bad body is skipped.
func (r *Replica) fillBodiesFromPP(s *slot, pp *message.PrePrepare) {
	for _, ref := range pp.Refs {
		if ref.Inline == nil || s.missing == 0 {
			continue
		}
		req, d, ok := r.refBody(ref)
		if !ok {
			continue
		}
		if _, buffered := r.reqBuffer[d]; !buffered {
			r.reqBuffer[d] = &bufferedRequest{req: req, raw: ref.Inline, digest: d, relayed: true}
		}
		r.bodyArrived(d, req)
	}
}

// resolveUnknownBatch fills a new-view slot whose chosen digest we could
// not match to any batch we had seen. The retransmitted content is trusted
// only if its request digests fold to the chosen batch digest and every
// inline request authenticates from its client.
func (r *Replica) resolveUnknownBatch(s *slot, pp *message.PrePrepare) {
	reqDigests := make([]crypto.Digest, len(pp.Refs))
	requests := make([]*message.Request, len(pp.Refs))
	for i, ref := range pp.Refs {
		if ref.Inline == nil {
			return // a retransmission must inline everything
		}
		req, d, ok := r.refBody(ref)
		if !ok {
			return
		}
		reqDigests[i], requests[i] = d, req
	}
	if message.BatchDigest(r.suite, &r.contentEnc, reqDigests) != s.batchDigest {
		r.stats.DroppedMessages++
		return
	}
	s.unknownBatch = false
	s.reqDigests = reqDigests
	s.requests = requests
	s.missing = 0
	for _, d := range reqDigests {
		r.inFlight[d] = s.seq
	}
	if !r.inViewChange {
		r.onSlotResolved(s)
	}
}
