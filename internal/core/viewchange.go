package core

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"slices"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// mergePQSets folds the current log into the P (prepared) and Q
// (pre-prepared) sets carried by view-change messages, keeping the
// highest-view entry per sequence number (TR-817's view-change scheme).
// Must run before the view number advances.
func (r *Replica) mergePQSets() {
	for n, s := range r.log {
		if !s.havePP || n <= r.lastStable {
			continue
		}
		prePrepared := s.sentPrepare || r.cfg.PrimaryOf(s.view) == r.cfg.Self
		if prePrepared {
			if q, ok := r.qset[n]; !ok || s.view > q.View {
				r.qset[n] = message.PQEntry{Seq: n, View: s.view, Digest: s.batchDigest}
			}
		}
		if s.prepared {
			if p, ok := r.pset[n]; !ok || s.view > p.View {
				r.pset[n] = message.PQEntry{Seq: n, View: s.view, Digest: s.batchDigest}
			}
		}
	}
}

func pqSlice(m map[int64]message.PQEntry) []message.PQEntry {
	out := make([]message.PQEntry, 0, len(m))
	for _, n := range sortedKeys(m) {
		out = append(out, m[n])
	}
	return out
}

// startViewChange abandons the current view and volunteers for newView.
func (r *Replica) startViewChange(newView int64) {
	if newView <= r.view {
		return
	}
	r.trace(obs.EvViewChangeStart, 0, newView, 0)
	r.stats.ViewChanges++
	r.mergePQSets()
	r.view = newView
	r.inViewChange = true
	r.pendingNV = nil
	r.dropPendingCommits() // commit piggybacks are view-specific

	vc := &message.ViewChange{
		NewView:    newView,
		LastStable: r.lastStable,
		StableD:    r.stableDigest,
		Prepared:   pqSlice(r.pset),
		PrePrep:    pqSlice(r.qset),
		Replica:    int32(r.cfg.Self),
	}
	vcd := r.suite.Digest(vc.AuthContent(&r.contentEnc))
	// The view-change (and its authenticator) is retained in the vcRecord,
	// so the authenticator is freshly allocated, not scratch.
	vc.Auth = r.suite.Auth(r.cfg.N, vcd[:])
	raw := message.Marshal(&r.wireEnc, vc)
	r.storeViewChange(vc, raw, vcd)
	r.env.Multicast(r.otherReplicas(), raw)

	// The escalation timer (move to view+1 if no new-view forms) is armed
	// only once 2f+1 replicas have joined this view change — a replica
	// whose timer fired alone waits instead of racing through views it can
	// never finish (TR-817's liveness rule).
	r.env.CancelTimer(timerViewChange)
	r.vcTimerArmed = false
	r.maybeArmEscalation()

	// Ack the view-changes already stored for this view, and try to form
	// the new view if we are its primary.
	r.ackStoredViewChanges(newView)
	if r.cfg.PrimaryOf(newView) == r.cfg.Self {
		r.tryNewView()
	}
}

// ackStoredViewChanges acks every view-change stored for view except our
// own, in replica order: the ack schedule is part of the observable
// protocol trace, so map iteration order must not leak into it.
func (r *Replica) ackStoredViewChanges(view int64) {
	recs := r.vcs[view]
	for _, origin := range sortedKeys(recs) {
		if int(origin) != r.cfg.Self {
			r.sendViewChangeAck(origin, recs[origin].digest)
		}
	}
}

func (r *Replica) storeViewChange(vc *message.ViewChange, raw []byte, vcd crypto.Digest) *vcRecord {
	recs := r.vcs[vc.NewView]
	if recs == nil {
		recs = make(map[int32]*vcRecord)
		r.vcs[vc.NewView] = recs
	}
	rec := recs[vc.Replica]
	if rec == nil {
		rec = &vcRecord{vc: vc, raw: raw, digest: vcd, acks: make(map[int32]bool)}
		recs[vc.Replica] = rec
		// Apply any acks that arrived before this view-change did.
		if byAcker := r.pendingAcks[vc.NewView][vc.Replica]; byAcker != nil {
			for acker, d := range byAcker {
				if d == vcd {
					rec.acks[acker] = true
				}
			}
			delete(r.pendingAcks[vc.NewView], vc.Replica)
		}
	}
	return rec
}

func (r *Replica) sendViewChangeAck(origin int32, vcd crypto.Digest) {
	primary := r.cfg.PrimaryOf(r.view)
	if primary == r.cfg.Self || int(origin) == primary {
		return // the primary vouches for what it verified itself
	}
	ack := &message.ViewChangeAck{View: r.view, Replica: int32(r.cfg.Self), Origin: origin, VCD: vcd}
	mac, ok := r.suite.MAC(primary, ack.AuthContent(&r.contentEnc))
	if !ok {
		return
	}
	ack.MAC = mac
	r.send(primary, ack)
}

// onViewChange processes a peer's view-change message.
func (r *Replica) onViewChange(vc *message.ViewChange, raw []byte) {
	sender := int(vc.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		return
	}
	vcd := r.suite.Digest(vc.AuthContent(&r.contentEnc))
	if !r.suite.VerifyAuth(sender, vc.Auth, vcd[:]) {
		r.stats.DroppedMessages++
		return
	}
	if vc.NewView < r.view || (vc.NewView == r.view && !r.inViewChange) {
		return // stale; the status protocol will catch the sender up
	}
	r.storeViewChange(vc, raw, vcd)

	if vc.NewView == r.view && r.inViewChange {
		r.maybeArmEscalation()
		if r.cfg.PrimaryOf(r.view) == r.cfg.Self {
			r.tryNewView()
		} else {
			r.sendViewChangeAck(vc.Replica, vcd)
		}
		return
	}

	// vc.NewView > r.view: join once f+1 distinct replicas demand a view
	// beyond ours — at least one of them is correct.
	r.maybeJoinHigherView()
}

// maybeArmEscalation starts the move-to-next-view timer once 2f+1 replicas
// are known to participate in the current view change, doubling the
// timeout each escalation so the system outwaits any network delay.
func (r *Replica) maybeArmEscalation() {
	if !r.inViewChange || r.vcTimerArmed || len(r.vcs[r.view]) < r.cfg.Quorum() {
		return
	}
	r.env.SetTimer(timerViewChange, r.vcTimeout)
	r.vcTimerArmed = true
	r.vcTimeout *= 2
}

// maybeJoinHigherView implements the f+1 join rule, choosing the smallest
// view above ours with f+1 distinct proponents.
func (r *Replica) maybeJoinHigherView() {
	proponents := make(map[int32]int64) // replica -> smallest higher view proposed
	for view, recs := range r.vcs {
		if view <= r.view {
			continue
		}
		for origin := range recs {
			if cur, ok := proponents[origin]; !ok || view < cur {
				proponents[origin] = view
			}
		}
	}
	if len(proponents) < r.cfg.F()+1 {
		return
	}
	target := int64(math.MaxInt64)
	for _, v := range proponents {
		target = min(target, v)
	}
	r.startViewChange(target)
}

// onViewChangeAck lets the new primary accumulate support for view-change
// messages. Acks for views we have not joined yet (or for view-changes we
// have not received yet) are buffered — backups routinely time out and ack
// each other before the new primary notices the fault, and dropping those
// acks would stall the view change until retransmission.
func (r *Replica) onViewChangeAck(a *message.ViewChangeAck) {
	sender := int(a.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		return
	}
	if a.View < r.view || r.cfg.PrimaryOf(a.View) != r.cfg.Self {
		return
	}
	if !r.suite.VerifyMAC(sender, a.MAC, a.AuthContent(&r.contentEnc)) {
		r.stats.DroppedMessages++
		return
	}
	rec := r.vcs[a.View][a.Origin]
	if rec == nil {
		// The ack outran the view-change it corroborates.
		byOrigin := r.pendingAcks[a.View]
		if byOrigin == nil {
			byOrigin = make(map[int32]map[int32]crypto.Digest)
			r.pendingAcks[a.View] = byOrigin
		}
		byAcker := byOrigin[a.Origin]
		if byAcker == nil {
			byAcker = make(map[int32]crypto.Digest)
			byOrigin[a.Origin] = byAcker
		}
		byAcker[a.Replica] = a.VCD
		return
	}
	if rec.digest != a.VCD {
		return
	}
	rec.acks[a.Replica] = true
	if a.View == r.view && r.inViewChange {
		r.tryNewView()
	}
}

// supportedVCs returns the view-change records the primary may use: its
// own unconditionally, others once 2f-1 acks corroborate them (so 2f+1
// replicas vouch for each, counting sender and primary).
func (r *Replica) supportedVCs() map[int32]*vcRecord {
	out := make(map[int32]*vcRecord)
	for origin, rec := range r.vcs[r.view] {
		if int(origin) == r.cfg.Self || len(rec.acks) >= 2*r.cfg.F()-1 {
			out[origin] = rec
		}
	}
	return out
}

// tryNewView runs the new primary's decision procedure and, on success,
// multicasts the new-view message and installs the view locally.
func (r *Replica) tryNewView() {
	if !r.inViewChange || r.lastNewView != nil && r.lastNewView.View == r.view {
		return
	}
	supported := r.supportedVCs()
	if len(supported) < r.cfg.Quorum() {
		return
	}
	minSeq, stableD, batches, ok := decideNewView(r.cfg, supported)
	if !ok {
		return // need more view-change messages
	}
	nv := &message.NewView{View: r.view, MinSeq: minSeq, Batches: batches}
	var vcRaws []*message.ViewChange
	for _, o := range sortedKeys(supported) {
		nv.VCs = append(nv.VCs, message.VCRef{Replica: o, Digest: supported[o].digest})
		vcRaws = append(vcRaws, supported[o].vc)
	}
	nvd := r.suite.Digest(nv.AuthContent(&r.contentEnc))
	// The new-view (and its authenticator) is retained in lastNewView, so
	// the authenticator is freshly allocated, not scratch.
	nv.Auth = r.suite.Auth(r.cfg.N, nvd[:])

	r.lastNewView = nv
	r.lastNVVCs = vcRaws
	r.broadcast(nv)
	r.enterNewView(nv, stableD)
}

// onNewView processes the new primary's view installation.
func (r *Replica) onNewView(nv *message.NewView) {
	if nv.View < r.view || (nv.View == r.view && !r.inViewChange) {
		return
	}
	primary := r.cfg.PrimaryOf(nv.View)
	if primary == r.cfg.Self {
		return
	}
	nvd := r.suite.Digest(nv.AuthContent(&r.contentEnc))
	if !r.suite.VerifyAuth(primary, nv.Auth, nvd[:]) {
		r.stats.DroppedMessages++
		return
	}
	if nv.View > r.view {
		// Join the view change first so our own P/Q information is merged
		// and our view-change is out; then reconsider this new-view.
		r.startViewChange(nv.View)
		if nv.View != r.view || !r.inViewChange {
			return
		}
	}
	r.pendingNV = nv
	r.processPendingNewView()
}

// processPendingNewView validates the stored new-view against the
// referenced view-change messages; it waits (for retransmission) while any
// are missing and deposes the primary if the decision does not check out.
func (r *Replica) processPendingNewView() {
	nv := r.pendingNV
	if nv == nil || nv.View != r.view || !r.inViewChange {
		return
	}
	chosen := make(map[int32]*vcRecord, len(nv.VCs))
	for _, ref := range nv.VCs {
		rec := r.vcs[nv.View][ref.Replica]
		if rec == nil || rec.digest != ref.Digest {
			return // missing or mismatched; status protocol will refetch
		}
		chosen[ref.Replica] = rec
	}
	if len(chosen) < r.cfg.Quorum() {
		r.startViewChange(r.view + 1) // primary reused an origin or sent too few
		return
	}
	minSeq, stableD, batches, ok := decideNewView(r.cfg, chosen)
	if !ok || minSeq != nv.MinSeq || !sameBatches(batches, nv.Batches) {
		// The primary lied or miscomputed: depose it.
		r.startViewChange(r.view + 1)
		return
	}
	r.lastNewView = nv
	r.lastNVVCs = nil
	for _, rec := range chosen {
		r.lastNVVCs = append(r.lastNVVCs, rec.vc)
	}
	r.enterNewView(nv, stableD)
}

func sameBatches(a, b []message.NVBatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// decideNewView implements TR-817's deterministic choice of the new-view
// starting checkpoint and per-sequence batches from a set of supported
// view-change messages. It returns ok=false when the set does not yet
// determine a decision for every needed sequence number.
func decideNewView(cfg Config, vcs map[int32]*vcRecord) (minSeq int64, stableD crypto.Digest, batches []message.NVBatch, ok bool) {
	f := cfg.F()
	quorum := cfg.Quorum()

	// Checkpoint: the highest (h, d) such that 2f+1 messages have
	// lastStable <= h and f+1 attest to exactly (h, d).
	best := int64(-1)
	var bestD crypto.Digest
	for _, cand := range vcs {
		h, d := cand.vc.LastStable, cand.vc.StableD
		le, eq := 0, 0
		for _, m := range vcs {
			if m.vc.LastStable <= h {
				le++
			}
			if m.vc.LastStable == h && m.vc.StableD == d {
				eq++
			}
		}
		if le >= quorum && eq >= f+1 && h > best {
			best, bestD = h, d
		}
	}
	if best < 0 {
		return 0, crypto.Digest{}, nil, false
	}

	// Index P and Q sets per sequence number.
	type pq struct {
		p, q  map[int32]message.PQEntry
		hasP  map[int32]bool
		maxIn int64
	}
	perSeq := make(map[int64]*pq)
	get := func(n int64) *pq {
		e := perSeq[n]
		if e == nil {
			e = &pq{p: make(map[int32]message.PQEntry), q: make(map[int32]message.PQEntry), hasP: make(map[int32]bool)}
			perSeq[n] = e
		}
		return e
	}
	maxSeq := best
	for origin, rec := range vcs {
		for _, e := range rec.vc.Prepared {
			get(e.Seq).p[origin] = e
			get(e.Seq).hasP[origin] = true
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
		}
		for _, e := range rec.vc.PrePrep {
			get(e.Seq).q[origin] = e
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
		}
	}
	if maxSeq > best+cfg.LogWindow {
		maxSeq = best + cfg.LogWindow
	}

	for n := best + 1; n <= maxSeq; n++ {
		e := perSeq[n]
		decided := false
		if e != nil {
			// Case A: some prepared entry (n, v, d) dominates. Candidates
			// are ordered deterministically so every replica evaluates the
			// same choice (map iteration order must not leak in).
			cands := make([]message.PQEntry, 0, len(e.p))
			for _, c := range e.p {
				cands = append(cands, c)
			}
			slices.SortFunc(cands, func(a, b message.PQEntry) int {
				if c := cmp.Compare(b.View, a.View); c != 0 {
					return c
				}
				return bytes.Compare(a.Digest[:], b.Digest[:])
			})
			for _, cand := range cands {
				a1 := 0
				for origin, rec := range vcs {
					if rec.vc.LastStable >= n {
						continue
					}
					pe, has := e.p[origin]
					if !has || pe.View < cand.View || (pe.View == cand.View && pe.Digest == cand.Digest) {
						a1++
					}
				}
				a2 := 0
				for origin := range vcs {
					if qe, has := e.q[origin]; has && qe.View >= cand.View && qe.Digest == cand.Digest {
						a2++
					}
				}
				if a1 >= quorum && a2 >= f+1 {
					batches = append(batches, message.NVBatch{Seq: n, Digest: cand.Digest})
					decided = true
					break
				}
			}
		}
		if decided {
			continue
		}
		// Case B: 2f+1 messages saw nothing prepared at n — null request.
		b := 0
		for origin, rec := range vcs {
			if rec.vc.LastStable < n && (e == nil || !e.hasP[origin]) {
				b++
			}
		}
		if b >= quorum {
			batches = append(batches, message.NVBatch{Seq: n, Digest: crypto.ZeroDigest})
			continue
		}
		return 0, crypto.Digest{}, nil, false // undecidable with this set
	}

	// Trim trailing null requests: they exist only to fill gaps below real
	// batches.
	for len(batches) > 0 && batches[len(batches)-1].Digest.IsZero() {
		batches = batches[:len(batches)-1]
	}
	return best, bestD, batches, true
}

// enterNewView installs the decided view on this replica (primary and
// backups alike): adjusts checkpoints, rolls back conflicting tentative
// execution, rebuilds the log from the new-view batches, and restarts the
// ordering pipeline.
func (r *Replica) enterNewView(nv *message.NewView, stableD crypto.Digest) {
	r.trace(obs.EvViewChangeDone, 0, nv.View, 0)
	r.pendingNV = nil
	r.inViewChange = false
	r.vcTimeout = r.cfg.ViewChangeTimeout
	r.env.CancelTimer(timerViewChange)
	r.vcTimerArmed = false
	for v := range r.vcs {
		if v < r.view {
			delete(r.vcs, v)
		}
	}
	for v := range r.pendingAcks {
		if v <= r.view {
			delete(r.pendingAcks, v)
		}
	}

	// Checkpoint alignment.
	if nv.MinSeq > r.lastStable {
		if r.lastCommittedExec >= nv.MinSeq {
			r.makeStable(nv.MinSeq, stableD)
		} else {
			r.beginStateTransfer(nv.MinSeq)
		}
	}

	// Tentative rollback: at most one batch is tentatively executed; keep
	// it if the new view re-proposes the same batch at the same place.
	if r.lastExec > r.lastCommittedExec {
		keep := false
		if old := r.log[r.lastExec]; old != nil {
			for _, b := range nv.Batches {
				if b.Seq == r.lastExec && b.Digest == old.batchDigest {
					keep = true
					break
				}
			}
		}
		if !keep {
			r.rollbackTentative()
		}
	}

	// Rebuild the log above the new checkpoint from the decided batches.
	oldLog := r.log
	r.log = make(map[int64]*slot, len(nv.Batches))
	maxSeq := nv.MinSeq
	for _, b := range nv.Batches {
		if b.Seq <= r.lastStable {
			continue
		}
		if b.Seq > maxSeq {
			maxSeq = b.Seq
		}
		s := newSlot(b.Seq)
		s.view = nv.View
		s.havePP = true
		s.batchDigest = b.Digest
		if b.Digest.IsZero() {
			s.null = true
		} else if !r.adoptBatchBody(s, oldLog) {
			s.unknownBatch = true
		}
		if b.Seq <= r.lastCommittedExec {
			s.prepared, s.committed, s.executed = true, true, true
			// Accepting the new-view endorses its pre-prepares, so this
			// batch belongs to the Q set at view nv.View in any later view
			// change (otherwise A2 of the decision procedure could starve).
			s.sentPrepare = true
		} else if b.Seq <= r.lastExec {
			s.executed = true // surviving tentative execution
		}
		r.log[b.Seq] = s
	}
	floor := maxSeq
	if r.lastExec > floor {
		floor = r.lastExec
	}
	r.lastPP, r.maxKnownPP = floor, floor
	r.inFlight = rebuildInFlight(r.log)
	r.salvageRequests(oldLog)

	// Restart ordering: backups prepare every re-proposed batch; unknown
	// bodies are fetched by digest.
	for _, n := range sortedKeys(r.log) {
		s := r.log[n]
		if s.unknownBatch {
			r.broadcast(r.buildFetch(-1, n, r.lastStable, nil))
			continue
		}
		if s.committed {
			continue
		}
		if r.isPrimary() {
			r.advance(s)
		} else {
			r.onSlotResolved(s)
		}
	}

	// Requests that were in flight under the old view may have fallen out;
	// the new primary re-queues everything still buffered and unassigned.
	if r.isPrimary() {
		r.queue = r.queue[:0]
		for d := range r.reqBuffer {
			if _, assigned := r.inFlight[d]; !assigned {
				r.queue = append(r.queue, d)
			}
		}
		slices.SortFunc(r.queue, func(a, b crypto.Digest) int {
			ra, rb := r.reqBuffer[a].req, r.reqBuffer[b].req
			if c := cmp.Compare(ra.Client, rb.Client); c != 0 {
				return c
			}
			return cmp.Compare(ra.Timestamp, rb.Timestamp)
		})
	}
	r.tryExecute()
	r.trySendBatches()
	r.syncVCTimer(true)
}

// salvageRequests re-buffers authenticated request bodies that were held
// only inside superseded log slots. A backup that accepted the old
// primary's pre-prepare stores inline bodies in the slot, not reqBuffer;
// if the new view decided a different batch for that sequence (e.g. after
// a primary equivocated), rebuilding the log would otherwise drop those
// requests and liveness would stall until clients retransmit. Backups also
// relay small salvaged bodies to the new primary, which may never have
// seen them.
func (r *Replica) salvageRequests(oldLog map[int64]*slot) {
	primary := r.cfg.PrimaryOf(r.view)
	// The relays below hit the wire: walk superseded slots in sequence
	// order.
	for _, n := range sortedKeys(oldLog) {
		s := oldLog[n]
		for i, req := range s.requests {
			if req == nil {
				continue
			}
			d := s.reqDigests[i]
			if _, ok := r.reqBuffer[d]; ok {
				continue
			}
			if _, assigned := r.inFlight[d]; assigned {
				continue // re-proposed by the new view
			}
			if rec := r.clients[req.Client]; rec != nil && req.Timestamp <= rec.lastTimestamp {
				continue // committed and executed under the old view
			}
			raw := message.Marshal(&r.wireEnc, req)
			r.reqBuffer[d] = &bufferedRequest{req: req, raw: raw, digest: d, relayed: true}
			if primary != r.cfg.Self && !r.cfg.Opts.separate(len(raw), r.cfg.InlineThreshold) {
				// Send buffers hand ownership to the environment; the
				// buffered copy stays ours.
				r.env.Send(primary, append([]byte(nil), raw...))
			}
		}
	}
}

// rebuildInFlight recomputes the request-to-sequence assignment from the
// rebuilt log.
func rebuildInFlight(log map[int64]*slot) map[crypto.Digest]int64 {
	out := make(map[crypto.Digest]int64)
	for n, s := range log {
		for _, d := range s.reqDigests {
			out[d] = n
		}
	}
	return out
}

// adoptBatchBody recovers the request bodies for a re-proposed batch from
// the pre-view-change log. It reports whether the batch content is known.
func (r *Replica) adoptBatchBody(s *slot, oldLog map[int64]*slot) bool {
	if os := oldLog[s.seq]; os != nil && os.havePP && os.batchDigest == s.batchDigest {
		r.copyBatch(s, os)
		return true
	}
	for _, os := range oldLog {
		if os.havePP && os.batchDigest == s.batchDigest {
			r.copyBatch(s, os)
			return true
		}
	}
	return false
}

func (r *Replica) copyBatch(s, os *slot) {
	s.reqDigests = os.reqDigests
	s.requests = os.requests
	s.missing = os.missing
	for i, d := range s.reqDigests {
		if s.requests[i] == nil {
			r.missingBody[d] = append(r.missingBody[d], s.seq)
		}
	}
}

// rollbackTentative undoes tentative execution by returning to the newest
// retained checkpoint and replaying the committed batches above it —
// without replies, traces or counts: clients already have the results. If
// no checkpoint is retained (a state transfer is replacing the state) or
// the rollback fails, which for a checkpoint of our own is a programming
// error, the replica refetches committed state from its peers rather than
// crashing the group.
func (r *Replica) rollbackTentative() {
	r.lastExec = r.lastCommittedExec
	seq, err := r.rollbackToNewest()
	if err != nil {
		r.beginStateTransfer(r.lastStable + r.cfg.CheckpointInterval)
		return
	}
	for n := seq + 1; n <= r.lastCommittedExec; n++ {
		s := r.log[n]
		if s == nil || !s.resolved() {
			continue
		}
		for _, req := range s.requests {
			if req == nil {
				continue
			}
			if rec, result, ran := r.applyRequest(req); ran {
				r.storeReply(rec, req, n, result, false)
			}
		}
	}
}

// rollbackToNewest returns the service and the client table to the newest
// retained checkpoint and reports its sequence number. The table is decoded
// before the service rolls back, so an error from anything but the service
// leaves the state as it was.
func (r *Replica) rollbackToNewest() (int64, error) {
	seq, ok := r.newestCheckpoint()
	if !ok {
		return 0, errors.New("core: no checkpoint retained")
	}
	d := message.NewDecoder(r.ckTables[seq])
	clients, err := r.decodeClientTable(d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return 0, err
	}
	if err := r.cp.RollbackTo(seq); err != nil {
		return 0, err
	}
	r.clients = clients
	return seq, nil
}
