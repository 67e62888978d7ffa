package core

import (
	"time"

	"bftfast/internal/message"
)

// statusHelpLimit caps how many sequence numbers one status response
// retransmits, so catch-up traffic stays bounded per status period.
const statusHelpLimit = 8

// idleStatusPeriod is how many status intervals may pass between the
// unconditional "I'm alive" status beacons of a healthy replica.
const idleStatusPeriod = 10

// statusTick runs the periodic retransmission protocol: when this replica
// is waiting for something it broadcasts its status so peers can resend
// what it is missing, and it retries any stalled state transfer.
//
// The period is jittered per replica and per tick: retransmissions from a
// fixed phase can land in the same loss window every time (client bursts
// under overload are themselves roughly periodic), so a phase-locked
// retransmitter can stall indefinitely on one lost message.
func (r *Replica) statusTick() {
	defer func() {
		jitter := time.Duration((uint64(r.cfg.Self+1)*uint64(r.statusTicks+1)*2654435761)>>16) %
			(r.cfg.StatusInterval / 2)
		r.env.SetTimer(timerStatus, 3*r.cfg.StatusInterval/4+jitter)
	}()

	if r.st != nil {
		// Retry the stalled phase of the state transfer.
		if r.st.meta == nil {
			r.broadcast(r.buildFetch(0, 0, r.lastStable, nil))
		} else {
			for i, frag := range r.st.frags {
				if frag == nil {
					r.send(r.st.fetchDst, r.buildFetch(1, int64(i), r.st.meta.Seq, nil))
				}
			}
		}
	}
	// Even a healthy idle replica announces itself occasionally so that a
	// healed partition (or a freshly recovered peer) discovers how far the
	// group has moved without waiting for client traffic.
	r.statusTicks++
	idleBeacon := r.statusTicks%idleStatusPeriod == 0
	if !r.stuck() && !idleBeacon {
		return
	}
	r.helpRound()
}

// helpRound asks the group for what this replica lacks and re-sends what
// it owes: its status (peers answer with the ordering evidence it is
// missing), fetches for unknown batches and late bodies, and its own votes
// for stalled batches. The status tick runs it when the replica is stuck;
// the view-change timer runs it once before suspecting a primary that has
// pre-prepared past this replica's frontier (see OnTimer).
func (r *Replica) helpRound() {
	if r.inViewChange {
		// Make sure our view-change is out there; a primary that already
		// formed a new view re-multicasts it (with its evidence) instead.
		if rec := r.vcs[r.view][int32(r.cfg.Self)]; rec != nil {
			r.env.Multicast(r.otherReplicas(), rec.raw)
		}
	}
	if r.lastNewView != nil && r.lastNewView.View == r.view && r.cfg.PrimaryOf(r.view) == r.cfg.Self {
		for _, vc := range r.lastNVVCs {
			r.broadcast(vc)
		}
		r.broadcast(r.lastNewView)
	}
	r.broadcast(r.buildStatus())
	// The loops below walk the log in ascending sequence order: the help
	// limit means the order picks WHICH slots get retransmitted, and the
	// execution head — the only slot whose completion advances lastExec —
	// must not wait behind slots deep in the window.
	seqs := sortedKeys(r.log)
	// Re-fetch bodies for any new-view batches still unknown.
	for _, n := range seqs {
		if r.log[n].unknownBatch {
			r.broadcast(r.buildFetch(-1, n, r.lastStable, nil))
		}
	}
	// Backstop for the grace-timer body fetch (see onPrePrepare and
	// fetchLateBodies): if the fetch or its response was itself lost, the
	// status tick retries it.
	r.fetchLateBodies()
	// Re-multicast our own prepare/commit votes for stalled batches: if
	// everyone lost a different subset of the quorum's votes, nobody is
	// "ahead" enough for the lag-based retransmission above to fire, and
	// only resending votes breaks the symmetry.
	if !r.inViewChange {
		resent := 0
		for _, n := range seqs {
			s := r.log[n]
			if n <= r.lastCommittedExec || !s.resolved() || s.committed || resent >= statusHelpLimit {
				continue
			}
			resent++
			if s.sentPrepare {
				r.broadcast(r.buildPrepare(s, nil))
			}
			if s.sentCommit {
				r.broadcast(r.buildCommit(s))
			}
			// The primary re-multicasts the pre-prepare in its original
			// shape (see rebuildPrePrepares): a stalled slot usually means a
			// lost datagram, and the re-sent assignment is what a backup
			// needs to notice which bodies it lacks and fetch exactly those.
			// Pushing every body to everyone on each status tick instead
			// floods the links the prepares are queued behind whenever
			// commit latency merely exceeds the tick period — measured at
			// 75% of primary egress in the 4 KB/0 microbenchmark at 200
			// clients, a self-sustaining collapse.
			if r.isPrimary() {
				for _, pp := range r.rebuildPrePrepares(s, nil) {
					r.broadcast(pp)
				}
			}
		}
	}
}

// buildStatus builds this replica's status report under buildPrepare's
// rule.
func (r *Replica) buildStatus() *message.Status {
	s := &message.Status{
		View:         r.view,
		InViewChange: r.inViewChange,
		LastStable:   r.lastStable,
		LastExec:     r.lastCommittedExec,
		Replica:      int32(r.cfg.Self),
	}
	r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, s.AuthContent(&r.contentEnc))
	s.Auth = r.authScratch
	return s
}

// armBodyFetch starts the grace period after which fetchLateBodies runs,
// unless one is already running.
func (r *Replica) armBodyFetch() {
	if !r.bodyFetchArmed {
		r.bodyFetchArmed = true
		r.env.SetTimer(timerBodyFetch, r.cfg.StatusInterval/16)
	}
}

// fetchLateBodies fetches the batches whose separately transmitted bodies
// still have not arrived once the grace period armed at pre-prepare
// receipt expires (see onPrePrepare): by then a merely-late body would
// have drained out of the queues, so what is still missing was genuinely
// dropped. Fetches go to the primary only — it assembled the batch, so it
// has every body — and are capped per firing; a remainder re-arms the
// timer instead of bursting.
func (r *Replica) fetchLateBodies() {
	if r.inViewChange {
		return
	}
	sent := 0
	for _, n := range sortedKeys(r.log) {
		s := r.log[n]
		if !s.havePP || s.missing == 0 || s.unknownBatch {
			continue
		}
		if sent == statusHelpLimit {
			r.armBodyFetch()
			return
		}
		sent++
		var missing []int32
		for j, req := range s.requests {
			if req == nil {
				missing = append(missing, int32(j))
			}
		}
		r.send(r.cfg.PrimaryOf(r.view), r.buildFetch(-1, n, r.lastStable, missing))
	}
}

// retransmitChunkBudget bounds the inline payload of one rebuilt
// pre-prepare (well under the 64 KB datagram limit).
const retransmitChunkBudget = 40 << 10

// rebuildPrePrepares reconstructs a resolved slot's pre-prepare for
// retransmission, split into as many chunks as its inline bodies need.
// include selects the batch entries that ride inline; the rest stay digest
// references. A nil include is the shape the batch was first sent in —
// every body that is not separately transmitted rides inline — and always
// fits one chunk while MaxBatchBytes is within the budget. That is what the
// status protocol resends: a peer lagging on ordering almost always holds
// the separately transmitted bodies already (clients multicast them to
// every replica). A fetch answer inlines what the fetcher named, and must
// stay proportionate: under load batches grow toward the request cap, and
// inlining a ~64-entry batch of 4 KB bodies to answer a single missing one
// multiplies a lost datagram into hundreds of kilobytes of egress.
//
// The authenticator covers (view, seq, batch digest, commits), not the
// refs, so the slot's retained one serves every shape; a slot without one
// (a batch adopted through a view change) gets a fresh one, retained for
// the next retransmission.
func (r *Replica) rebuildPrePrepares(s *slot, include []bool) []*message.PrePrepare {
	if s.ppAuth == nil {
		content := message.OrderContentWithCommits(&r.contentEnc, s.view, s.seq, s.batchDigest, s.ppCommits)
		s.ppAuth = r.suite.Auth(r.cfg.N, content)
	}
	var out []*message.PrePrepare
	for next := 0; ; {
		refs := make([]message.RequestRef, len(s.requests))
		for i := range refs {
			refs[i].Digest = s.reqDigests[i]
		}
		budget, progressed := retransmitChunkBudget, false
		for ; next < len(refs); next++ {
			if include != nil && !include[next] {
				continue
			}
			raw := message.Marshal(&r.wireEnc, s.requests[next])
			if include == nil && r.cfg.Opts.separate(len(raw), r.cfg.InlineThreshold) {
				continue
			}
			if progressed && len(raw) > budget {
				break
			}
			refs[next] = message.RequestRef{Inline: raw}
			budget -= len(raw)
			progressed = true
		}
		out = append(out, &message.PrePrepare{View: s.view, Seq: s.seq, Refs: refs, Commits: s.ppCommits, Auth: s.ppAuth})
		if next == len(refs) {
			return out
		}
	}
}

// stuck reports whether this replica is waiting on remote progress AND has
// made none since the previous status tick — transient pipeline states
// (a tentative batch awaiting its commits under load) must not trigger
// retransmission storms.
func (r *Replica) stuck() bool {
	mark := [3]int64{r.view, r.lastExec, r.lastCommittedExec}
	progressed := mark != r.lastStatusMark
	r.lastStatusMark = mark
	if progressed {
		return false
	}
	if r.inViewChange || r.pendingNV != nil || r.st != nil {
		return true
	}
	if r.knownStable > r.lastCommittedExec {
		// The group checkpointed past us and we have stopped closing the
		// gap: the messages we need were likely garbage collected.
		r.beginStateTransfer(r.knownStable)
		return true
	}
	if r.lastExec > r.lastCommittedExec {
		return true // tentative batch stalled before committing
	}
	if len(r.missingBody) > 0 {
		return true
	}
	for _, s := range r.log {
		if s.seq <= r.lastExec {
			continue
		}
		if s.havePP && !s.committed {
			return true
		}
	}
	return false
}

// latestOwnCheckpointAbove returns the highest sequence number above seq
// for which this replica has recorded its own checkpoint vote (0 if none).
func (r *Replica) latestOwnCheckpointAbove(seq int64) int64 {
	best := int64(0)
	for n, votes := range r.checkpoints {
		if n > seq && n > best {
			if _, ok := votes[int32(r.cfg.Self)]; ok {
				best = n
			}
		}
	}
	return best
}

// onStatus helps a peer catch up based on its self-reported progress, and
// notices when the peer is ahead of us instead.
func (r *Replica) onStatus(s *message.Status) {
	sender := int(s.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		return
	}
	if !r.suite.VerifyAuth(sender, s.Auth, s.AuthContent(&r.contentEnc)) {
		r.stats.DroppedMessages++
		return
	}
	r.statusHeard[sender] = r.env.Now()

	// The peer is ahead: if it garbage collected what we still need, fetch
	// state instead of waiting for messages that will never come.
	if s.LastStable > r.lastStable && r.lastCommittedExec < s.LastStable {
		r.beginStateTransfer(s.LastStable)
	}

	// The peer's stable checkpoint trails a checkpoint we have voted for:
	// resend our latest vote above its water mark. This both feeds the
	// f+1 attestation a state transfer needs and revives stability when
	// the original checkpoint broadcasts were lost group-wide (otherwise
	// the log window would jam permanently once h+L filled).
	if own := r.latestOwnCheckpointAbove(s.LastStable); own > 0 {
		r.send(sender, r.buildCheckpoint(own, r.checkpoints[own][int32(r.cfg.Self)]))
	}

	// The peer lags a view: replay the evidence that got us here.
	if s.View < r.view || (s.InViewChange && s.View == r.view && !r.inViewChange) {
		if r.lastNewView != nil && r.lastNewView.View == r.view {
			for _, vc := range r.lastNVVCs {
				r.send(sender, vc)
			}
			r.send(sender, r.lastNewView)
		} else if rec := r.vcs[r.view][int32(r.cfg.Self)]; rec != nil {
			r.env.Send(sender, rec.raw)
		}
		if s.View < r.view {
			return
		}
	}

	// Same view, both changing: resend our view-change, and our acks if
	// the peer is the (possibly late-joining) new primary.
	if s.InViewChange && s.View == r.view && r.inViewChange {
		if rec := r.vcs[r.view][int32(r.cfg.Self)]; rec != nil {
			r.env.Send(sender, rec.raw)
		}
		if sender == r.cfg.PrimaryOf(r.view) {
			r.ackStoredViewChanges(r.view)
		}
		return
	}

	// Normal-case catch-up: retransmit the ordering evidence for batches
	// the peer has not executed, lowest first, a bounded number per tick.
	if s.View != r.view || r.inViewChange || s.LastExec >= r.lastCommittedExec {
		return
	}
	helped := 0
	for _, n := range sortedKeys(r.log) {
		if helped == statusHelpLimit {
			break
		}
		if n > s.LastExec && n <= r.lastCommittedExec && n > s.LastStable {
			r.retransmitSlot(sender, r.log[n])
			helped++
		}
	}
}

// retransmitSlot resends the ordering evidence this replica holds for one
// batch: the pre-prepare in its original shape (see rebuildPrePrepares),
// plus a freshly authenticated prepare (if we are a backup) and commit.
// Re-pushing ~8 fully inlined batches per status tick per lagging peer was
// measured at 2x the primary's entire egress link in the 4 KB/0
// microbenchmark at 200 clients — the receiver fetches exactly the bodies
// it still lacks instead (see fetchLateBodies).
func (r *Replica) retransmitSlot(dst int, s *slot) {
	if !s.resolved() {
		return
	}
	for _, pp := range r.rebuildPrePrepares(s, nil) {
		r.send(dst, pp)
	}
	if s.sentPrepare {
		r.send(dst, r.buildPrepare(s, nil))
	}
	if s.sentCommit {
		r.send(dst, r.buildCommit(s))
	}
}
