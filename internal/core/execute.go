package core

import (
	"fmt"
	"math"
	"slices"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// tryExecute applies every executable batch in sequence order: committed
// batches unconditionally, and — under the tentative-execution optimization
// — the first uncommitted batch once it is prepared and everything below it
// has committed (which bounds tentative state to one batch).
func (r *Replica) tryExecute() {
	f := r.cfg.F()
	progress := false
	for {
		next := r.lastExec + 1
		s := r.log[next]
		if r.lastCommittedExec < r.lastExec {
			// A tentative batch is outstanding; it can only commit.
			ts := r.log[r.lastExec]
			if ts == nil || !ts.checkCommitted(f) {
				break
			}
			r.trace(obs.EvCommitted, r.lastExec, 0, 0)
			r.lastCommittedExec = r.lastExec
			r.onCommittedAdvance(r.lastExec)
			progress = true
			continue
		}
		if s == nil || !s.resolved() {
			break
		}
		if s.checkCommitted(f) {
			// Traced before execution so the commit boundary precedes the
			// execute boundary (execution charges advance Env.Now).
			r.trace(obs.EvCommitted, next, 0, 0)
			if !s.executed {
				r.executeBatch(s, false)
				s.executed = true
			}
			r.lastExec = next
			r.lastCommittedExec = next
			r.onCommittedAdvance(next)
			progress = true
			continue
		}
		if r.cfg.Opts.TentativeExecution && s.checkPrepared(f) && !s.executed {
			r.executeBatch(s, true)
			s.executed = true
			r.lastExec = next
			progress = true
			continue
		}
		break
	}
	if progress {
		r.trySendBatches()
		r.syncVCTimer(true)
	}
}

// onCommittedAdvance runs the bookkeeping owed when batch seq commits:
// stored tentative replies become definitive, held read-only replies whose
// prefix committed are released, and checkpoints are taken on interval
// boundaries (before any further tentative execution can dirty the state).
func (r *Replica) onCommittedAdvance(seq int64) {
	for _, rec := range r.clients {
		if rec.lastReplySeq == seq && rec.lastReply != nil {
			rec.lastReply.Tentative = false
		}
	}
	r.flushHeldReadOnly()
	if seq%r.cfg.CheckpointInterval == 0 {
		r.takeCheckpoint(seq)
	}
}

// executeBatch applies each request of a batch to the state machine and
// replies to its client. tentative marks replies produced before commit.
func (r *Replica) executeBatch(s *slot, tentative bool) {
	tent := int64(0)
	if tentative {
		tent = 1
	}
	r.trace(obs.EvExecuted, s.seq, tent, int64(len(s.requests)))
	r.stats.ExecutedBatches++
	for _, req := range s.requests {
		if req == nil {
			continue // null batch
		}
		rec, result, ran := r.applyRequest(req)
		if !ran {
			// Already executed (a faulty primary may re-propose); answer
			// from the stored reply if this is the same request.
			if req.Timestamp == rec.lastTimestamp {
				r.resendStoredReply(req, rec)
			}
			continue
		}
		r.stats.ExecutedRequests++
		r.trace(obs.EvExecRequest, s.seq, int64(req.Client), req.Timestamp)
		r.sendReply(req, r.storeReply(rec, req, s.seq, result, tentative))
	}
	// Executed requests leave the ordering pipeline.
	for _, d := range s.reqDigests {
		r.forgetRequest(d)
	}
}

// applyRequest runs req against the service unless its client already
// executed it (at-most-once), returning the client's record and the
// result. Execution and rollback replay apply a request as applyRequest
// then storeReply. Execution traces the request between the two: in the
// simulator the event's timestamp must count the service's charges and not
// the result digest's.
func (r *Replica) applyRequest(req *message.Request) (rec *clientRecord, result []byte, ran bool) {
	rec = r.clientRec(req.Client)
	if req.Timestamp <= rec.lastTimestamp {
		return rec, nil, false
	}
	return rec, r.sm.Execute(req.Client, req.Op, false), true
}

// storeReply records req's result, produced by batch seq, as its client's
// reply: the full result a retransmission is answered from.
func (r *Replica) storeReply(rec *clientRecord, req *message.Request, seq int64, result []byte, tentative bool) *message.Reply {
	resultD := r.suite.Digest(result)
	rec.lastTimestamp = req.Timestamp
	rec.lastReply = &message.Reply{
		View:      r.view,
		Timestamp: req.Timestamp,
		Client:    req.Client,
		Replica:   int32(r.cfg.Self),
		Tentative: tentative,
		Full:      true,
		Result:    result,
		ResultD:   resultD,
	}
	rec.lastReplySeq = seq
	return rec.lastReply
}

// forgetRequest drops request d from the ordering pipeline: its buffered
// body, its sequence-number assignment and any slot's wait for its body.
func (r *Replica) forgetRequest(d crypto.Digest) {
	delete(r.reqBuffer, d)
	delete(r.inFlight, d)
	delete(r.missingBody, d)
}

// sendReply MACs and sends a reply, honoring the digest-replies
// designation in req.
func (r *Replica) sendReply(req *message.Request, stored *message.Reply) {
	r.deliverReply(r.replyFor(req, stored))
}

// replyFor shapes a stored result into this replica's reply to req: the
// full result if req designates this replica (or all), its digest otherwise.
func (r *Replica) replyFor(req *message.Request, stored *message.Reply) *message.Reply {
	full := !r.cfg.Opts.DigestReplies ||
		req.Replier == message.AllReplicas ||
		int(req.Replier) == r.cfg.Self
	rep := &message.Reply{
		View:      r.view,
		Timestamp: stored.Timestamp,
		Client:    stored.Client,
		Replica:   int32(r.cfg.Self),
		Tentative: stored.Tentative,
		Full:      full,
		ResultD:   stored.ResultD,
	}
	if full {
		rep.Result = stored.Result
	}
	return rep
}

// resendStoredReply answers a retransmitted request from the client record.
func (r *Replica) resendStoredReply(req *message.Request, rec *clientRecord) {
	if rec.lastReply == nil {
		return
	}
	r.sendReply(req, rec.lastReply)
}

// executeReadOnly runs the paper's read-only optimization: execute
// immediately against the current state, but release the reply only after
// everything executed before it has committed (preserving linearizability
// together with the client's 2f+1 matching-reply rule).
func (r *Replica) executeReadOnly(req *message.Request) {
	result := r.sm.Execute(req.Client, req.Op, true)
	r.stats.ExecutedReadOnly++
	rep := r.replyFor(req, &message.Reply{Timestamp: req.Timestamp, Client: req.Client, Result: result, ResultD: r.suite.Digest(result)})
	if r.lastExec > r.lastCommittedExec {
		r.pendingRO = append(r.pendingRO, heldReply{frontier: r.lastExec, client: req.Client, reply: rep})
		return
	}
	r.deliverReply(rep)
}

// deliverReply MACs and sends an already-built reply.
func (r *Replica) deliverReply(rep *message.Reply) {
	mac, ok := r.suite.MAC(int(rep.Client), rep.AuthContent(&r.contentEnc))
	if !ok {
		return // no session key with this client yet
	}
	rep.MAC = mac
	r.send(int(rep.Client), rep)
	r.trace(obs.EvReplySent, 0, int64(rep.Client), rep.Timestamp)
}

// flushHeldReadOnly releases read-only replies whose observed prefix has
// committed.
func (r *Replica) flushHeldReadOnly() {
	if len(r.pendingRO) == 0 {
		return
	}
	var keep []heldReply
	for _, h := range r.pendingRO {
		if h.frontier <= r.lastCommittedExec {
			r.deliverReply(h.reply)
		} else {
			keep = append(keep, h)
		}
	}
	r.pendingRO = keep
}

// sortedClients returns the ids of the clients with a stored reply, in
// ascending order, in a scratch slice that stays valid until the next call.
// Only those clients are part of a checkpoint: transient request buffering
// differs across replicas, executed history does not.
func (r *Replica) sortedClients() []int32 {
	ids := r.idScratch[:0]
	for id, rec := range r.clients {
		if rec.lastReply != nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	r.idScratch = ids
	return ids
}

// checkpointDigest combines the service digest with a digest of the
// execution-visible client state (which client timestamps executed, with
// which results). ids is sortedClients().
func (r *Replica) checkpointDigest(ids []int32) crypto.Digest {
	e := &r.contentEnc
	e.Reset()
	for _, id := range ids {
		rec := r.clients[id]
		e.I32(id)
		e.I64(rec.lastTimestamp)
		e.Digest(rec.lastReply.ResultD)
	}
	ctd := r.suite.Digest(e.Bytes())
	smd := r.sm.StateDigest()
	return r.suite.Digest(ctd[:], smd[:])
}

// encodeClientTable serializes the client-table half of a checkpoint
// snapshot. ids is sortedClients().
func (r *Replica) encodeClientTable(ids []int32) []byte {
	size := 4
	for _, id := range ids {
		size += 16 + len(r.clients[id].lastReply.Result)
	}
	e := message.NewEncoder(size)
	e.Count(len(ids))
	for _, id := range ids {
		rec := r.clients[id]
		e.I32(id)
		e.I64(rec.lastTimestamp)
		e.Blob(rec.lastReply.Result)
	}
	return e.Bytes()
}

// decodeClientTable reads what encodeClientTable wrote.
func (r *Replica) decodeClientTable(d *message.Decoder) (map[int32]*clientRecord, error) {
	n := d.Count(4 + 8 + 4) // id, timestamp, empty result
	if d.Err() != nil {
		return nil, fmt.Errorf("core: corrupt snapshot header: %w", d.Err())
	}
	clients := make(map[int32]*clientRecord, n)
	for i := 0; i < n; i++ {
		id := d.I32()
		ts := d.I64()
		result := d.Blob()
		if d.Err() != nil {
			return nil, fmt.Errorf("core: corrupt snapshot client table: %w", d.Err())
		}
		result = append([]byte(nil), result...)
		clients[id] = &clientRecord{
			lastTimestamp: ts,
			lastReply: &message.Reply{
				Timestamp: ts,
				Client:    id,
				Replica:   int32(r.cfg.Self),
				Full:      true,
				Result:    result,
				ResultD:   crypto.Hash(result),
			},
		}
	}
	return clients, nil
}

// retainCheckpoint keeps the current state as checkpoint seq: the client
// table eagerly (it is small), the service state through cp. ids is
// sortedClients().
func (r *Replica) retainCheckpoint(seq int64, ids []int32) {
	r.ckTables[seq] = r.encodeClientTable(ids)
	r.cp.Checkpoint(seq)
}

// newestCheckpoint returns the highest retained checkpoint. Checkpoints are
// taken on committed boundaries only, so it never exceeds
// lastCommittedExec.
func (r *Replica) newestCheckpoint() (seq int64, ok bool) {
	for n := range r.ckTables {
		if !ok || n > seq {
			seq, ok = n, true
		}
	}
	return seq, ok
}

// dropCheckpoints forgets every retained checkpoint. A state transfer
// replaces the state they are relative to.
func (r *Replica) dropCheckpoints() {
	r.cp.Release(math.MaxInt64)
	clear(r.ckTables)
	clear(r.stChunks)
}

// snapshotAt serializes retained checkpoint seq for state transfer — the
// client table, then the service state as one blob — or returns nil when
// seq is not retained. This is where a Checkpointer service pays for a
// checkpoint, and only if a peer fetches it.
func (r *Replica) snapshotAt(seq int64) []byte {
	table, ok := r.ckTables[seq]
	if !ok {
		return nil
	}
	sm := r.cp.SnapshotAt(seq)
	e := message.NewEncoder(len(table) + 4 + len(sm))
	e.Raw(table)
	e.Blob(sm)
	return e.Bytes()
}

// restoreSnapshot replaces the replica-visible state with a transferred
// snapshotAt serialization. Once the service state is being replaced no
// retained checkpoint applies to it, so they are dropped first.
func (r *Replica) restoreSnapshot(snap []byte) error {
	d := message.NewDecoder(snap)
	clients, err := r.decodeClientTable(d)
	if err != nil {
		return err
	}
	smSnap := d.Blob()
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: corrupt snapshot: %w", err)
	}
	r.dropCheckpoints()
	if err := r.sm.Restore(smSnap); err != nil {
		return fmt.Errorf("core: restoring service state: %w", err)
	}
	r.clients = clients
	return nil
}

// takeCheckpoint digests the state at batch seq, retains it, and announces
// the checkpoint to the group.
func (r *Replica) takeCheckpoint(seq int64) {
	r.trace(obs.EvCheckpoint, seq, 0, 0)
	ids := r.sortedClients()
	d := r.checkpointDigest(ids)
	// A replica whose digest a quorum contradicted walks its log again
	// from lastStable while it waits for the state transfer (checkStable);
	// the state it passes boundaries with then is not the boundary's, and
	// the checkpoints it retained the first time stay.
	if newest, ok := r.newestCheckpoint(); !ok || seq > newest {
		r.retainCheckpoint(seq, ids)
	}
	r.recordCheckpoint(seq, int32(r.cfg.Self), d)
	r.broadcast(r.buildCheckpoint(seq, d))
	r.checkStable(seq, d)
}

// buildCheckpoint builds this replica's vote that checkpoint seq has digest
// d, under buildPrepare's rule.
func (r *Replica) buildCheckpoint(seq int64, d crypto.Digest) *message.Checkpoint {
	ck := &message.Checkpoint{Seq: seq, StateD: d, Replica: int32(r.cfg.Self)}
	r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, ck.AuthContent(&r.contentEnc))
	ck.Auth = r.authScratch
	return ck
}

// onCheckpoint processes a peer's checkpoint announcement.
func (r *Replica) onCheckpoint(c *message.Checkpoint) {
	sender := int(c.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self || c.Seq <= r.lastStable {
		return
	}
	if !r.suite.VerifyAuth(sender, c.Auth, c.AuthContent(&r.contentEnc)) {
		r.stats.DroppedMessages++
		return
	}
	r.recordCheckpoint(c.Seq, c.Replica, c.StateD)
	r.checkStable(c.Seq, c.StateD)
}

func (r *Replica) recordCheckpoint(seq int64, replica int32, d crypto.Digest) {
	set := r.checkpoints[seq]
	if set == nil {
		set = make(map[int32]crypto.Digest)
		r.checkpoints[seq] = set
	}
	set[replica] = d
}

// checkpointVotes counts replicas that announced (seq, d).
func (r *Replica) checkpointVotes(seq int64, d crypto.Digest) int {
	n := 0
	for _, got := range r.checkpoints[seq] {
		if got == d {
			n++
		}
	}
	return n
}

// attestedDigest returns a digest for seq vouched for by at least f+1
// replicas (so at least one correct one), if any.
func (r *Replica) attestedDigest(seq int64) (crypto.Digest, bool) {
	counts := make(map[crypto.Digest]int)
	for _, d := range r.checkpoints[seq] {
		counts[d]++
		if counts[d] >= r.cfg.F()+1 {
			return d, true
		}
	}
	return crypto.Digest{}, false
}

// checkStable promotes seq to the stable checkpoint once 2f+1 replicas
// (including possibly this one) announced matching digests, then garbage
// collects the log. A replica that cannot reach seq by local execution
// starts a state transfer instead — as does a replica whose own digest
// disagrees with the quorum's: its state is corrupt or diverged (the
// situation proactive recovery exists to repair), and only a verified
// refetch makes it correct again.
func (r *Replica) checkStable(seq int64, d crypto.Digest) {
	if seq <= r.lastStable || r.checkpointVotes(seq, d) < r.cfg.Quorum() {
		return
	}
	if own, voted := r.checkpoints[seq][int32(r.cfg.Self)]; voted && own != d {
		r.stats.Divergences++
		r.lastExec = r.lastStable
		r.lastCommittedExec = r.lastStable
		r.beginStateTransfer(seq)
		return
	}
	if seq > r.knownStable {
		r.knownStable = seq
	}
	if r.lastCommittedExec < seq {
		// The group moved past us. If the gap is small the ordinary
		// pipeline (plus status retransmission) will catch us up; a gap of
		// a full checkpoint interval means we are missing garbage-collected
		// messages and must fetch state. (Smaller gaps that fail to close
		// are detected by the status tick, which falls back to a state
		// transfer too.)
		if seq >= r.lastCommittedExec+r.cfg.CheckpointInterval {
			r.beginStateTransfer(seq)
		}
		return
	}
	r.makeStable(seq, d)
}

// makeStable advances the low water mark to seq and garbage collects
// everything below it.
func (r *Replica) makeStable(seq int64, d crypto.Digest) {
	r.trace(obs.EvCheckpointStable, seq, 0, 0)
	r.lastStable = seq
	r.stableDigest = d
	r.stats.StableCheckpoints++
	for n := range r.log {
		if n <= seq {
			delete(r.log, n)
		}
	}
	for n := range r.checkpoints {
		if n < seq {
			delete(r.checkpoints, n)
		}
	}
	for n := range r.ckTables {
		if n < seq {
			delete(r.ckTables, n)
			delete(r.stChunks, n)
		}
	}
	r.cp.Release(seq)
	for n := range r.pset {
		if n <= seq {
			delete(r.pset, n)
		}
	}
	for n := range r.qset {
		if n <= seq {
			delete(r.qset, n)
		}
	}
	for dg, n := range r.inFlight {
		if n <= seq {
			r.forgetRequest(dg)
		}
	}
	// The window may have opened for the primary.
	r.trySendBatches()
}
