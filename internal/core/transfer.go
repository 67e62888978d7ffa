package core

import (
	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
)

// fragmentSize is the page size used to chunk checkpoint snapshots for
// state transfer. The paper's library used a hierarchical partition tree
// over copy-on-write pages; this is its flat-tree equivalent: a meta-data
// message carries the page digests and pages verify individually, with a
// final whole-state digest check against the attested checkpoint.
const fragmentSize = 8 << 10

// chunkedSnapshot caches the fragmentation of one checkpoint snapshot.
type chunkedSnapshot struct {
	seq     int64
	frags   [][]byte
	digests []crypto.Digest
}

// stateTransfer tracks an in-progress fetch of a remote checkpoint.
type stateTransfer struct {
	target   int64 // minimum acceptable checkpoint sequence
	meta     *message.Meta
	expect   crypto.Digest // attested digest for meta.Seq
	frags    [][]byte
	missing  int
	bad      map[int]bool // sources that served corrupt state
	fetchDst int          // replica currently being fetched from
}

// beginStateTransfer starts (or retargets) a fetch of a checkpoint at or
// above target.
func (r *Replica) beginStateTransfer(target int64) {
	if r.st != nil && r.st.target >= target {
		return
	}
	r.trace(obs.EvStateFetch, target, 0, 0)
	var bad map[int]bool
	if r.st != nil {
		bad = r.st.bad
	} else {
		bad = make(map[int]bool)
	}
	r.st = &stateTransfer{target: target, bad: bad}
	r.broadcast(r.buildFetch(0, 0, r.lastStable, nil))
}

// buildFetch builds this replica's fetch under buildPrepare's rule. Every
// ask goes through here: level 0 asks the group for the meta-data of a
// checkpoint newer than seq, level 1 asks the transfer source for fragment
// index of checkpoint seq, and level -1 asks for the batch at sequence
// number index — inlining the entries listed in missing, or all of them
// when it is empty (seq is then this replica's stable checkpoint).
func (r *Replica) buildFetch(level int32, index, seq int64, missing []int32) *message.Fetch {
	f := &message.Fetch{Level: level, Index: index, Seq: seq, Missing: missing, Replica: int32(r.cfg.Self)}
	r.authScratch = r.suite.AuthInto(r.authScratch, r.cfg.N, f.AuthContent(&r.contentEnc))
	f.Auth = r.authScratch
	return f
}

// chunked returns the fragmentation of retained checkpoint seq, serializing
// the checkpoint on its first fetch and caching the result until the
// checkpoint is released.
func (r *Replica) chunked(seq int64) *chunkedSnapshot {
	if cs := r.stChunks[seq]; cs != nil {
		return cs
	}
	snap := r.snapshotAt(seq)
	if snap == nil {
		return nil
	}
	r.materialized++
	cs := &chunkedSnapshot{seq: seq}
	for off := 0; off < len(snap) || off == 0; off += fragmentSize {
		end := off + fragmentSize
		if end > len(snap) {
			end = len(snap)
		}
		frag := snap[off:end]
		cs.frags = append(cs.frags, frag)
		cs.digests = append(cs.digests, r.suite.Digest(frag))
		if end == len(snap) {
			break
		}
	}
	r.stChunks[seq] = cs
	return cs
}

// onFetch serves state-transfer and batch-content requests.
func (r *Replica) onFetch(f *message.Fetch) {
	sender := int(f.Replica)
	if sender < 0 || sender >= r.cfg.N || sender == r.cfg.Self {
		return
	}
	if !r.suite.VerifyAuth(sender, f.Auth, f.AuthContent(&r.contentEnc)) {
		r.stats.DroppedMessages++
		return
	}
	switch f.Level {
	case -1: // batch contents by sequence number
		s := r.log[f.Index]
		if s == nil || !s.resolved() || s.null {
			return
		}
		// Inline the entries the fetcher named, or all of them when it named
		// none; out-of-range entries from a Byzantine requester are ignored.
		include := make([]bool, len(s.requests))
		for i := range include {
			include[i] = len(f.Missing) == 0
		}
		for _, i := range f.Missing {
			if i >= 0 && int(i) < len(include) {
				include[i] = true
			}
		}
		for _, pp := range r.rebuildPrePrepares(s, include) {
			r.send(sender, pp)
		}
	case 0: // meta-data of our last stable checkpoint
		if f.Seq > r.lastStable {
			return // we have nothing newer than the requester
		}
		cs := r.chunked(r.lastStable)
		if cs == nil {
			return // not retained: a state transfer of our own dropped it
		}
		r.send(sender, &message.Meta{
			Level:    0,
			Index:    0,
			Seq:      r.lastStable,
			Children: cs.digests,
			Replica:  int32(r.cfg.Self),
		})
	case 1: // one fragment of a checkpoint snapshot
		cs := r.stChunks[f.Seq]
		if cs == nil && f.Seq == r.lastStable {
			cs = r.chunked(f.Seq)
		}
		if cs == nil || f.Index < 0 || f.Index >= int64(len(cs.frags)) {
			return
		}
		r.send(sender, &message.Fragment{
			Index:   f.Index,
			Seq:     f.Seq,
			Data:    cs.frags[f.Index],
			Replica: int32(r.cfg.Self),
		})
	}
}

// onMeta selects a checkpoint to fetch: the first offered meta at or above
// the target whose digest is attested by f+1 checkpoint messages.
func (r *Replica) onMeta(m *message.Meta) {
	st := r.st
	if st == nil || st.meta != nil || m.Seq < st.target || m.Seq <= r.lastStable {
		return
	}
	sender := int(m.Replica)
	if sender < 0 || sender >= r.cfg.N || st.bad[sender] {
		return
	}
	expect, ok := r.attestedDigest(m.Seq)
	if !ok {
		return // cannot validate yet; a later meta or checkpoint will do
	}
	if len(m.Children) == 0 || len(m.Children) > message.MaxCount {
		return
	}
	st.meta = m
	st.expect = expect
	st.frags = make([][]byte, len(m.Children))
	st.missing = len(m.Children)
	st.fetchDst = sender
	for i := range m.Children {
		r.send(sender, r.buildFetch(1, int64(i), m.Seq, nil))
	}
}

// onFragment verifies and stores one fetched page; when the last page
// lands, the snapshot is restored and checked against the attested digest.
func (r *Replica) onFragment(frag *message.Fragment) {
	st := r.st
	if st == nil || st.meta == nil || frag.Seq != st.meta.Seq {
		return
	}
	if frag.Index < 0 || frag.Index >= int64(len(st.frags)) || st.frags[frag.Index] != nil {
		return
	}
	if r.suite.Digest(frag.Data) != st.meta.Children[frag.Index] {
		r.failTransfer(st.fetchDst)
		return
	}
	st.frags[frag.Index] = frag.Data
	st.missing--
	if st.missing > 0 {
		return
	}
	total := 0
	for _, f := range st.frags {
		total += len(f)
	}
	snap := make([]byte, 0, total)
	for _, f := range st.frags {
		snap = append(snap, f...)
	}
	if err := r.restoreSnapshot(snap); err != nil {
		r.failTransfer(int(st.meta.Replica))
		return
	}
	ids := r.sortedClients()
	if r.checkpointDigest(ids) != st.expect {
		// The meta (or a fragment set) was consistent but wrong: the whole
		// source is suspect. Note the service state is now garbage; retry
		// immediately from another source.
		r.failTransfer(int(st.meta.Replica))
		return
	}
	seq := st.meta.Seq
	r.st = nil
	r.stats.StateTransfers++
	r.trace(obs.EvStateRestored, seq, 0, 0)
	r.lastExec = seq
	r.lastCommittedExec = seq
	r.recordCheckpoint(seq, int32(r.cfg.Self), st.expect)
	// The restore dropped every checkpoint; seq is the state now.
	r.retainCheckpoint(seq, ids)
	r.makeStable(seq, st.expect)
	// Drop buffered requests the restored state has already answered;
	// otherwise they keep the suspicion timer armed forever.
	for d, buf := range r.reqBuffer {
		if rec, ok := r.clients[buf.req.Client]; ok && buf.req.Timestamp <= rec.lastTimestamp {
			r.forgetRequest(d)
		}
	}
	r.broadcast(r.buildCheckpoint(seq, st.expect))
	r.tryExecute()
	r.syncVCTimer(true)
}

// failTransfer abandons the current source and restarts the fetch.
func (r *Replica) failTransfer(source int) {
	st := r.st
	if st == nil {
		return
	}
	st.bad[source] = true
	st.meta = nil
	st.frags = nil
	st.missing = 0
	r.broadcast(r.buildFetch(0, 0, r.lastStable, nil))
}
