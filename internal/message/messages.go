package message

import (
	"fmt"

	"bftfast/internal/crypto"
)

// Type identifies a wire message.
type Type uint8

// Wire message types. Values are stable wire constants.
const (
	TypeRequest Type = iota + 1
	TypeReply
	TypePrePrepare
	TypePrepare
	TypeCommit
	TypeCheckpoint
	TypeViewChange
	TypeViewChangeAck
	TypeNewView
	TypeNewKey
	TypeStatus
	TypeFetch
	TypeMeta
	TypeFragment
	TypeRecovery
)

func (t Type) String() string {
	switch t {
	case TypeRequest:
		return "request"
	case TypeReply:
		return "reply"
	case TypePrePrepare:
		return "pre-prepare"
	case TypePrepare:
		return "prepare"
	case TypeCommit:
		return "commit"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeViewChange:
		return "view-change"
	case TypeViewChangeAck:
		return "view-change-ack"
	case TypeNewView:
		return "new-view"
	case TypeNewKey:
		return "new-key"
	case TypeStatus:
		return "status"
	case TypeFetch:
		return "fetch"
	case TypeMeta:
		return "meta-data"
	case TypeFragment:
		return "fragment"
	case TypeRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Message is implemented by every wire message.
type Message interface {
	// Type returns the wire type tag.
	Type() Type
	// encodeBody appends the message body (everything after the type tag).
	encodeBody(e *Encoder)
}

// Marshal encodes m with its one-byte type tag.
func Marshal(m Message) []byte {
	e := NewEncoder(64)
	e.U8(uint8(m.Type()))
	m.encodeBody(e)
	return e.Bytes()
}

// Unmarshal decodes a message, rejecting malformed input with an error that
// wraps ErrMalformed. It never panics on untrusted input.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", ErrMalformed)
	}
	d := NewDecoder(data[1:])
	var m Message
	switch t := Type(data[0]); t {
	case TypeRequest:
		m = decodeRequest(d)
	case TypeReply:
		m = decodeReply(d)
	case TypePrePrepare:
		m = decodePrePrepare(d)
	case TypePrepare:
		m = decodePrepare(d)
	case TypeCommit:
		m = decodeCommit(d)
	case TypeCheckpoint:
		m = decodeCheckpoint(d)
	case TypeViewChange:
		m = decodeViewChange(d)
	case TypeViewChangeAck:
		m = decodeViewChangeAck(d)
	case TypeNewView:
		m = decodeNewView(d)
	case TypeNewKey:
		m = decodeNewKey(d)
	case TypeStatus:
		m = decodeStatus(d)
	case TypeFetch:
		m = decodeFetch(d)
	case TypeMeta:
		m = decodeMeta(d)
	case TypeFragment:
		m = decodeFragment(d)
	case TypeRecovery:
		m = decodeRecovery(d)
	default:
		return nil, fmt.Errorf("%w: unknown type %d", ErrMalformed, data[0])
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", Type(data[0]), err)
	}
	return m, nil
}

// AllReplicas is the Replier value requesting full replies from every
// replica (used on retransmission when the designated replier misbehaved).
const AllReplicas int32 = -1

// Request asks the service to execute Op. Timestamp orders requests from
// one client (exactly-once semantics); ReadOnly selects the single-round
// read-only optimization; Replier designates the replica that returns the
// full result under the digest-replies optimization.
//
// The authenticator covers the request digest, which excludes Replier: the
// designated replier is advisory load-balancing state, and excluding it
// keeps the digest stable across retransmissions that widen the replier set.
type Request struct {
	Client    int32
	Timestamp int64
	ReadOnly  bool
	Replier   int32
	Op        []byte
	Auth      crypto.Authenticator
}

var _ Message = (*Request)(nil)

// Type implements Message.
func (*Request) Type() Type { return TypeRequest }

// ContentDigest computes the request's identity digest via suite (metered).
func (r *Request) ContentDigest(s *crypto.Suite) crypto.Digest {
	var e Encoder
	return r.ContentDigestWith(s, &e)
}

// ContentDigestWith is ContentDigest encoding through scratch encoder e
// (reset first), so steady-state callers allocate nothing.
func (r *Request) ContentDigestWith(s *crypto.Suite, e *Encoder) crypto.Digest {
	e.Reset()
	e.I32(r.Client)
	e.I64(r.Timestamp)
	e.Bool(r.ReadOnly)
	e.Blob(r.Op)
	return s.Digest(e.Bytes())
}

func (r *Request) encodeBody(e *Encoder) {
	e.I32(r.Client)
	e.I64(r.Timestamp)
	e.Bool(r.ReadOnly)
	e.I32(r.Replier)
	e.Blob(r.Op)
	e.Auth(r.Auth)
}

func decodeRequest(d *Decoder) *Request {
	return &Request{
		Client:    d.I32(),
		Timestamp: d.I64(),
		ReadOnly:  d.Bool(),
		Replier:   d.I32(),
		Op:        d.Blob(),
		Auth:      d.Auth(),
	}
}

// Reply carries an operation result back to the client. Under the
// digest-replies optimization only the designated replica sets Full and
// Result; the others return ResultDigest so the client can validate the
// full copy. Tentative marks replies sent after the request prepared but
// before it committed (the tentative-execution optimization); the client
// then needs 2f+1 matching replies instead of f+1.
type Reply struct {
	View      int64
	Timestamp int64
	Client    int32
	Replica   int32
	Tentative bool
	Full      bool
	Result    []byte
	ResultD   crypto.Digest
	MAC       crypto.MAC
}

var _ Message = (*Reply)(nil)

// Type implements Message.
func (*Reply) Type() Type { return TypeReply }

// AuthContent returns the bytes covered by the reply MAC.
func (r *Reply) AuthContent() []byte {
	var e Encoder
	return r.AuthContentInto(&e)
}

// AuthContentInto is AuthContent encoding through scratch encoder e (reset
// first); the result aliases e's buffer and is valid until e is reused.
func (r *Reply) AuthContentInto(e *Encoder) []byte {
	e.Reset()
	e.I64(r.View)
	e.I64(r.Timestamp)
	e.I32(r.Client)
	e.I32(r.Replica)
	e.Bool(r.Tentative)
	e.Bool(r.Full)
	e.Blob(r.Result)
	e.Digest(r.ResultD)
	return e.Bytes()
}

func (r *Reply) encodeBody(e *Encoder) {
	e.I64(r.View)
	e.I64(r.Timestamp)
	e.I32(r.Client)
	e.I32(r.Replica)
	e.Bool(r.Tentative)
	e.Bool(r.Full)
	e.Blob(r.Result)
	e.Digest(r.ResultD)
	e.MAC(r.MAC)
}

func decodeReply(d *Decoder) *Reply {
	return &Reply{
		View:      d.I64(),
		Timestamp: d.I64(),
		Client:    d.I32(),
		Replica:   d.I32(),
		Tentative: d.Bool(),
		Full:      d.Bool(),
		Result:    d.Blob(),
		ResultD:   d.Digest(),
		MAC:       d.MAC(),
	}
}

// RequestRef names one request of a batch inside a pre-prepare: either the
// full encoded request inlined (small requests) or, under the separate
// request transmission optimization, just its digest — the client already
// multicast the body to all replicas.
type RequestRef struct {
	Digest crypto.Digest
	Inline []byte // full encoded Request; nil when transmitted separately
}

// CommitRef is a piggybacked commit assertion: the sender has prepared the
// batch with the given sequence number and digest. Piggybacking commits on
// later pre-prepare/prepare messages removes standalone commit traffic
// (the paper's final optimization, normal case only).
type CommitRef struct {
	Seq    int64
	Digest crypto.Digest
}

func encodeCommitRefs(e *Encoder, refs []CommitRef) {
	e.Count(len(refs))
	for _, c := range refs {
		e.I64(c.Seq)
		e.Digest(c.Digest)
	}
}

func decodeCommitRefs(d *Decoder) []CommitRef {
	n := d.Count()
	if d.Err() != nil {
		return nil
	}
	refs := make([]CommitRef, n)
	for i := range refs {
		refs[i] = CommitRef{Seq: d.I64(), Digest: d.Digest()}
	}
	return refs
}

// PrePrepare is the primary's sequence-number assignment for a batch of
// requests in a view. The authenticator covers (view, seq, batch digest),
// where the batch digest hashes the ordered request digests.
type PrePrepare struct {
	View    int64
	Seq     int64
	Refs    []RequestRef
	Commits []CommitRef // piggybacked commits (optional optimization)
	Auth    crypto.Authenticator
}

var _ Message = (*PrePrepare)(nil)

// Type implements Message.
func (*PrePrepare) Type() Type { return TypePrePrepare }

// BatchDigest folds the ordered request digests into the batch identity.
func BatchDigest(s *crypto.Suite, reqDigests []crypto.Digest) crypto.Digest {
	var e Encoder
	return BatchDigestWith(s, &e, reqDigests)
}

// BatchDigestWith is BatchDigest encoding through scratch encoder e (reset
// first).
func BatchDigestWith(s *crypto.Suite, e *Encoder, reqDigests []crypto.Digest) crypto.Digest {
	e.Reset()
	for _, d := range reqDigests {
		e.Digest(d)
	}
	return s.Digest(e.Bytes())
}

// OrderContent returns the bytes covered by ordering-phase authenticators
// for the tuple (view, seq, batch digest).
func OrderContent(view, seq int64, batch crypto.Digest) []byte {
	var e Encoder
	return OrderContentInto(&e, view, seq, batch)
}

// OrderContentInto is OrderContent encoding through scratch encoder e
// (reset first); the result aliases e's buffer and is valid until e is
// reused.
func OrderContentInto(e *Encoder, view, seq int64, batch crypto.Digest) []byte {
	e.Reset()
	e.I64(view)
	e.I64(seq)
	e.Digest(batch)
	return e.Bytes()
}

// OrderContentWithCommits extends OrderContent to cover piggybacked commit
// references, so a tampered piggyback cannot forge commits.
func OrderContentWithCommits(view, seq int64, batch crypto.Digest, commits []CommitRef) []byte {
	var e Encoder
	return OrderContentWithCommitsInto(&e, view, seq, batch, commits)
}

// OrderContentWithCommitsInto is OrderContentWithCommits encoding through
// scratch encoder e (reset first).
func OrderContentWithCommitsInto(e *Encoder, view, seq int64, batch crypto.Digest, commits []CommitRef) []byte {
	e.Reset()
	e.I64(view)
	e.I64(seq)
	e.Digest(batch)
	encodeCommitRefs(e, commits)
	return e.Bytes()
}

func (p *PrePrepare) encodeBody(e *Encoder) {
	e.I64(p.View)
	e.I64(p.Seq)
	e.Count(len(p.Refs))
	for _, r := range p.Refs {
		inline := r.Inline != nil
		e.Bool(inline)
		if inline {
			e.Blob(r.Inline)
		} else {
			e.Digest(r.Digest)
		}
	}
	encodeCommitRefs(e, p.Commits)
	e.Auth(p.Auth)
}

func decodePrePrepare(d *Decoder) *PrePrepare {
	p := &PrePrepare{View: d.I64(), Seq: d.I64()}
	n := d.Count()
	if d.Err() != nil {
		return p
	}
	p.Refs = make([]RequestRef, n)
	for i := range p.Refs {
		if d.Bool() {
			b := d.Blob()
			if b == nil {
				b = []byte{}
			}
			p.Refs[i].Inline = b
		} else {
			p.Refs[i].Digest = d.Digest()
		}
	}
	p.Commits = decodeCommitRefs(d)
	p.Auth = d.Auth()
	return p
}

// Prepare is a backup's acknowledgement of a pre-prepare. A replica that
// holds a pre-prepare and 2f matching prepares has *prepared* the batch.
type Prepare struct {
	View    int64
	Seq     int64
	Digest  crypto.Digest
	Replica int32
	Commits []CommitRef // piggybacked commits (optional optimization)
	Auth    crypto.Authenticator
}

var _ Message = (*Prepare)(nil)

// Type implements Message.
func (*Prepare) Type() Type { return TypePrepare }

func (p *Prepare) encodeBody(e *Encoder) {
	e.I64(p.View)
	e.I64(p.Seq)
	e.Digest(p.Digest)
	e.I32(p.Replica)
	encodeCommitRefs(e, p.Commits)
	e.Auth(p.Auth)
}

func decodePrepare(d *Decoder) *Prepare {
	return &Prepare{
		View:    d.I64(),
		Seq:     d.I64(),
		Digest:  d.Digest(),
		Replica: d.I32(),
		Commits: decodeCommitRefs(d),
		Auth:    d.Auth(),
	}
}

// Commit announces that a replica prepared the batch; 2f+1 commits make it
// *committed* and executable once all lower sequence numbers executed.
type Commit struct {
	View    int64
	Seq     int64
	Digest  crypto.Digest
	Replica int32
	Auth    crypto.Authenticator
}

var _ Message = (*Commit)(nil)

// Type implements Message.
func (*Commit) Type() Type { return TypeCommit }

func (c *Commit) encodeBody(e *Encoder) {
	e.I64(c.View)
	e.I64(c.Seq)
	e.Digest(c.Digest)
	e.I32(c.Replica)
	e.Auth(c.Auth)
}

func decodeCommit(d *Decoder) *Commit {
	return &Commit{
		View:    d.I64(),
		Seq:     d.I64(),
		Digest:  d.Digest(),
		Replica: d.I32(),
		Auth:    d.Auth(),
	}
}

// Checkpoint announces the digest of a replica's state after executing all
// requests up to Seq. 2f+1 matching checkpoints form a stable checkpoint,
// letting the log before Seq be garbage collected.
type Checkpoint struct {
	Seq     int64
	StateD  crypto.Digest
	Replica int32
	Auth    crypto.Authenticator
}

var _ Message = (*Checkpoint)(nil)

// Type implements Message.
func (*Checkpoint) Type() Type { return TypeCheckpoint }

// AuthContent returns the bytes covered by the checkpoint authenticator.
func (c *Checkpoint) AuthContent() []byte {
	var e Encoder
	return c.AuthContentInto(&e)
}

// AuthContentInto is AuthContent encoding through scratch encoder e (reset
// first).
func (c *Checkpoint) AuthContentInto(e *Encoder) []byte {
	e.Reset()
	e.I64(c.Seq)
	e.Digest(c.StateD)
	return e.Bytes()
}

func (c *Checkpoint) encodeBody(e *Encoder) {
	e.I64(c.Seq)
	e.Digest(c.StateD)
	e.I32(c.Replica)
	e.Auth(c.Auth)
}

func decodeCheckpoint(d *Decoder) *Checkpoint {
	return &Checkpoint{
		Seq:     d.I64(),
		StateD:  d.Digest(),
		Replica: d.I32(),
		Auth:    d.Auth(),
	}
}

// PQEntry describes one sequence number in a view-change message: the
// digest of the batch the sender prepared (set P) or pre-prepared (set Q)
// and the view in which it did so.
type PQEntry struct {
	Seq    int64
	View   int64
	Digest crypto.Digest
}

func encodePQ(e *Encoder, entries []PQEntry) {
	e.Count(len(entries))
	for _, p := range entries {
		e.I64(p.Seq)
		e.I64(p.View)
		e.Digest(p.Digest)
	}
}

func decodePQ(d *Decoder) []PQEntry {
	n := d.Count()
	if d.Err() != nil {
		return nil
	}
	entries := make([]PQEntry, n)
	for i := range entries {
		entries[i] = PQEntry{Seq: d.I64(), View: d.I64(), Digest: d.Digest()}
	}
	return entries
}

// ViewChange asks to move to view NewView. It reports the sender's last
// stable checkpoint and the P/Q sets the new primary needs to preserve
// ordering decisions across the view change. Authenticated with MACs and
// corroborated by view-change acks (the BFT library's signature-free
// view-change scheme).
type ViewChange struct {
	NewView    int64
	LastStable int64
	StableD    crypto.Digest
	Prepared   []PQEntry // P: batches prepared in earlier views
	PrePrep    []PQEntry // Q: batches pre-prepared in earlier views
	Replica    int32
	Auth       crypto.Authenticator
}

var _ Message = (*ViewChange)(nil)

// Type implements Message.
func (*ViewChange) Type() Type { return TypeViewChange }

// AuthContent returns the bytes covered by the view-change authenticator
// and hashed into the digest that acks and new-view messages reference.
func (v *ViewChange) AuthContent() []byte {
	var e Encoder
	return v.AuthContentInto(&e)
}

// AuthContentInto is AuthContent encoded through a reusable scratch
// encoder; the result aliases e's buffer.
func (v *ViewChange) AuthContentInto(e *Encoder) []byte {
	e.Reset()
	e.I64(v.NewView)
	e.I64(v.LastStable)
	e.Digest(v.StableD)
	encodePQ(e, v.Prepared)
	encodePQ(e, v.PrePrep)
	e.I32(v.Replica)
	return e.Bytes()
}

func (v *ViewChange) encodeBody(e *Encoder) {
	e.I64(v.NewView)
	e.I64(v.LastStable)
	e.Digest(v.StableD)
	encodePQ(e, v.Prepared)
	encodePQ(e, v.PrePrep)
	e.I32(v.Replica)
	e.Auth(v.Auth)
}

func decodeViewChange(d *Decoder) *ViewChange {
	return &ViewChange{
		NewView:    d.I64(),
		LastStable: d.I64(),
		StableD:    d.Digest(),
		Prepared:   decodePQ(d),
		PrePrep:    decodePQ(d),
		Replica:    d.I32(),
		Auth:       d.Auth(),
	}
}

// ViewChangeAck tells the new primary that Replica received Origin's
// view-change with digest VCD and verified its authenticator entry. 2f-1
// acks substitute for a signature on the view-change.
type ViewChangeAck struct {
	View    int64
	Replica int32
	Origin  int32
	VCD     crypto.Digest
	MAC     crypto.MAC // point-to-point to the new primary
}

var _ Message = (*ViewChangeAck)(nil)

// Type implements Message.
func (*ViewChangeAck) Type() Type { return TypeViewChangeAck }

// AuthContent returns the bytes covered by the ack MAC.
func (a *ViewChangeAck) AuthContent() []byte {
	var e Encoder
	return a.AuthContentInto(&e)
}

// AuthContentInto is AuthContent encoded through a reusable scratch
// encoder; the result aliases e's buffer.
func (a *ViewChangeAck) AuthContentInto(e *Encoder) []byte {
	e.Reset()
	e.I64(a.View)
	e.I32(a.Replica)
	e.I32(a.Origin)
	e.Digest(a.VCD)
	return e.Bytes()
}

func (a *ViewChangeAck) encodeBody(e *Encoder) {
	e.I64(a.View)
	e.I32(a.Replica)
	e.I32(a.Origin)
	e.Digest(a.VCD)
	e.MAC(a.MAC)
}

func decodeViewChangeAck(d *Decoder) *ViewChangeAck {
	return &ViewChangeAck{
		View:    d.I64(),
		Replica: d.I32(),
		Origin:  d.I32(),
		VCD:     d.Digest(),
		MAC:     d.MAC(),
	}
}

// VCRef identifies a view-change message accepted into a new-view.
type VCRef struct {
	Replica int32
	Digest  crypto.Digest
}

// NVBatch is the new primary's choice for one sequence number in the new
// view: the batch digest to re-propose, or the zero digest for a null
// request filling a gap.
type NVBatch struct {
	Seq    int64
	Digest crypto.Digest
}

// NewView installs view View. VCs names the 2f+1 view-changes justifying
// it; MinSeq is the stable-checkpoint sequence number chosen as the new
// log base and Batches re-proposes every undecided sequence number above it.
type NewView struct {
	View    int64
	VCs     []VCRef
	MinSeq  int64
	Batches []NVBatch
	Auth    crypto.Authenticator
}

var _ Message = (*NewView)(nil)

// Type implements Message.
func (*NewView) Type() Type { return TypeNewView }

// AuthContent returns the bytes covered by the new-view authenticator.
func (n *NewView) AuthContent() []byte {
	var e Encoder
	return n.AuthContentInto(&e)
}

// AuthContentInto is AuthContent encoded through a reusable scratch
// encoder; the result aliases e's buffer.
func (n *NewView) AuthContentInto(e *Encoder) []byte {
	e.Reset()
	e.I64(n.View)
	e.Count(len(n.VCs))
	for _, v := range n.VCs {
		e.I32(v.Replica)
		e.Digest(v.Digest)
	}
	e.I64(n.MinSeq)
	e.Count(len(n.Batches))
	for _, b := range n.Batches {
		e.I64(b.Seq)
		e.Digest(b.Digest)
	}
	return e.Bytes()
}

func (n *NewView) encodeBody(e *Encoder) {
	e.I64(n.View)
	e.Count(len(n.VCs))
	for _, v := range n.VCs {
		e.I32(v.Replica)
		e.Digest(v.Digest)
	}
	e.I64(n.MinSeq)
	e.Count(len(n.Batches))
	for _, b := range n.Batches {
		e.I64(b.Seq)
		e.Digest(b.Digest)
	}
	e.Auth(n.Auth)
}

func decodeNewView(d *Decoder) *NewView {
	n := &NewView{View: d.I64()}
	cnt := d.Count()
	if d.Err() != nil {
		return n
	}
	n.VCs = make([]VCRef, cnt)
	for i := range n.VCs {
		n.VCs[i] = VCRef{Replica: d.I32(), Digest: d.Digest()}
	}
	n.MinSeq = d.I64()
	cnt = d.Count()
	if d.Err() != nil {
		return n
	}
	n.Batches = make([]NVBatch, cnt)
	for i := range n.Batches {
		n.Batches[i] = NVBatch{Seq: d.I64(), Digest: d.Digest()}
	}
	n.Auth = d.Auth()
	return n
}

// KeyEntry assigns a fresh inbound session key to one sender.
type KeyEntry struct {
	Replica int32
	Key     crypto.Key
}

// NewKey distributes fresh inbound session keys chosen by Replica. In the
// real system each entry is encrypted under the recipient's public key and
// the message is signed; here the message is authenticated under the
// long-term pairwise master keys that stand in for the PKI (see DESIGN.md),
// and the simulator charges public-key-era costs for processing it.
type NewKey struct {
	Replica int32
	Epoch   int64
	Keys    []KeyEntry
	Auth    crypto.Authenticator // computed under master keys
}

var _ Message = (*NewKey)(nil)

// Type implements Message.
func (*NewKey) Type() Type { return TypeNewKey }

// AuthContent returns the bytes covered by the new-key authenticator.
func (n *NewKey) AuthContent() []byte {
	e := NewEncoder(32 + len(n.Keys)*(4+crypto.KeySize))
	e.I32(n.Replica)
	e.I64(n.Epoch)
	e.Count(len(n.Keys))
	for _, k := range n.Keys {
		e.I32(k.Replica)
		e.Key(k.Key)
	}
	return e.Bytes()
}

func (n *NewKey) encodeBody(e *Encoder) {
	e.I32(n.Replica)
	e.I64(n.Epoch)
	e.Count(len(n.Keys))
	for _, k := range n.Keys {
		e.I32(k.Replica)
		e.Key(k.Key)
	}
	e.Auth(n.Auth)
}

func decodeNewKey(d *Decoder) *NewKey {
	n := &NewKey{Replica: d.I32(), Epoch: d.I64()}
	cnt := d.Count()
	if d.Err() != nil {
		return n
	}
	n.Keys = make([]KeyEntry, cnt)
	for i := range n.Keys {
		n.Keys[i] = KeyEntry{Replica: d.I32(), Key: d.Key()}
	}
	n.Auth = d.Auth()
	return n
}

// Status summarizes a replica's progress so peers can retransmit what it
// is missing: current view, whether it is waiting for a new-view, the last
// stable checkpoint, and the last executed sequence number.
type Status struct {
	View         int64
	InViewChange bool
	LastStable   int64
	LastExec     int64
	Replica      int32
	Auth         crypto.Authenticator
}

var _ Message = (*Status)(nil)

// Type implements Message.
func (*Status) Type() Type { return TypeStatus }

// AuthContent returns the bytes covered by the status authenticator.
func (s *Status) AuthContent() []byte {
	var e Encoder
	return s.AuthContentInto(&e)
}

// AuthContentInto is AuthContent encoding through scratch encoder e (reset
// first).
func (s *Status) AuthContentInto(e *Encoder) []byte {
	e.Reset()
	e.I64(s.View)
	e.Bool(s.InViewChange)
	e.I64(s.LastStable)
	e.I64(s.LastExec)
	e.I32(s.Replica)
	return e.Bytes()
}

func (s *Status) encodeBody(e *Encoder) {
	e.I64(s.View)
	e.Bool(s.InViewChange)
	e.I64(s.LastStable)
	e.I64(s.LastExec)
	e.I32(s.Replica)
	e.Auth(s.Auth)
}

func decodeStatus(d *Decoder) *Status {
	return &Status{
		View:         d.I64(),
		InViewChange: d.Bool(),
		LastStable:   d.I64(),
		LastExec:     d.I64(),
		Replica:      d.I32(),
		Auth:         d.Auth(),
	}
}

// Fetch asks for state-transfer data: the meta-data (child digests) or the
// leaf data of partition (Level, Index) of the state partition tree, valid
// at or after sequence number Seq. Level -1 instead asks for the request
// bodies of the batch at sequence number Index.
type Fetch struct {
	Level int32
	Index int64
	Seq   int64 // requester's last stable checkpoint

	// Missing, for Level -1, lists the batch entries whose bodies the
	// requester lacks, so the response can inline exactly those instead of
	// the whole batch. Empty means everything (a batch never seen at all).
	Missing []int32

	Replica int32
	Auth    crypto.Authenticator
}

var _ Message = (*Fetch)(nil)

// Type implements Message.
func (*Fetch) Type() Type { return TypeFetch }

// AuthContent returns the bytes covered by the fetch authenticator.
func (f *Fetch) AuthContent() []byte {
	var e Encoder
	return f.AuthContentInto(&e)
}

// AuthContentInto is AuthContent encoding through scratch encoder e (reset
// first).
func (f *Fetch) AuthContentInto(e *Encoder) []byte {
	e.Reset()
	e.I32(f.Level)
	e.I64(f.Index)
	e.I64(f.Seq)
	e.Count(len(f.Missing))
	for _, i := range f.Missing {
		e.I32(i)
	}
	e.I32(f.Replica)
	return e.Bytes()
}

func (f *Fetch) encodeBody(e *Encoder) {
	e.I32(f.Level)
	e.I64(f.Index)
	e.I64(f.Seq)
	e.Count(len(f.Missing))
	for _, i := range f.Missing {
		e.I32(i)
	}
	e.I32(f.Replica)
	e.Auth(f.Auth)
}

func decodeFetch(d *Decoder) *Fetch {
	f := &Fetch{
		Level: d.I32(),
		Index: d.I64(),
		Seq:   d.I64(),
	}
	if n := d.Count(); n > 0 && d.err == nil {
		f.Missing = make([]int32, n)
		for i := range f.Missing {
			f.Missing[i] = d.I32()
		}
	}
	f.Replica = d.I32()
	f.Auth = d.Auth()
	return f
}

// Meta answers a Fetch for an interior partition: the digests of its
// children at sequence number Seq. Meta needs no authenticator — the
// requester checks the digests against a parent digest it already trusts.
type Meta struct {
	Level    int32
	Index    int64
	Seq      int64
	Children []crypto.Digest
	Replica  int32
}

var _ Message = (*Meta)(nil)

// Type implements Message.
func (*Meta) Type() Type { return TypeMeta }

func (m *Meta) encodeBody(e *Encoder) {
	e.I32(m.Level)
	e.I64(m.Index)
	e.I64(m.Seq)
	e.Count(len(m.Children))
	for _, c := range m.Children {
		e.Digest(c)
	}
	e.I32(m.Replica)
}

func decodeMeta(d *Decoder) *Meta {
	m := &Meta{Level: d.I32(), Index: d.I64(), Seq: d.I64()}
	cnt := d.Count()
	if d.Err() != nil {
		return m
	}
	m.Children = make([]crypto.Digest, cnt)
	for i := range m.Children {
		m.Children[i] = d.Digest()
	}
	m.Replica = d.I32()
	return m
}

// Fragment answers a Fetch for a leaf partition: the page bytes at
// sequence number Seq. Verified against the trusted parent digest.
type Fragment struct {
	Index   int64
	Seq     int64
	Data    []byte
	Replica int32
}

var _ Message = (*Fragment)(nil)

// Type implements Message.
func (*Fragment) Type() Type { return TypeFragment }

func (f *Fragment) encodeBody(e *Encoder) {
	e.I64(f.Index)
	e.I64(f.Seq)
	e.Blob(f.Data)
	e.I32(f.Replica)
}

func decodeFragment(d *Decoder) *Fragment {
	return &Fragment{
		Index:   d.I64(),
		Seq:     d.I64(),
		Data:    d.Blob(),
		Replica: d.I32(),
	}
}

// Recovery announces that Replica is proactively recovering: it has
// discarded its session keys (epoch Epoch) and asks peers for their status
// so it can bring itself up to date. Authenticated under master keys like
// NewKey.
type Recovery struct {
	Replica int32
	Epoch   int64
	Auth    crypto.Authenticator
}

var _ Message = (*Recovery)(nil)

// Type implements Message.
func (*Recovery) Type() Type { return TypeRecovery }

// AuthContent returns the bytes covered by the recovery authenticator.
func (r *Recovery) AuthContent() []byte {
	e := NewEncoder(16)
	e.I32(r.Replica)
	e.I64(r.Epoch)
	return e.Bytes()
}

func (r *Recovery) encodeBody(e *Encoder) {
	e.I32(r.Replica)
	e.I64(r.Epoch)
	e.Auth(r.Auth)
}

func decodeRecovery(d *Decoder) *Recovery {
	return &Recovery{
		Replica: d.I32(),
		Epoch:   d.I64(),
		Auth:    d.Auth(),
	}
}
