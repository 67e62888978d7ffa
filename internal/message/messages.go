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

// types has one row per wire type: its name and a constructor for the value
// Unmarshal decodes into. Row 0 is the invalid zero tag.
var types = [...]struct {
	name string
	new  func() Message
}{
	TypeRequest:       {"request", func() Message { return new(Request) }},
	TypeReply:         {"reply", func() Message { return new(Reply) }},
	TypePrePrepare:    {"pre-prepare", func() Message { return new(PrePrepare) }},
	TypePrepare:       {"prepare", func() Message { return new(Prepare) }},
	TypeCommit:        {"commit", func() Message { return new(Commit) }},
	TypeCheckpoint:    {"checkpoint", func() Message { return new(Checkpoint) }},
	TypeViewChange:    {"view-change", func() Message { return new(ViewChange) }},
	TypeViewChangeAck: {"view-change-ack", func() Message { return new(ViewChangeAck) }},
	TypeNewView:       {"new-view", func() Message { return new(NewView) }},
	TypeNewKey:        {"new-key", func() Message { return new(NewKey) }},
	TypeStatus:        {"status", func() Message { return new(Status) }},
	TypeFetch:         {"fetch", func() Message { return new(Fetch) }},
	TypeMeta:          {"meta-data", func() Message { return new(Meta) }},
	TypeFragment:      {"fragment", func() Message { return new(Fragment) }},
	TypeRecovery:      {"recovery", func() Message { return new(Recovery) }},
}

func (t Type) valid() bool { return int(t) < len(types) && types[t].new != nil }

func (t Type) String() string {
	if !t.valid() {
		return fmt.Sprintf("type(%d)", uint8(t))
	}
	return types[t].name
}

// Message is implemented by every wire message.
type Message interface {
	// Type returns the wire type tag.
	Type() Type
	// encodeBody appends the message body (everything after the type tag).
	encodeBody(e *Encoder)
}

// EncodeTo resets e and encodes m with its one-byte type tag. The result
// aliases e's buffer: it is valid until e is reused and must not be passed
// to Env.Send (use Marshal for wire buffers).
//
//bftvet:allocfree
func EncodeTo(e *Encoder, m Message) []byte {
	e.Reset()
	e.U8(uint8(m.Type()))
	m.encodeBody(e)
	return e.Bytes()
}

// Marshal encodes m through scratch encoder e and returns a fresh
// exact-size buffer the caller owns (safe to hand to Env.Send, which takes
// ownership and so can never be given pooled storage): one allocation.
func Marshal(e *Encoder, m Message) []byte {
	b := EncodeTo(e, m)
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Unmarshal decodes a message into a fresh value, rejecting malformed input
// with an error that wraps ErrMalformed. It never panics on untrusted input.
func Unmarshal(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", ErrMalformed)
	}
	if !Type(data[0]).valid() {
		return nil, fmt.Errorf("%w: unknown type %d", ErrMalformed, data[0])
	}
	m := types[data[0]].new()
	if err := UnmarshalInto(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalInto decodes a wire message carrying m's type tag into m,
// reusing the capacity of m's slices; byte-string fields alias data. On
// error m holds partially decoded fields the caller must ignore. Decoding
// into a value that is then reused for the next message is only safe when
// the handler retains nothing of it: engines do so for prepare, commit and
// reply, and give every other type the fresh value Unmarshal builds.
//
//bftvet:allocfree
func UnmarshalInto(data []byte, m Message) error {
	if len(data) == 0 || Type(data[0]) != m.Type() {
		return fmt.Errorf("%w: not a %s", ErrMalformed, m.Type())
	}
	d := Decoder{buf: data[1:]}
	decodeBody(&d, m)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("decoding %s: %w", m.Type(), err)
	}
	return nil
}

// decodeBody dispatches to m's decodeBody. It is a type switch and not a
// method of Message on purpose: a call through the interface makes the
// caller's stack Decoder escape (measured on the prepare decode: 1
// allocation of 48 B and 107-116 ns against 0 and 68-72 ns this way).
//
//bftvet:allocfree
func decodeBody(d *Decoder, m Message) {
	switch m := m.(type) {
	case *Request:
		m.decodeBody(d)
	case *Reply:
		m.decodeBody(d)
	case *PrePrepare:
		m.decodeBody(d)
	case *Prepare:
		m.decodeBody(d)
	case *Commit:
		m.decodeBody(d)
	case *Checkpoint:
		m.decodeBody(d)
	case *ViewChange:
		m.decodeBody(d)
	case *ViewChangeAck:
		m.decodeBody(d)
	case *NewView:
		m.decodeBody(d)
	case *NewKey:
		m.decodeBody(d)
	case *Status:
		m.decodeBody(d)
	case *Fetch:
		m.decodeBody(d)
	case *Meta:
		m.decodeBody(d)
	case *Fragment:
		m.decodeBody(d)
	case *Recovery:
		m.decodeBody(d)
	}
}

// authContent encodes what m's authenticator covers. For the types that
// have a content method, the wire body is that same call followed by the
// fields outside the MAC, so what is authenticated is what is sent.
func authContent(e *Encoder, m interface{ content(*Encoder) }) []byte {
	e.Reset()
	m.content(e)
	return e.Bytes()
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

// Type implements Message.
func (*Request) Type() Type { return TypeRequest }

// ContentDigest computes the request's identity digest via suite (metered),
// encoding its input through scratch encoder e (reset first).
func (r *Request) ContentDigest(s *crypto.Suite, e *Encoder) crypto.Digest {
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

func (r *Request) decodeBody(d *Decoder) {
	r.Client = d.I32()
	r.Timestamp = d.I64()
	r.ReadOnly = d.Bool()
	r.Replier = d.I32()
	r.Op = d.Blob()
	r.Auth = d.Auth(r.Auth)
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

// Type implements Message.
func (*Reply) Type() Type { return TypeReply }

func (r *Reply) content(e *Encoder) {
	e.I64(r.View)
	e.I64(r.Timestamp)
	e.I32(r.Client)
	e.I32(r.Replica)
	e.Bool(r.Tentative)
	e.Bool(r.Full)
	e.Blob(r.Result)
	e.Digest(r.ResultD)
}

// AuthContent returns the bytes covered by the reply MAC, encoded through
// scratch encoder e (reset first): the result aliases e's buffer and is
// valid until e is reused. Every AuthContent below has this contract.
func (r *Reply) AuthContent(e *Encoder) []byte { return authContent(e, r) }

func (r *Reply) encodeBody(e *Encoder) {
	r.content(e)
	e.MAC(r.MAC)
}

//bftvet:allocfree
func (r *Reply) decodeBody(d *Decoder) {
	r.View = d.I64()
	r.Timestamp = d.I64()
	r.Client = d.I32()
	r.Replica = d.I32()
	r.Tentative = d.Bool()
	r.Full = d.Bool()
	r.Result = d.Blob()
	r.ResultD = d.Digest()
	r.MAC = d.MAC()
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

// Minimum encoded sizes of repeated-field elements, for Decoder.Count.
const (
	minRequestRef = 1 + 4 // inline flag + empty blob
	sizeCommitRef = 8 + crypto.DigestSize
	sizePQEntry   = 8 + 8 + crypto.DigestSize
	sizeVCRef     = 4 + crypto.DigestSize
	sizeNVBatch   = 8 + crypto.DigestSize
	sizeKeyEntry  = 4 + crypto.KeySize
)

func encodeCommitRefs(e *Encoder, refs []CommitRef) {
	e.Count(len(refs))
	for _, c := range refs {
		e.I64(c.Seq)
		e.Digest(c.Digest)
	}
}

//bftvet:allocfree
func decodeCommitRefs(d *Decoder, refs []CommitRef) []CommitRef {
	refs = resize(refs, d.Count(sizeCommitRef))
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

// Type implements Message.
func (*PrePrepare) Type() Type { return TypePrePrepare }

// BatchDigest folds the ordered request digests into the batch identity,
// encoding through scratch encoder e (reset first).
func BatchDigest(s *crypto.Suite, e *Encoder, reqDigests []crypto.Digest) crypto.Digest {
	e.Reset()
	for _, d := range reqDigests {
		e.Digest(d)
	}
	return s.Digest(e.Bytes())
}

// order appends the tuple every ordering-phase authenticator covers.
func order(e *Encoder, view, seq int64, batch crypto.Digest) {
	e.I64(view)
	e.I64(seq)
	e.Digest(batch)
}

// OrderContent returns the bytes covered by a commit's authenticator: the
// tuple (view, seq, batch digest). Same scratch contract as AuthContent.
func OrderContent(e *Encoder, view, seq int64, batch crypto.Digest) []byte {
	e.Reset()
	order(e, view, seq, batch)
	return e.Bytes()
}

// OrderContentWithCommits returns the bytes covered by the authenticator of
// a pre-prepare or prepare: OrderContent extended by the piggybacked commit
// references (their count even when there are none), so a tampered
// piggyback cannot forge commits.
func OrderContentWithCommits(e *Encoder, view, seq int64, batch crypto.Digest, commits []CommitRef) []byte {
	e.Reset()
	order(e, view, seq, batch)
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

func (p *PrePrepare) decodeBody(d *Decoder) {
	p.View = d.I64()
	p.Seq = d.I64()
	p.Refs = resize(p.Refs, d.Count(minRequestRef))
	for i := range p.Refs {
		p.Refs[i] = RequestRef{}
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
	p.Commits = decodeCommitRefs(d, p.Commits)
	p.Auth = d.Auth(p.Auth)
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

// Type implements Message.
func (*Prepare) Type() Type { return TypePrepare }

func (p *Prepare) encodeBody(e *Encoder) {
	order(e, p.View, p.Seq, p.Digest)
	e.I32(p.Replica)
	encodeCommitRefs(e, p.Commits)
	e.Auth(p.Auth)
}

//bftvet:allocfree
func (p *Prepare) decodeBody(d *Decoder) {
	p.View = d.I64()
	p.Seq = d.I64()
	p.Digest = d.Digest()
	p.Replica = d.I32()
	p.Commits = decodeCommitRefs(d, p.Commits)
	p.Auth = d.Auth(p.Auth)
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

// Type implements Message.
func (*Commit) Type() Type { return TypeCommit }

func (c *Commit) encodeBody(e *Encoder) {
	order(e, c.View, c.Seq, c.Digest)
	e.I32(c.Replica)
	e.Auth(c.Auth)
}

//bftvet:allocfree
func (c *Commit) decodeBody(d *Decoder) {
	c.View = d.I64()
	c.Seq = d.I64()
	c.Digest = d.Digest()
	c.Replica = d.I32()
	c.Auth = d.Auth(c.Auth)
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

// Type implements Message.
func (*Checkpoint) Type() Type { return TypeCheckpoint }

func (c *Checkpoint) content(e *Encoder) {
	e.I64(c.Seq)
	e.Digest(c.StateD)
}

// AuthContent returns the bytes covered by the checkpoint authenticator.
// Replica is outside it: matching checkpoints from different replicas
// authenticate the same bytes.
func (c *Checkpoint) AuthContent(e *Encoder) []byte { return authContent(e, c) }

func (c *Checkpoint) encodeBody(e *Encoder) {
	c.content(e)
	e.I32(c.Replica)
	e.Auth(c.Auth)
}

func (c *Checkpoint) decodeBody(d *Decoder) {
	c.Seq = d.I64()
	c.StateD = d.Digest()
	c.Replica = d.I32()
	c.Auth = d.Auth(c.Auth)
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

func decodePQ(d *Decoder, entries []PQEntry) []PQEntry {
	entries = resize(entries, d.Count(sizePQEntry))
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

// Type implements Message.
func (*ViewChange) Type() Type { return TypeViewChange }

func (v *ViewChange) content(e *Encoder) {
	e.I64(v.NewView)
	e.I64(v.LastStable)
	e.Digest(v.StableD)
	encodePQ(e, v.Prepared)
	encodePQ(e, v.PrePrep)
	e.I32(v.Replica)
}

// AuthContent returns the bytes covered by the view-change authenticator
// and hashed into the digest that acks and new-view messages reference.
func (v *ViewChange) AuthContent(e *Encoder) []byte { return authContent(e, v) }

func (v *ViewChange) encodeBody(e *Encoder) {
	v.content(e)
	e.Auth(v.Auth)
}

func (v *ViewChange) decodeBody(d *Decoder) {
	v.NewView = d.I64()
	v.LastStable = d.I64()
	v.StableD = d.Digest()
	v.Prepared = decodePQ(d, v.Prepared)
	v.PrePrep = decodePQ(d, v.PrePrep)
	v.Replica = d.I32()
	v.Auth = d.Auth(v.Auth)
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

// Type implements Message.
func (*ViewChangeAck) Type() Type { return TypeViewChangeAck }

func (a *ViewChangeAck) content(e *Encoder) {
	e.I64(a.View)
	e.I32(a.Replica)
	e.I32(a.Origin)
	e.Digest(a.VCD)
}

// AuthContent returns the bytes covered by the ack MAC.
func (a *ViewChangeAck) AuthContent(e *Encoder) []byte { return authContent(e, a) }

func (a *ViewChangeAck) encodeBody(e *Encoder) {
	a.content(e)
	e.MAC(a.MAC)
}

func (a *ViewChangeAck) decodeBody(d *Decoder) {
	a.View = d.I64()
	a.Replica = d.I32()
	a.Origin = d.I32()
	a.VCD = d.Digest()
	a.MAC = d.MAC()
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

// Type implements Message.
func (*NewView) Type() Type { return TypeNewView }

func (n *NewView) content(e *Encoder) {
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
}

// AuthContent returns the bytes covered by the new-view authenticator.
func (n *NewView) AuthContent(e *Encoder) []byte { return authContent(e, n) }

func (n *NewView) encodeBody(e *Encoder) {
	n.content(e)
	e.Auth(n.Auth)
}

func (n *NewView) decodeBody(d *Decoder) {
	n.View = d.I64()
	n.VCs = resize(n.VCs, d.Count(sizeVCRef))
	for i := range n.VCs {
		n.VCs[i] = VCRef{Replica: d.I32(), Digest: d.Digest()}
	}
	n.MinSeq = d.I64()
	n.Batches = resize(n.Batches, d.Count(sizeNVBatch))
	for i := range n.Batches {
		n.Batches[i] = NVBatch{Seq: d.I64(), Digest: d.Digest()}
	}
	n.Auth = d.Auth(n.Auth)
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

// Type implements Message.
func (*NewKey) Type() Type { return TypeNewKey }

func (n *NewKey) content(e *Encoder) {
	e.I32(n.Replica)
	e.I64(n.Epoch)
	e.Count(len(n.Keys))
	for _, k := range n.Keys {
		e.I32(k.Replica)
		e.Key(k.Key)
	}
}

// AuthContent returns the bytes covered by the new-key authenticator.
func (n *NewKey) AuthContent(e *Encoder) []byte { return authContent(e, n) }

func (n *NewKey) encodeBody(e *Encoder) {
	n.content(e)
	e.Auth(n.Auth)
}

func (n *NewKey) decodeBody(d *Decoder) {
	n.Replica = d.I32()
	n.Epoch = d.I64()
	n.Keys = resize(n.Keys, d.Count(sizeKeyEntry))
	for i := range n.Keys {
		n.Keys[i] = KeyEntry{Replica: d.I32(), Key: d.Key()}
	}
	n.Auth = d.Auth(n.Auth)
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

// Type implements Message.
func (*Status) Type() Type { return TypeStatus }

func (s *Status) content(e *Encoder) {
	e.I64(s.View)
	e.Bool(s.InViewChange)
	e.I64(s.LastStable)
	e.I64(s.LastExec)
	e.I32(s.Replica)
}

// AuthContent returns the bytes covered by the status authenticator.
func (s *Status) AuthContent(e *Encoder) []byte { return authContent(e, s) }

func (s *Status) encodeBody(e *Encoder) {
	s.content(e)
	e.Auth(s.Auth)
}

func (s *Status) decodeBody(d *Decoder) {
	s.View = d.I64()
	s.InViewChange = d.Bool()
	s.LastStable = d.I64()
	s.LastExec = d.I64()
	s.Replica = d.I32()
	s.Auth = d.Auth(s.Auth)
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

// Type implements Message.
func (*Fetch) Type() Type { return TypeFetch }

func (f *Fetch) content(e *Encoder) {
	e.I32(f.Level)
	e.I64(f.Index)
	e.I64(f.Seq)
	e.Count(len(f.Missing))
	for _, i := range f.Missing {
		e.I32(i)
	}
	e.I32(f.Replica)
}

// AuthContent returns the bytes covered by the fetch authenticator.
func (f *Fetch) AuthContent(e *Encoder) []byte { return authContent(e, f) }

func (f *Fetch) encodeBody(e *Encoder) {
	f.content(e)
	e.Auth(f.Auth)
}

func (f *Fetch) decodeBody(d *Decoder) {
	f.Level = d.I32()
	f.Index = d.I64()
	f.Seq = d.I64()
	f.Missing = resize(f.Missing, d.Count(4))
	for i := range f.Missing {
		f.Missing[i] = d.I32()
	}
	f.Replica = d.I32()
	f.Auth = d.Auth(f.Auth)
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

func (m *Meta) decodeBody(d *Decoder) {
	m.Level = d.I32()
	m.Index = d.I64()
	m.Seq = d.I64()
	m.Children = resize(m.Children, d.Count(crypto.DigestSize))
	for i := range m.Children {
		m.Children[i] = d.Digest()
	}
	m.Replica = d.I32()
}

// Fragment answers a Fetch for a leaf partition: the page bytes at
// sequence number Seq. Verified against the trusted parent digest.
type Fragment struct {
	Index   int64
	Seq     int64
	Data    []byte
	Replica int32
}

// Type implements Message.
func (*Fragment) Type() Type { return TypeFragment }

func (f *Fragment) encodeBody(e *Encoder) {
	e.I64(f.Index)
	e.I64(f.Seq)
	e.Blob(f.Data)
	e.I32(f.Replica)
}

func (f *Fragment) decodeBody(d *Decoder) {
	f.Index = d.I64()
	f.Seq = d.I64()
	f.Data = d.Blob()
	f.Replica = d.I32()
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

// Type implements Message.
func (*Recovery) Type() Type { return TypeRecovery }

func (r *Recovery) content(e *Encoder) {
	e.I32(r.Replica)
	e.I64(r.Epoch)
}

// AuthContent returns the bytes covered by the recovery authenticator.
func (r *Recovery) AuthContent(e *Encoder) []byte { return authContent(e, r) }

func (r *Recovery) encodeBody(e *Encoder) {
	r.content(e)
	e.Auth(r.Auth)
}

func (r *Recovery) decodeBody(d *Decoder) {
	r.Replica = d.I32()
	r.Epoch = d.I64()
	r.Auth = d.Auth(r.Auth)
}
