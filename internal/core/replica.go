package core

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
)

// Counters exposes replica progress for benchmarks and tests.
type Counters struct {
	ExecutedRequests  int64
	ExecutedReadOnly  int64
	ExecutedBatches   int64
	StableCheckpoints int64
	ViewChanges       int64
	StateTransfers    int64
	Divergences       int64 // own checkpoint digest contradicted by a quorum
	DroppedMessages   int64 // failed authentication or malformed
	Commits           obs.CommitCounts
}

// clientRecord implements at-most-once execution and reply retransmission
// for one client.
type clientRecord struct {
	lastTimestamp int64
	lastReply     *message.Reply // stored with the full result; Full/MAC set per resend
	lastReplySeq  int64          // batch that produced it (for tentative upgrades)
}

// heldReply is a read-only reply waiting for the tentative prefix it
// observed to commit.
type heldReply struct {
	frontier int64 // lastExec at execution time
	client   int32
	reply    *message.Reply
}

// bufferedRequest is an authenticated request body awaiting ordering.
type bufferedRequest struct {
	req     *message.Request
	raw     []byte
	digest  crypto.Digest
	relayed bool
}

// Replica is one member of the BFT replica group. It is a single-threaded
// engine (see internal/proc): the environment serializes all calls.
type Replica struct {
	cfg   Config
	env   proc.Env
	suite *crypto.Suite
	sm    StateMachine
	cp    Checkpointer // sm's own capability, or the whole-state adapter around sm
	rng   io.Reader

	view          int64
	inViewChange  bool
	vcTimeout     time.Duration
	vcTimerArmed  bool
	statusStarted bool

	// lastPP is the last sequence number the primary assigned (meaningful
	// on the primary; reset at view changes). maxKnownPP is the highest
	// pre-prepare seq seen, which bounds requestWaiting's probe.
	lastPP            int64
	maxKnownPP        int64
	lastExec          int64 // last executed batch (tentative included)
	lastCommittedExec int64
	lastStable        int64
	stableDigest      crypto.Digest

	log         map[int64]*slot
	missingBody map[crypto.Digest][]int64 // request digest -> slots waiting for it

	clients   map[int32]*clientRecord
	reqBuffer map[crypto.Digest]*bufferedRequest
	inFlight  map[crypto.Digest]int64 // request digest -> assigned seq
	queue     []crypto.Digest         // primary's pending request queue

	checkpoints map[int64]map[int32]crypto.Digest
	// ckTables holds the encoded client table of every retained checkpoint
	// (the service half is retained by cp under the same sequence numbers).
	// Its keys are the retained set: lastStable and the checkpoints taken
	// above it, at most LogWindow/CheckpointInterval + 1 of them.
	ckTables map[int64][]byte

	pendingRO        []heldReply
	pendingCommits   []message.CommitRef // held for a carrier; one reused buffer, timerCommitFlush runs while non-empty
	holdCommitsAfter int64               // commits of batches up to it are not held (settleCommits)

	// View change state (see viewchange.go).
	pset        map[int64]message.PQEntry
	qset        map[int64]message.PQEntry
	vcs         map[int64]map[int32]*vcRecord
	pendingAcks map[int64]map[int32]map[int32]crypto.Digest // view -> origin -> acker -> vc digest
	pendingNV   *message.NewView
	lastNewView *message.NewView      // for retransmission as new primary
	lastNVVCs   []*message.ViewChange // the VCs referenced by lastNewView

	// State transfer (see transfer.go).
	st       *stateTransfer
	stChunks map[int64]*chunkedSnapshot

	epoch          int64
	knownStable    int64 // highest quorum-attested checkpoint seen anywhere
	statusTicks    int64
	lastStatusMark [3]int64 // (view, lastExec, lastCommittedExec) at the previous status tick
	bodyFetchArmed bool     // a timerBodyFetch grace period is running

	// Hot-path scratch state (engine-local, reused per message; see the
	// "Host performance architecture" section of DESIGN.md). contentEnc's
	// bytes are hashed or MAC'd, never sent; wireEnc's are cloned once for
	// Env.Send. peers caches otherReplicas(); callers must not mutate it.
	// prepScratch/commitScratch receive decode-into for the transient
	// ordering messages; authScratch cycles through outgoing authenticators
	// of messages the replica does not retain.
	contentEnc    message.Encoder
	wireEnc       message.Encoder
	peers         []int
	prepScratch   message.Prepare
	commitScratch message.Commit
	authScratch   crypto.Authenticator

	// idScratch is the sorted client-id list a checkpoint walks for both
	// the client-table digest and its encoding.
	idScratch []int32

	// materialized counts checkpoints serialized for a fetching peer (see
	// chunked): with a Checkpointer service, the one O(state) pause left.
	materialized int64

	rec   *obs.Recorder // nil disables tracing
	stats Counters

	// statusHeard[i] is the last Env.Now a status message arrived from
	// replica i — the peer-liveness signal surfaced by /statusz. Purely
	// observational: nothing in the protocol reads it.
	statusHeard []time.Duration
}

// trace records one protocol event stamped with the engine's current time;
// it is the engine's only way into the recorder, ring and phase histograms
// alike. With tracing disabled (nil recorder) the hook is a single branch,
// and a kind no consumer reads (a per-request event on a recorder that only
// feeds phase histograms) returns before the clock read. Enabled, it writes
// one slot of a preallocated ring — zero allocations either way.
//
//bftvet:allocfree
func (r *Replica) trace(kind obs.Kind, seq, aux, aux2 int64) {
	if r.rec == nil {
		return
	}
	if !r.rec.Wants(kind) {
		return
	}
	r.rec.Record(r.env.Now(), kind, seq, aux, aux2)
}

// vcRecord tracks one replica's view-change message for some view and the
// acks corroborating it.
type vcRecord struct {
	vc     *message.ViewChange
	raw    []byte
	digest crypto.Digest
	acks   map[int32]bool
}

// NewReplica builds a replica engine. keys must be pre-provisioned with
// pairwise session and master keys (crypto.ProvisionAll) or be populated by
// new-key exchange before traffic flows. rng is where the session keys
// rotated in — periodically and at every proactive recovery — come from:
// hosts pass crypto/rand.Reader (as bft.StartReplica does). With a nil rng
// the replica draws from a stream seeded with its id, which keeps
// simulations reproducible and makes rotated keys predictable; a nil rng is
// refused when periodic rotation is on.
func NewReplica(cfg Config, sm StateMachine, keys *crypto.KeyTable, meter crypto.Meter, rng io.Reader) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sm == nil {
		return nil, fmt.Errorf("core: replica %d: nil state machine", cfg.Self)
	}
	if keys.Self() != cfg.Self {
		return nil, fmt.Errorf("core: key table owner %d != replica id %d", keys.Self(), cfg.Self)
	}
	if cfg.KeyRotationInterval > 0 && rng == nil {
		return nil, fmt.Errorf("core: replica %d: key rotation enabled without a randomness source", cfg.Self)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(int64(cfg.Self) + 1)) //nolint:gosec // deterministic on purpose; hosts pass crypto/rand
	}
	peers := make([]int, 0, cfg.N-1)
	for i := 0; i < cfg.N; i++ {
		if i != cfg.Self {
			peers = append(peers, i)
		}
	}
	cp, native := sm.(Checkpointer)
	if !native {
		cp = &wholeState{sm: sm, snaps: make(map[int64][]byte)}
	}
	return &Replica{
		cfg:   cfg,
		suite: crypto.NewSuite(keys, meter),
		sm:    sm,
		cp:    cp,
		rng:   rng,
		// Bootstrap provisioning installs keys at epoch 1; rotations must
		// supersede it.
		epoch:       1,
		vcTimeout:   cfg.ViewChangeTimeout,
		log:         make(map[int64]*slot),
		missingBody: make(map[crypto.Digest][]int64),
		clients:     make(map[int32]*clientRecord),
		reqBuffer:   make(map[crypto.Digest]*bufferedRequest),
		inFlight:    make(map[crypto.Digest]int64),
		checkpoints: make(map[int64]map[int32]crypto.Digest),
		ckTables:    make(map[int64][]byte),
		pset:        make(map[int64]message.PQEntry),
		qset:        make(map[int64]message.PQEntry),
		vcs:         make(map[int64]map[int32]*vcRecord),
		pendingAcks: make(map[int64]map[int32]map[int32]crypto.Digest),
		stChunks:    make(map[int64]*chunkedSnapshot),
		peers:       peers,
		rec:         cfg.Trace,
		statusHeard: make([]time.Duration, cfg.N),
	}, nil
}

// Stats returns a copy of the replica's progress counters. Like every
// engine method it must run in the node's event context: the counters are
// plain fields mutated in that context (the determinism contract forbids
// locking inside engines), so wall-time callers read them through an
// injected action — transport.Node.Do — as bft.Replica.Stats does.
func (r *Replica) Stats() Counters { return r.stats }

// RegisterMetrics exposes the replica's counters and progress marks as
// read-through gauges under prefix (e.g. "replica0."). Snapshots must be
// taken from the node's event context, like Stats.
func (r *Replica) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.GaugeFunc(prefix+"executed_requests", func() int64 { return r.stats.ExecutedRequests })
	reg.GaugeFunc(prefix+"executed_read_only", func() int64 { return r.stats.ExecutedReadOnly })
	reg.GaugeFunc(prefix+"executed_batches", func() int64 { return r.stats.ExecutedBatches })
	reg.GaugeFunc(prefix+"stable_checkpoints", func() int64 { return r.stats.StableCheckpoints })
	reg.GaugeFunc(prefix+"view_changes", func() int64 { return r.stats.ViewChanges })
	reg.GaugeFunc(prefix+"state_transfers", func() int64 { return r.stats.StateTransfers })
	reg.GaugeFunc(prefix+"divergences", func() int64 { return r.stats.Divergences })
	reg.GaugeFunc(prefix+"dropped_messages", func() int64 { return r.stats.DroppedMessages })
	reg.GaugeFunc(prefix+"view", func() int64 { return r.view })
	reg.GaugeFunc(prefix+"last_executed", func() int64 { return r.lastExec })
	reg.GaugeFunc(prefix+"last_stable", func() int64 { return r.lastStable })
	reg.GaugeFunc(prefix+"checkpoint.retained", func() int64 { return int64(len(r.ckTables)) })
	reg.GaugeFunc(prefix+"checkpoint.materialized", func() int64 { return r.materialized })
	reg.GaugeFunc(prefix+"commits.piggybacked", func() int64 { return r.stats.Commits.Piggybacked })
	reg.GaugeFunc(prefix+"commits.standalone", func() int64 { return r.stats.Commits.Standalone })
	reg.GaugeFunc(prefix+"commits.flush.held_read", func() int64 { return r.stats.Commits.FlushHeldRead })
	reg.GaugeFunc(prefix+"commits.flush.peer_commit", func() int64 { return r.stats.Commits.FlushPeerCommit })
	reg.GaugeFunc(prefix+"commits.flush.window", func() int64 { return r.stats.Commits.FlushWindow })
	reg.GaugeFunc(prefix+"commits.flush.timer", func() int64 { return r.stats.Commits.FlushTimer })
}

// View returns the replica's current view.
func (r *Replica) View() int64 { return r.view }

// LastExecuted returns the last executed batch sequence number.
func (r *Replica) LastExecuted() int64 { return r.lastExec }

// LastStable returns the replica's stable checkpoint sequence number.
func (r *Replica) LastStable() int64 { return r.lastStable }

// isPrimary reports whether this replica is the primary of its current
// view.
func (r *Replica) isPrimary() bool { return r.cfg.PrimaryOf(r.view) == r.cfg.Self }

// Checkpoints reports how many checkpoints the replica retains and how many
// it has serialized for a fetching peer (a checkpoint is materialized at
// most once, on its first fetch). Like Stats it must run in the node's
// event context.
func (r *Replica) Checkpoints() (retained int, materialized int64) {
	return len(r.ckTables), r.materialized
}

// PeerHeard appends, per replica id, the last Env.Now a status message
// arrived from that peer (zero: never; the self entry is always zero).
// Like Stats it must run in the node's event context.
func (r *Replica) PeerHeard(dst []time.Duration) []time.Duration {
	return append(dst, r.statusHeard...)
}

// sortedKeys returns m's keys in ascending order. It is the engine's one
// way to walk a map whose walk order reaches the wire or the trace: map
// iteration order is random, and the determinism contract (DESIGN.md §4a)
// forbids it from leaking out.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// otherReplicas lists every replica id except this one. The returned slice
// is cached; callers must not mutate it.
func (r *Replica) otherReplicas() []int { return r.peers }

// Init implements proc.Handler.
func (r *Replica) Init(env proc.Env) {
	r.env = env
	if aware, ok := r.sm.(EnvAware); ok {
		aware.SetEnv(env)
	}
	ids := r.sortedClients()
	r.retainCheckpoint(0, ids)
	r.stableDigest = r.checkpointDigest(ids)
	if r.cfg.StatusInterval > 0 {
		env.SetTimer(timerStatus, r.cfg.StatusInterval)
	}
	if r.cfg.KeyRotationInterval > 0 {
		env.SetTimer(timerKeyRotation, r.cfg.KeyRotationInterval)
	}
}

// Receive implements proc.Handler. The two transient ordering messages
// decode into engine-owned scratch values, reusing their slice capacity:
// safe only because onPrepare/onCommit retain nothing from the message.
// Every other type gets a fresh value (the pre-prepare's Auth and Commits,
// for one, ARE retained in the slot).
func (r *Replica) Receive(data []byte) {
	defer r.settleCommits() // after the handlers: they may put the held commits on a carrier
	var (
		tag message.Type // 0, which no message carries, for an empty datagram
		m   message.Message
		err error
	)
	if len(data) > 0 {
		tag = message.Type(data[0])
	}
	switch tag {
	case message.TypePrepare:
		m, err = &r.prepScratch, message.UnmarshalInto(data, &r.prepScratch)
	case message.TypeCommit:
		m, err = &r.commitScratch, message.UnmarshalInto(data, &r.commitScratch)
	default:
		m, err = message.Unmarshal(data)
	}
	if err != nil {
		r.stats.DroppedMessages++
		return
	}
	switch msg := m.(type) {
	case *message.Request:
		r.onRequest(msg, data)
	case *message.PrePrepare:
		r.onPrePrepare(msg)
	case *message.Prepare:
		r.onPrepare(msg)
	case *message.Commit:
		r.onCommit(msg)
	case *message.Checkpoint:
		r.onCheckpoint(msg)
	case *message.ViewChange:
		r.onViewChange(msg, data)
	case *message.ViewChangeAck:
		r.onViewChangeAck(msg)
	case *message.NewView:
		r.onNewView(msg)
	case *message.NewKey:
		r.onNewKey(msg)
	case *message.Status:
		r.onStatus(msg)
	case *message.Fetch:
		r.onFetch(msg)
	case *message.Meta:
		r.onMeta(msg)
	case *message.Fragment:
		r.onFragment(msg)
	case *message.Recovery:
		r.onRecovery(msg)
	default:
		r.stats.DroppedMessages++
	}
}

// OnTimer implements proc.Handler.
func (r *Replica) OnTimer(key int) {
	switch key {
	case timerViewChange:
		r.vcTimerArmed = false
		r.startViewChange(r.view + 1)
	case timerStatus:
		r.statusTick()
	case timerKeyRotation:
		r.rotateKeys()
		r.env.SetTimer(timerKeyRotation, r.cfg.KeyRotationInterval)
	case timerCommitFlush:
		r.stats.Commits.FlushTimer++
		r.flushPiggybackCommits()
	case timerBodyFetch:
		r.bodyFetchArmed = false
		r.fetchLateBodies()
	case timerRecovery:
		r.startRecovery()
	}
}

// send marshals and unicasts m. The wire buffer is a fresh exact-size
// clone (the environment owns sent buffers); only the encoder is reused.
func (r *Replica) send(dst int, m message.Message) {
	r.env.Send(dst, message.Marshal(&r.wireEnc, m))
}

// broadcast marshals and multicasts m to all other replicas.
func (r *Replica) broadcast(m message.Message) {
	r.env.Multicast(r.peers, message.Marshal(&r.wireEnc, m))
}

// getSlot returns the log slot for seq, creating it if needed.
func (r *Replica) getSlot(seq int64) *slot {
	s := r.log[seq]
	if s == nil {
		s = newSlot(seq)
		r.log[seq] = s
	}
	return s
}

// inWindow reports whether seq is inside the water marks.
func (r *Replica) inWindow(seq int64) bool {
	return seq > r.lastStable && seq <= r.lastStable+r.cfg.LogWindow
}

// requestWaiting reports whether any authenticated read-write request is
// known but not yet executed — buffered bodies, or batches accepted into
// the log that have not committed. This is the condition that keeps the
// view-change timer armed.
//
// Only sequence numbers up to maxKnownPP are probed: every site that sets
// havePP first raises maxKnownPP to the slot's sequence number, and the one
// site that lowers it (a new view) rebuilds the log below the new value.
// The timer is synced several times per operation, and the span is a slot
// or two where the log holds up to LogWindow.
func (r *Replica) requestWaiting() bool {
	if len(r.reqBuffer) > 0 {
		return true
	}
	for n := r.lastCommittedExec + 1; n <= r.maxKnownPP; n++ {
		if s := r.log[n]; s != nil && s.havePP && !s.committed {
			return true
		}
	}
	return false
}

// syncVCTimer arms or cancels the liveness timer according to whether the
// replica is waiting for requests to execute. restart forces a re-arm after
// execution progress so slow-but-live primaries are not suspected.
func (r *Replica) syncVCTimer(restart bool) {
	if r.inViewChange {
		return // the view-change path manages its own timer
	}
	waiting := r.requestWaiting()
	switch {
	case waiting && (!r.vcTimerArmed || restart):
		r.env.SetTimer(timerViewChange, r.vcTimeout)
		r.vcTimerArmed = true
	case !waiting && r.vcTimerArmed:
		r.env.CancelTimer(timerViewChange)
		r.vcTimerArmed = false
	}
}
