package adversary

import (
	"math/rand"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
	"bftfast/internal/proc"
)

// Adversary timer keys. They live in the same dense per-node key space as
// the wrapped engine's timers, so they must be small constants well clear
// of the replica's keys (1..7) and below the load-driver's stagger key
// (1000).
const (
	timerBase    = 64
	timerFlood   = 64
	timerSpam    = 65
	timerRelease = 66
)

// staleRing bounds the replay buffer a flooder keeps of its own traffic.
const staleRing = 8

// Stats counts the attacks a Node has carried out (for test assertions).
type Stats struct {
	Equivocations      int64 // conflicting pre-prepares sent
	GarbageSent        int64 // undecodable or forged-MAC messages sent
	StaleReplays       int64 // verbatim replays of old own traffic
	ViewChangesSpammed int64 // forged view-change messages sent
	FragmentsCorrupted int64 // state-transfer chunks served bit-flipped
	Delayed            int64 // messages held back (DelayReorder, SlowPrimary)
	Duplicated         int64 // messages delivered twice
	RefsForged         int64 `json:",omitempty"` // bogus commit refs on own prepares (omitempty: older rows' JSON stays)
	CarriersWithheld   int64 `json:",omitempty"` // own pre-prepares and prepares never sent
	Censored           int64 `json:",omitempty"` // the victim's requests dropped on arrival
}

// heldMsg is one delayed outgoing transmission.
type heldMsg struct {
	due  time.Duration
	dsts []int
	data []byte
}

// Node wraps a replica engine with one Byzantine behavior. It implements
// proc.Handler; the inner engine sees a man-in-the-middle proc.Env whose
// Send/Multicast route through the behavior.
type Node struct {
	id    int
	n     int
	cfg   Config
	inner proc.Handler
	suite *crypto.Suite // unmetered: forging is free for the attacker
	env   proc.Env
	rng   *rand.Rand
	// contentEnc's bytes are MAC'd or hashed, wireEnc's cloned for sending.
	contentEnc, wireEnc message.Encoder

	peers    []int // every replica but self, the flood/spam target set
	spamView int64
	stale    [][]byte  // recent own traffic, for stale replays
	held     []heldMsg // delayed messages, sorted by due time
	released int64     // messages released so far (drives DupEvery)

	stats Stats
}

var _ proc.Handler = (*Node)(nil)

// New wraps inner (replica id of a group of n) with the configured
// behavior. keys must be the replica's own key table — the adversary
// controls the node, so its forgeries authenticate. seed fixes the
// behavior's private randomness.
func New(id, n int, cfg Config, seed int64, inner proc.Handler, keys *crypto.KeyTable) *Node {
	peers := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != id {
			peers = append(peers, i)
		}
	}
	return &Node{
		id:       id,
		n:        n,
		cfg:      cfg.withDefaults(),
		inner:    inner,
		suite:    crypto.NewSuite(keys, nil),
		rng:      rand.New(rand.NewSource(seed)), //nolint:gosec // deterministic adversary
		peers:    peers,
		spamView: 1,
	}
}

// Stats returns the attack counters.
func (a *Node) Stats() Stats { return a.stats }

// mitmEnv is the environment the wrapped engine sees: everything passes
// through except outbound traffic, which the behavior may mutate.
type mitmEnv struct {
	proc.Env
	a *Node
}

func (m mitmEnv) Send(dst int, data []byte) { m.a.out([]int{dst}, data, false) }

func (m mitmEnv) Multicast(dsts []int, data []byte) { m.a.out(dsts, data, true) }

// Init implements proc.Handler.
func (a *Node) Init(env proc.Env) {
	a.env = env
	switch a.cfg.Behavior {
	case FloodGarbage:
		env.SetTimer(timerFlood, a.cfg.FloodInterval)
	case SpamViewChange:
		env.SetTimer(timerSpam, a.cfg.SpamInterval)
	}
	a.inner.Init(mitmEnv{Env: env, a: a})
}

// Receive implements proc.Handler.
func (a *Node) Receive(data []byte) {
	if a.cfg.Behavior == Censor && a.censored(data) {
		a.stats.Censored++
		return
	}
	a.inner.Receive(data)
}

// censored reports whether data is a request of the censored client, id
// n. A backup relays the client's own bytes, so one check covers both
// routes.
func (a *Node) censored(data []byte) bool {
	if len(data) == 0 || message.Type(data[0]) != message.TypeRequest {
		return false
	}
	m, _ := message.Unmarshal(data) // undecodable is "not a request"
	req, ok := m.(*message.Request)
	return ok && int(req.Client) == a.n
}

// OnTimer implements proc.Handler.
func (a *Node) OnTimer(key int) {
	if key < timerBase {
		a.inner.OnTimer(key)
		return
	}
	switch key {
	case timerFlood:
		a.flood()
		a.env.SetTimer(timerFlood, a.cfg.FloodInterval)
	case timerSpam:
		a.spamViewChange()
		a.env.SetTimer(timerSpam, a.cfg.SpamInterval)
	case timerRelease:
		a.release()
	}
}

// out routes one outbound transmission through the behavior. The wrapper
// owns data (send buffers transfer ownership), so it may mutate, retain or
// drop it.
func (a *Node) out(dsts []int, data []byte, multicast bool) {
	switch a.cfg.Behavior {
	case EquivocatePrimary:
		if multicast && len(dsts) >= 2 && len(data) > 0 && message.Type(data[0]) == message.TypePrePrepare {
			if a.equivocate(dsts, data) {
				return
			}
		}
	case FloodGarbage:
		a.remember(data)
	case CorruptTransfer:
		if len(data) > 0 && message.Type(data[0]) == message.TypeFragment {
			if corrupted := a.corruptFragment(data); corrupted != nil {
				data = corrupted
			}
		}
	case DelayReorder:
		a.delay(dsts, data)
		return
	case ForgeCommitRefs:
		data = a.forgeCommitRefs(data)
	case WithholdCarriers:
		if len(data) > 0 && (message.Type(data[0]) == message.TypePrePrepare || message.Type(data[0]) == message.TypePrepare) {
			a.stats.CarriersWithheld++
			return
		}
	case SlowPrimary:
		if len(data) > 0 && message.Type(data[0]) == message.TypePrePrepare {
			a.hold(dsts, data, a.env.Now()+a.cfg.MaxDelay)
			return
		}
	}
	a.env.Multicast(dsts, data)
}

// forgeCommitRefs re-issues one of our own prepares carrying two commit
// references we have no right to — its own batch under a wrong digest, and a
// sequence number beyond any log window — under a fresh, valid authenticator,
// so receivers reach the references. Anything but a prepare passes through.
func (a *Node) forgeCommitRefs(data []byte) []byte {
	m, _ := message.Unmarshal(data) // undecodable is "not a prepare"
	p, ok := m.(*message.Prepare)
	if !ok {
		return data
	}
	wrong := p.Digest
	wrong[0] ^= 1
	p.Commits = append(p.Commits, message.CommitRef{Seq: p.Seq, Digest: wrong}, message.CommitRef{Seq: p.Seq + 1<<40, Digest: p.Digest})
	p.Auth = a.suite.Auth(a.n, message.OrderContentWithCommits(&a.contentEnc, p.View, p.Seq, p.Digest, p.Commits))
	a.stats.RefsForged += 2
	return message.Marshal(&a.wireEnc, p)
}

// equivocate splits a pre-prepare multicast: a minority of the backups get
// the primary's real assignment, the rest a correctly authenticated empty
// batch under the same (view, seq). At most one of the two digests can
// gather a prepare quorum, so the group cannot execute conflicting
// batches; the slot wedges until a view change deposes us. Returns false
// (fall back to honest forwarding) if the pre-prepare does not decode.
func (a *Node) equivocate(dsts []int, data []byte) bool {
	m, err := message.Unmarshal(data)
	if err != nil {
		return false
	}
	pp, ok := m.(*message.PrePrepare)
	if !ok {
		return false
	}
	variant := &message.PrePrepare{View: pp.View, Seq: pp.Seq}
	batch := message.BatchDigest(a.suite, &a.contentEnc, nil)
	content := message.OrderContentWithCommits(&a.contentEnc, variant.View, variant.Seq, batch, nil)
	variant.Auth = a.suite.Auth(a.n, content)
	vb := message.Marshal(&a.wireEnc, variant)

	k := len(dsts) / 2 // original to the minority, conflict to the rest
	a.env.Multicast(dsts[:k], data)
	a.env.Multicast(dsts[k:], vb)
	a.stats.Equivocations++
	return true
}

// remember keeps a copy of own outbound traffic for stale replays.
func (a *Node) remember(data []byte) {
	cp := append([]byte(nil), data...)
	if len(a.stale) < staleRing {
		a.stale = append(a.stale, cp)
		return
	}
	a.stale[a.rng.Intn(staleRing)] = cp
}

// flood sends one burst of junk to every other replica: raw garbage bytes
// (dropped at decode), structurally valid prepares whose MACs cannot
// verify (each costs the receiver a MAC verification), and stale replays
// of our own old traffic (verify fine, then die as duplicates).
func (a *Node) flood() {
	for i := 0; i < a.cfg.FloodBurst; i++ {
		switch a.rng.Intn(3) {
		case 0: // undecodable bytes
			junk := make([]byte, 8+a.rng.Intn(64))
			a.rng.Read(junk)
			a.env.Multicast(a.peers, junk)
			a.stats.GarbageSent++
		case 1: // well-formed prepare, garbage authenticator
			p := &message.Prepare{
				View:    a.rng.Int63n(4),
				Seq:     1 + a.rng.Int63n(256),
				Replica: int32(a.id),
				Auth:    a.garbageAuth(),
			}
			a.rng.Read(p.Digest[:])
			a.env.Multicast(a.peers, message.Marshal(&a.wireEnc, p))
			a.stats.GarbageSent++
		case 2: // stale replay of own traffic
			if len(a.stale) == 0 {
				continue
			}
			old := a.stale[a.rng.Intn(len(a.stale))]
			a.env.Multicast(a.peers, append([]byte(nil), old...))
			a.stats.StaleReplays++
		}
	}
}

// garbageAuth builds an authenticator-shaped slice of random MACs.
func (a *Node) garbageAuth() crypto.Authenticator {
	auth := make(crypto.Authenticator, a.n)
	for i := range auth {
		a.rng.Read(auth[i][:])
	}
	return auth
}

// spamViewChange multicasts a correctly authenticated view-change for a
// view nobody else suspects, cycling through a small set of views so the
// spam exercises both the stale-view and future-view handling paths.
// Alone (< f+1 senders) it must never force a view change.
func (a *Node) spamViewChange() {
	vc := &message.ViewChange{
		NewView: a.spamView,
		Replica: int32(a.id),
	}
	vc.Auth = a.suite.Auth(a.n, vc.AuthContent(&a.contentEnc))
	a.env.Multicast(a.peers, message.Marshal(&a.wireEnc, vc))
	a.spamView++
	if a.spamView > 8 {
		a.spamView = 1
	}
	a.stats.ViewChangesSpammed++
}

// corruptFragment re-encodes a state-transfer fragment with one bit
// flipped in its payload. Fragments carry no MAC — integrity rests
// entirely on the fetcher checking the chunk against the trusted parent
// digest, which is exactly the path this behavior proves out.
func (a *Node) corruptFragment(data []byte) []byte {
	m, err := message.Unmarshal(data)
	if err != nil {
		return nil
	}
	frag, ok := m.(*message.Fragment)
	if !ok || len(frag.Data) == 0 {
		return nil
	}
	frag.Data[a.rng.Intn(len(frag.Data))] ^= 1 << uint(a.rng.Intn(8))
	a.stats.FragmentsCorrupted++
	return message.Marshal(&a.wireEnc, frag)
}

// delay holds roughly half of outbound traffic back for a bounded
// pseudo-random time, releasing it out of order and occasionally
// duplicated.
func (a *Node) delay(dsts []int, data []byte) {
	if a.rng.Intn(2) == 0 {
		a.env.Multicast(dsts, data)
		return
	}
	a.hold(dsts, data, a.env.Now()+time.Duration(1+a.rng.Int63n(int64(a.cfg.MaxDelay))))
}

// hold queues one outbound transmission for release at due.
func (a *Node) hold(dsts []int, data []byte, due time.Duration) {
	h := heldMsg{due: due, dsts: append([]int(nil), dsts...), data: data}
	// Insert keeping the queue sorted by due time (FIFO among equals).
	i := len(a.held)
	for i > 0 && a.held[i-1].due > due {
		i--
	}
	a.held = append(a.held, heldMsg{})
	copy(a.held[i+1:], a.held[i:])
	a.held[i] = h
	a.stats.Delayed++
	a.armRelease()
}

// armRelease points the release timer at the head of the hold queue.
func (a *Node) armRelease() {
	if len(a.held) == 0 {
		return
	}
	d := a.held[0].due - a.env.Now()
	if d < 0 {
		d = 0
	}
	a.env.SetTimer(timerRelease, d)
}

// release sends every held message that has come due.
func (a *Node) release() {
	now := a.env.Now()
	for len(a.held) > 0 && a.held[0].due <= now {
		h := a.held[0]
		a.held[0] = heldMsg{}
		a.held = a.held[1:]
		a.env.Multicast(h.dsts, h.data)
		a.released++
		if a.cfg.Behavior == DelayReorder && a.cfg.DupEvery > 0 && a.released%int64(a.cfg.DupEvery) == 0 {
			a.env.Multicast(h.dsts, append([]byte(nil), h.data...))
			a.stats.Duplicated++
		}
	}
	a.armRelease()
}
