package crypto

import (
	"fmt"
	"io"
	"maps"
	"sync"
)

// KeyTable holds the pairwise session keys known to one node.
//
// Following the BFT library's key-exchange scheme, the *receiver* of a
// message chooses the key used to authenticate it: node i periodically picks
// fresh keys k(j,i) for every sender j and distributes them in a new-key
// message (conceptually encrypted under each sender's public key — the only
// use of public-key cryptography in the system). Thus the table tracks:
//
//   - inbound keys: chosen by this node; peers use them when sending to us.
//   - outbound keys: chosen by each peer; we use them when sending to them.
//
// KeyTable is safe for concurrent use: the engine calls it under its node's
// lock, while host reads such as bft.ExportKeyring come from other
// goroutines. MAC computation serializes on the table lock too, because each
// key's MAC state is mutated while it computes; that reuse is what keeps a
// busy replica from allocating per MAC.
type KeyTable struct {
	mu     sync.RWMutex
	self   int
	in     map[int]peerKey // sender id -> key the sender must use toward us
	out    map[int]peerKey // receiver id -> key we must use toward them
	epoch  map[int]int64   // receiver id -> freshness counter of their last new-key
	master map[int]peerKey // peer id -> long-term pairwise key (PKI stand-in)

	// states holds the MAC states of the keys used so far, each at the
	// slot its peerKey names.
	states []*macState
}

// peerKey is one pairwise key and the slot of its MAC state. The state is
// built on first use, not when the key is installed: a provisioned mesh
// gives every node keys for every peer in three directions, most of which a
// run never uses. The state lives in KeyTable.states, not here, so the key
// maps hold no pointers: a process hosting a whole provisioned group keeps
// hundreds of thousands of entries the garbage collector need not scan.
type peerKey struct {
	key  Key
	slot int32 // 1 + index into KeyTable.states; 0 until first use
}

// NewKeyTable returns an empty key table for node self.
func NewKeyTable(self int) *KeyTable {
	return &KeyTable{
		self:   self,
		in:     make(map[int]peerKey),
		out:    make(map[int]peerKey),
		epoch:  make(map[int]int64),
		master: make(map[int]peerKey),
	}
}

// setKey installs k as the key keys (one of t.in, t.out, t.master) holds for
// peer. A key whose state was built keeps its slot, rebuilt for k, so key
// rotation never grows t.states. The caller must hold the table lock for
// writing.
func (t *KeyTable) setKey(keys map[int]peerKey, peer int, k Key) {
	e := keys[peer]
	e.key = k
	if e.slot != 0 {
		t.states[e.slot-1] = newMACState(k)
	}
	keys[peer] = e
}

// macLocked computes the MAC of pieces under the key keys holds for peer,
// building its state on first use; ok is false when there is no key. The
// caller must hold the table lock for writing.
//
//bftvet:allocfree
func (t *KeyTable) macLocked(keys map[int]peerKey, peer int, pieces [][]byte) (MAC, bool) {
	e, ok := keys[peer]
	if !ok {
		return MAC{}, false
	}
	if e.slot == 0 {
		//bftvet:allow:allocfree one state per key, built once
		t.states = append(t.states, newMACState(e.key))
		e.slot = int32(len(t.states))
		keys[peer] = e
	}
	return t.states[e.slot-1].compute(pieces), true
}

// macFor is macLocked under the table lock.
func (t *KeyTable) macFor(keys map[int]peerKey, peer int, pieces [][]byte) (MAC, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.macLocked(keys, peer, pieces)
}

// Self returns the node id the table belongs to.
func (t *KeyTable) Self() int { return t.self }

// RotateInbound picks fresh inbound keys for every sender in senders and
// returns the new keys for distribution in a new-key message. Messages
// authenticated with the previous inbound keys stop verifying immediately,
// which is what proactive recovery relies on.
func (t *KeyTable) RotateInbound(rng io.Reader, senders []int) (map[int]Key, error) {
	fresh := make(map[int]Key, len(senders))
	for _, s := range senders {
		if s == t.self {
			continue
		}
		k, err := NewKey(rng)
		if err != nil {
			return nil, fmt.Errorf("crypto: rotating inbound key for sender %d: %w", s, err)
		}
		fresh[s] = k
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for s, k := range fresh {
		t.setKey(t.in, s, k)
	}
	return fresh, nil
}

// SetOutbound installs the key that receiver chose for messages from this
// node, if epoch is newer than the last accepted one. It reports whether the
// key was accepted; stale epochs are rejected to stop replayed new-key
// messages from reverting to compromised keys.
func (t *KeyTable) SetOutbound(receiver int, k Key, epoch int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch <= t.epoch[receiver] {
		return false
	}
	t.epoch[receiver] = epoch
	t.setKey(t.out, receiver, k)
	return true
}

// Pair statically installs keys for both directions between this node and
// peer. It is a bootstrap helper used by tests and by deployments that
// provision initial keys out of band; epoch tracking starts at the given
// epoch.
func (t *KeyTable) Pair(peer int, inbound, outbound Key, epoch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setKey(t.in, peer, inbound)
	t.setKey(t.out, peer, outbound)
	if epoch > t.epoch[peer] {
		t.epoch[peer] = epoch
	}
}

// SetMaster installs the long-term pairwise key shared with peer. Master
// keys stand in for the public-key infrastructure: in the real system,
// new-key messages are signed and their session keys encrypted under the
// recipients' public keys; here they are authenticated under master keys,
// which session-key rotation never touches.
func (t *KeyTable) SetMaster(peer int, k Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setKey(t.master, peer, k)
}

// Master returns the long-term pairwise key shared with peer.
func (t *KeyTable) Master(peer int) (Key, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.master[peer]
	return e.key, ok
}

// MasterAuthenticatorFor computes an authenticator under master keys for
// receivers [0, n); used by new-key and recovery messages.
func MasterAuthenticatorFor(t *KeyTable, n int, content ...[]byte) Authenticator {
	a := make(Authenticator, n)
	for j := 0; j < n; j++ {
		if j == t.self {
			continue
		}
		if m, ok := t.macFor(t.master, j, content); ok {
			a[j] = m
		}
	}
	return a
}

// VerifyMasterEntry checks the receiver's entry of a master-key
// authenticator from sender.
func VerifyMasterEntry(t *KeyTable, sender int, a Authenticator, content ...[]byte) bool {
	if t.self >= len(a) || sender == t.self {
		return false
	}
	want, ok := t.macFor(t.master, sender, content)
	if !ok {
		return false
	}
	return macEqual(want, a[t.self])
}

// ProvisionAll wires a full mesh of fresh pairwise keys across the given
// tables, reading randomness from rng. It is the standard bootstrap for
// tests, simulations and the examples: table[i] gets inbound keys for every
// j != i and the matching outbound keys are installed at j.
func ProvisionAll(rng io.Reader, tables []*KeyTable) error {
	// Each table ends with a key per peer in every map: size the maps once
	// rather than growing them through every doubling, which for a mesh of
	// a few hundred nodes costs a sixth of the provisioning time.
	for _, t := range tables {
		t.mu.Lock()
		n := len(tables) - 1
		t.in, t.out, t.master, t.epoch = grown(t.in, n), grown(t.out, n), grown(t.master, n), grown(t.epoch, n)
		t.mu.Unlock()
	}
	for _, recv := range tables {
		for _, send := range tables {
			if recv.Self() == send.Self() {
				continue
			}
			k, err := NewKey(rng)
			if err != nil {
				return fmt.Errorf("crypto: provisioning keys: %w", err)
			}
			recv.mu.Lock()
			recv.setKey(recv.in, send.Self(), k)
			recv.mu.Unlock()
			send.SetOutbound(recv.Self(), k, 1)

			if _, ok := send.Master(recv.Self()); !ok {
				mk, err := NewKey(rng)
				if err != nil {
					return fmt.Errorf("crypto: provisioning master keys: %w", err)
				}
				send.SetMaster(recv.Self(), mk)
				recv.SetMaster(send.Self(), mk)
			}
		}
	}
	return nil
}

// grown returns a copy of m with room for n entries.
func grown[V any](m map[int]V, n int) map[int]V {
	g := make(map[int]V, max(n, len(m)))
	maps.Copy(g, m)
	return g
}
