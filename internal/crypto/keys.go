package crypto

import (
	"fmt"
	"io"
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
// KeyTable is safe for concurrent use; the engine itself is single-threaded
// but transports may verify inbound traffic on other goroutines. MAC
// computation serializes on the table lock: each (peer, direction) caches
// one mutable HMAC state that Reset reuses, so a busy replica performs no
// per-MAC allocation.
type KeyTable struct {
	mu     sync.RWMutex
	self   int
	in     map[int]Key   // sender id -> key the sender must use toward us
	out    map[int]Key   // receiver id -> key we must use toward them
	epoch  map[int]int64 // receiver id -> freshness counter of their last new-key
	master map[int]Key   // peer id -> long-term pairwise key (PKI stand-in)

	// Cached HMAC states, created lazily from the matching key map and
	// dropped whenever the key changes. Guarded by mu (write: the states
	// are mutated during computation).
	inState     map[int]*macState
	outState    map[int]*macState
	masterState map[int]*macState
}

// NewKeyTable returns an empty key table for node self.
func NewKeyTable(self int) *KeyTable {
	return &KeyTable{
		self:        self,
		in:          make(map[int]Key),
		out:         make(map[int]Key),
		epoch:       make(map[int]int64),
		master:      make(map[int]Key),
		inState:     make(map[int]*macState),
		outState:    make(map[int]*macState),
		masterState: make(map[int]*macState),
	}
}

// stateFor returns the cached HMAC state for key k of peer in cache,
// creating it on first use. The caller must hold t.mu for writing.
//
//bftvet:allocfree
func stateFor(cache map[int]*macState, peer int, k Key) *macState {
	st := cache[peer]
	if st == nil {
		st = newMACState(k)
		cache[peer] = st
	}
	return st
}

// outboundMAC computes a MAC toward receiver with the cached state.
func (t *KeyTable) outboundMAC(receiver int, pieces [][]byte) (MAC, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k, ok := t.out[receiver]
	if !ok {
		return MAC{}, false
	}
	return stateFor(t.outState, receiver, k).compute(pieces), true
}

// inboundMAC recomputes the MAC sender must have produced toward this node.
func (t *KeyTable) inboundMAC(sender int, pieces [][]byte) (MAC, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k, ok := t.in[sender]
	if !ok {
		return MAC{}, false
	}
	return stateFor(t.inState, sender, k).compute(pieces), true
}

// masterMAC computes a MAC toward peer under the long-term pairwise key.
func (t *KeyTable) masterMAC(peer int, pieces [][]byte) (MAC, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k, ok := t.master[peer]
	if !ok {
		return MAC{}, false
	}
	return stateFor(t.masterState, peer, k).compute(pieces), true
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
		t.in[s] = k
		delete(t.inState, s)
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
	t.out[receiver] = k
	delete(t.outState, receiver)
	return true
}

// Pair statically installs keys for both directions between this node and
// peer. It is a bootstrap helper used by tests and by deployments that
// provision initial keys out of band; epoch tracking starts at the given
// epoch.
func (t *KeyTable) Pair(peer int, inbound, outbound Key, epoch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.in[peer] = inbound
	t.out[peer] = outbound
	delete(t.inState, peer)
	delete(t.outState, peer)
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
	t.master[peer] = k
	delete(t.masterState, peer)
}

// Master returns the long-term pairwise key shared with peer.
func (t *KeyTable) Master(peer int) (Key, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	k, ok := t.master[peer]
	return k, ok
}

// MasterAuthenticatorFor computes an authenticator under master keys for
// receivers [0, n); used by new-key and recovery messages.
func MasterAuthenticatorFor(t *KeyTable, n int, content ...[]byte) Authenticator {
	a := make(Authenticator, n)
	for j := 0; j < n; j++ {
		if j == t.self {
			continue
		}
		if m, ok := t.masterMAC(j, content); ok {
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
	want, ok := t.masterMAC(sender, content)
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
			recv.in[send.Self()] = k
			delete(recv.inState, send.Self())
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
