package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"hash"
	"io"
)

const (
	// MACSize is the size of a message authentication code in bytes.
	// UMAC32 produced 8-byte tags; we keep the same wire size.
	MACSize = 8

	// KeySize is the size of a pairwise session key in bytes.
	KeySize = 16
)

// MAC is a message authentication tag computed under a pairwise session key.
type MAC [MACSize]byte

// Key is a symmetric session key shared by an ordered pair of nodes.
// The key k(i,j) authenticates messages sent from i to j; the reverse
// direction uses an independent key.
type Key [KeySize]byte

// NewKey reads a fresh random key from rng. In production rng is
// crypto/rand.Reader; simulations pass a seeded deterministic stream.
func NewKey(rng io.Reader) (Key, error) {
	var k Key
	if _, err := io.ReadFull(rng, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypto: generating session key: %w", err)
	}
	return k, nil
}

// ComputeMAC computes the tag of the concatenated pieces under key k. It
// builds a fresh HMAC state per call; hot paths go through KeyTable, which
// caches one reusable state per (peer, direction) instead.
func ComputeMAC(k Key, pieces ...[]byte) MAC {
	st := newMACState(k)
	return st.compute(pieces)
}

// macState is a reusable HMAC computation state for one key. Reusing the
// state via Reset amortizes the four allocations hmac.New performs, which
// dominate the allocation profile of a busy replica.
type macState struct {
	h   hash.Hash
	sum []byte // scratch for h.Sum; len 0, cap sha256.Size
}

func newMACState(k Key) *macState {
	return &macState{h: hmac.New(sha256.New, k[:]), sum: make([]byte, 0, sha256.Size)}
}

// compute MACs the concatenated pieces. The state is mutated, so callers
// must serialize access (KeyTable holds its lock across the call).
//
//bftvet:allocfree
func (st *macState) compute(pieces [][]byte) MAC {
	st.h.Reset()
	for _, p := range pieces {
		st.h.Write(p)
	}
	st.sum = st.h.Sum(st.sum[:0])
	var m MAC
	copy(m[:], st.sum[:MACSize])
	return m
}

// macEqual compares two MACs in constant time.
func macEqual(a, b MAC) bool { return subtle.ConstantTimeCompare(a[:], b[:]) == 1 }
