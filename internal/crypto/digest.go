// Package crypto provides the cryptographic primitives used by the BFT
// library: message digests, pairwise message authentication codes (MACs),
// authenticators (vectors of MACs), and session-key management.
//
// The original BFT library (Castro & Liskov, 2001) used MD5 for digests and
// UMAC32 for MACs. This implementation uses SHA-256 truncated to the same
// 16-byte digests and AES-128-CMAC (RFC 4493) truncated to the same 8-byte
// tags. The protocol only relies on collision resistance (digests) and
// unforgeability without the key (MACs), which both provide; CMAC also keeps
// UMAC's property that matters for speed, a per-key state built once so a
// MAC over a short header costs a few block operations. Performance
// experiments charge simulated CPU time at 2001-era MD5/UMAC costs through
// the Meter interface, so the substitution does not change measured shapes.
package crypto

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

// DigestSize is the size of a message digest in bytes. The BFT library used
// 16-byte MD5 digests; we keep the same wire size.
const DigestSize = 16

// Digest is a fixed-size cryptographic hash of a message or state fragment.
type Digest [DigestSize]byte

// ZeroDigest is the digest value used for null requests (e.g. placeholder
// entries selected by a new-view message).
var ZeroDigest Digest

// String returns the hexadecimal form of d, for logs and errors.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether d is the all-zero (null-request) digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// HashAll computes the digest of the concatenation of the given byte slices.
// Passing the pieces separately avoids an intermediate allocation.
func HashAll(pieces ...[]byte) Digest {
	h := sha256.New()
	n := 0
	for _, p := range pieces {
		h.Write(p)
		n += len(p)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	var d Digest
	copy(d[:], sum[:DigestSize])
	return d
}

// Hash computes the digest of a single byte slice.
func Hash(data []byte) Digest { return HashAll(data) }

// Hasher is a reusable digest state: Digest resets and reuses one hash
// object instead of allocating a fresh one per call. The zero value is
// ready for use. A Hasher is mutated during computation and must not be
// used concurrently; engines own one and call it from their event context.
type Hasher struct {
	h   hash.Hash
	sum []byte // scratch for h.Sum; len 0, cap sha256.Size
}

// Digest computes the digest of the concatenation of the given byte slices.
func (hh *Hasher) Digest(pieces ...[]byte) Digest {
	if hh.h == nil {
		hh.h = sha256.New()
		hh.sum = make([]byte, 0, sha256.Size)
	}
	hh.h.Reset()
	for _, p := range pieces {
		hh.h.Write(p)
	}
	hh.sum = hh.h.Sum(hh.sum[:0])
	var d Digest
	copy(d[:], hh.sum[:DigestSize])
	return d
}
