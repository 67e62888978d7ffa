package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	// MACSize is the size of a message authentication code in bytes.
	// UMAC32 produced 8-byte tags; we keep the same wire size.
	MACSize = 8

	// KeySize is the size of a pairwise session key in bytes: exactly an
	// AES-128 key.
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
// expands the key per call; hot paths go through KeyTable, which keeps one
// expanded state per key instead.
func ComputeMAC(k Key, pieces ...[]byte) MAC {
	st := newMACState(k)
	return st.compute(pieces)
}

// macState is the AES-128-CMAC (NIST SP 800-38B, RFC 4493) state of one
// key: the expanded cipher and the subkeys K1/K2, derived once, so a MAC
// costs only the CBC chain over the message. The tag is the first MACSize
// bytes of the CMAC.
//
// The chaining value and the held-back last block live here rather than on
// compute's stack: a slice of a stack array passed through the cipher.Block
// interface escapes, which would cost an allocation per MAC.
type macState struct {
	block  cipher.Block
	k1, k2 [aes.BlockSize]byte
	x      [aes.BlockSize]byte // CBC chaining value
	last   [aes.BlockSize]byte // pending input, not yet known not to be last
}

func newMACState(k Key) *macState {
	b, err := aes.NewCipher(k[:])
	if err != nil {
		panic(err) // KeySize is an AES key size
	}
	st := &macState{block: b}
	b.Encrypt(st.x[:], st.x[:]) // L = AES(K, 0^128)
	st.k1 = double(st.x)
	st.k2 = double(st.k1)
	return st
}

// double multiplies b by x in GF(2^128), the subkey step of CMAC.
func double(b [aes.BlockSize]byte) [aes.BlockSize]byte {
	hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	carry := hi >> 63
	var d [aes.BlockSize]byte
	binary.BigEndian.PutUint64(d[:8], hi<<1|lo>>63)
	binary.BigEndian.PutUint64(d[8:], lo<<1^0x87*carry)
	return d
}

// compute MACs the concatenated pieces. Whole blocks are chained straight
// from the input; the last block (complete or not) is held back, because
// only at the end is it known which subkey it takes. The state is mutated,
// so callers must serialize access (KeyTable holds its lock across the
// call).
//
//bftvet:allocfree
func (st *macState) compute(pieces [][]byte) MAC {
	st.x = [aes.BlockSize]byte{}
	n := 0 // bytes pending in st.last
	for _, p := range pieces {
		for len(p) > 0 {
			if n == aes.BlockSize {
				st.chain(st.last[:]) // more input follows: not the last block
				n = 0
			}
			if n == 0 {
				for len(p) > aes.BlockSize {
					st.chain(p[:aes.BlockSize])
					p = p[aes.BlockSize:]
				}
			}
			c := copy(st.last[n:], p)
			n += c
			p = p[c:]
		}
	}
	sub := &st.k1
	if n < aes.BlockSize {
		st.last[n] = 0x80
		clear(st.last[n+1:])
		sub = &st.k2
	}
	xorBlock(st.last[:], sub[:])
	st.chain(st.last[:])
	var m MAC
	copy(m[:], st.x[:MACSize])
	return m
}

// chain folds one full block into the CBC chaining value. Only st.x goes
// through the cipher.Block interface, so b (often caller input) does not
// escape.
func (st *macState) chain(b []byte) {
	xorBlock(st.x[:], b)
	st.block.Encrypt(st.x[:], st.x[:])
}

// xorBlock sets dst ^= src for one 16-byte block.
func xorBlock(dst, src []byte) {
	_, _ = dst[aes.BlockSize-1], src[aes.BlockSize-1]
	binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
	binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^binary.LittleEndian.Uint64(src[8:]))
}

// macEqual compares two MACs in constant time.
func macEqual(a, b MAC) bool { return subtle.ConstantTimeCompare(a[:], b[:]) == 1 }
