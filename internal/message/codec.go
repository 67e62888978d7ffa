// Package message defines every wire message exchanged by the BFT protocol
// (requests, replies, the three ordering phases, checkpoints, view changes,
// key exchange, status/retransmission, and state transfer) together with a
// compact, hardened binary codec.
//
// The codec is hand-rolled over encoding/binary primitives: little-endian
// fixed-width integers, 32-bit length prefixes for byte strings and slices,
// and explicit bounds on every length field so that malformed or malicious
// input can never cause a panic or an oversized allocation — decoding
// failures surface as errors.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bftfast/internal/crypto"
)

// Limits on decoded sizes. These bound allocations driven by attacker
// controlled length fields.
const (
	// MaxBlob is the largest byte-string field (operation payloads, results,
	// state-transfer fragments).
	MaxBlob = 1 << 24
	// MaxCount is the largest element count for any repeated field.
	MaxCount = 1 << 16
)

// ErrMalformed is wrapped by all decoding errors.
var ErrMalformed = errors.New("malformed message")

// Encoder serializes message fields into a growing buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity hint n.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded buffer. It aliases the encoder's storage: the
// result is valid until the encoder is Reset (or, for one-shot encoders,
// forever).
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its storage for reuse. Buffers
// previously returned by Bytes are invalidated.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U8 appends a single byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I32 appends a little-endian int32.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Raw appends bytes that are already encoded.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Count appends a slice-length prefix.
func (e *Encoder) Count(n int) { e.U32(uint32(n)) }

// Digest appends a fixed-size digest.
func (e *Encoder) Digest(d crypto.Digest) { e.buf = append(e.buf, d[:]...) }

// MAC appends a fixed-size MAC.
func (e *Encoder) MAC(m crypto.MAC) { e.buf = append(e.buf, m[:]...) }

// Key appends a fixed-size session key.
func (e *Encoder) Key(k crypto.Key) { e.buf = append(e.buf, k[:]...) }

// Auth appends a count-prefixed authenticator.
func (e *Encoder) Auth(a crypto.Authenticator) {
	e.Count(len(a))
	for _, m := range a {
		e.MAC(m)
	}
}

// Decoder deserializes message fields from a buffer, accumulating the first
// error encountered; once failed, every subsequent read returns zero values.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf;
// Blob results alias it, and callers that retain decoded messages beyond the
// life of the input buffer must copy (the transport layer hands each message
// its own buffer, so the engine does not).
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrMalformed, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail("need %d bytes, have %d", n, d.Remaining())
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a single byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean, rejecting non-canonical encodings.
func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("non-canonical bool")
		return false
	}
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Blob reads a length-prefixed byte string bounded by MaxBlob.
func (d *Decoder) Blob() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if n > MaxBlob {
		d.fail("blob length %d exceeds limit", n)
		return nil
	}
	return d.take(int(n))
}

// Count reads the length prefix of a repeated field whose elements occupy at
// least elem encoded bytes each. It is bounded by MaxCount and by what the
// unread rest of the buffer could hold, so a forged count fails here, before
// the caller sizes an allocation (or a loop) by it — decoding runs ahead of
// every MAC check.
func (d *Decoder) Count(elem int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if n > MaxCount || int(n)*elem > d.Remaining() {
		d.fail("count %d exceeds limit", n)
		return 0
	}
	return int(n)
}

// Digest reads a fixed-size digest.
func (d *Decoder) Digest() crypto.Digest {
	var out crypto.Digest
	if b := d.take(crypto.DigestSize); b != nil {
		copy(out[:], b)
	}
	return out
}

// MAC reads a fixed-size MAC.
func (d *Decoder) MAC() crypto.MAC {
	var out crypto.MAC
	if b := d.take(crypto.MACSize); b != nil {
		copy(out[:], b)
	}
	return out
}

// Key reads a fixed-size session key.
func (d *Decoder) Key() crypto.Key {
	var out crypto.Key
	if b := d.take(crypto.KeySize); b != nil {
		copy(out[:], b)
	}
	return out
}

// Auth reads a count-prefixed authenticator into a, reusing its capacity
// when sufficient (nil decodes into fresh storage).
//
//bftvet:allocfree
func (d *Decoder) Auth(a crypto.Authenticator) crypto.Authenticator {
	n := d.Count(crypto.MACSize)
	// An authenticator entry per replica; counts beyond any plausible
	// replica group are rejected outright.
	if n > 1024 {
		d.fail("authenticator with %d entries", n) //bftvet:allow:allocfree the datagram is being rejected
		n = 0
	}
	a = resize(a, n)
	for i := range a {
		a[i] = d.MAC()
	}
	return a
}

// resize returns s with length n, reusing its storage when large enough.
// Every element is the caller's to overwrite.
//
//bftvet:allocfree
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Finish validates that the buffer was consumed exactly and returns the
// accumulated error, if any. Trailing garbage is rejected so that two
// distinct byte strings never decode to the same message.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		d.fail("%d trailing bytes", d.Remaining())
	}
	return d.err
}
