package message

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the decoder: it must never panic,
// and anything it accepts must re-encode to an equivalent message (decode
// of the re-encoding equals the first decode — a canonical-form check).
// Run with `go test -fuzz=FuzzUnmarshal ./internal/message` for a real
// fuzzing session; the seed corpus runs as an ordinary test.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x03}, 300))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		re := marshal(m)
		m2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encoding of an accepted message does not decode: %v", err)
		}
		re2 := marshal(m2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", re, re2)
		}
	})
}

// FuzzDecoderPrimitives drives the low-level decoder with arbitrary input;
// the accumulated-error design must keep every accessor total.
func FuzzDecoderPrimitives(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		_ = d.U8()
		_ = d.Bool()
		_ = d.U32()
		_ = d.I64()
		_ = d.Blob()
		_ = d.Digest()
		_ = d.MAC()
		_ = d.Auth(nil)
		_ = d.Count(1)
		_ = d.Finish()
		if d.Err() == nil && d.Remaining() != 0 {
			t.Fatal("Finish accepted trailing bytes")
		}
	})
}
