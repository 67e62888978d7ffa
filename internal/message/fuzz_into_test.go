// The decode-into fuzzers live in an external test package so they can seed
// from the adversary's garbage corpus (internal/adversary imports
// internal/message; an internal test importing it back would cycle).
package message_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"bftfast/internal/adversary"
	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

func marshal(m message.Message) []byte { return message.Marshal(new(message.Encoder), m) }

// fuzzUnmarshalInto is the one property the decode-into fuzz targets share,
// instantiated per message type an engine decodes into a reused scratch
// value. On arbitrary input: neither entry point of the decoder panics;
// UnmarshalInto accepts exactly what Unmarshal accepts under the scratch
// value's type tag; and decoding into a value polluted by a previous
// message — the lengths and capacities a reused scratch value carries from
// the last datagram — yields the same message (by re-encoding) as decoding
// into the fresh value Unmarshal builds. Seeds are the adversary's garbage
// corpus: truncated, bit-flipped, type-confused and count-forging variants
// of every hot-path message, run as ordinary unit tests.
func fuzzUnmarshalInto(f *testing.F, polluter message.Message) {
	for _, b := range adversary.GarbageCorpus(1) {
		f.Add(b)
	}
	dirt := marshal(polluter)
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, freshErr := message.Unmarshal(data)
		dirty, err := message.Unmarshal(dirt)
		if err != nil {
			t.Fatalf("polluter does not decode: %v", err)
		}
		dirtyErr := message.UnmarshalInto(data, dirty)
		if want := freshErr == nil && fresh.Type() == dirty.Type(); (dirtyErr == nil) != want {
			t.Fatalf("UnmarshalInto(%s) = %v, but Unmarshal = (%T, %v)", dirty.Type(), dirtyErr, fresh, freshErr)
		}
		if dirtyErr == nil && !bytes.Equal(marshal(fresh), marshal(dirty)) {
			t.Fatal("scratch reuse changed the decoded message")
		}
	})
}

func FuzzUnmarshalPrepareInto(f *testing.F) {
	fuzzUnmarshalInto(f, &message.Prepare{View: 9, Seq: 9, Replica: 3,
		Commits: []message.CommitRef{{Seq: 1}, {Seq: 2}}, Auth: make(crypto.Authenticator, 7)})
}

func FuzzUnmarshalCommitInto(f *testing.F) {
	fuzzUnmarshalInto(f, &message.Commit{Auth: make(crypto.Authenticator, 7)})
}

// FuzzUnmarshalReplyInto covers the client-side hot path; Reply carries a
// MAC and an aliasing Result blob rather than an authenticator.
func FuzzUnmarshalReplyInto(f *testing.F) {
	fuzzUnmarshalInto(f, &message.Reply{Result: []byte("stale previous result")})
}

// TestGarbageCorpusThroughGenericDecode pushes every corpus buffer through
// Unmarshal: whatever it accepts must re-encode to something it accepts.
func TestGarbageCorpusThroughGenericDecode(t *testing.T) {
	for i, b := range adversary.GarbageCorpus(1) {
		m, err := message.Unmarshal(b)
		if err != nil {
			continue
		}
		if _, err := message.Unmarshal(marshal(m)); err != nil {
			t.Fatalf("corpus[%d]: re-encoding of accepted message fails to decode: %v", i, err)
		}
	}
}

// TestForgedCountAllocatesNothing: a datagram of a couple of dozen bytes
// claiming MaxCount elements is rejected before anything is sized by the
// claim. All that may be allocated is the error (and the empty message
// value); the decoders used to make the full slice first — 2.6 MB for the
// pre-prepare — and then spin through it, all ahead of any MAC check.
func TestForgedCountAllocatesNothing(t *testing.T) {
	for _, b := range adversary.CountBombs() {
		// The least of a few tries: TotalAlloc is process-wide, and under
		// -race sync.Pool drops fmt's printer at random.
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := message.Unmarshal(b)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, message.ErrMalformed) {
				t.Fatalf("%s claiming %d elements in %d bytes: err = %v, want ErrMalformed", message.Type(b[0]), message.MaxCount, len(b), err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 1024 {
			t.Errorf("%s claiming %d elements in %d bytes: decoding allocated %d B, want < 1 KB", message.Type(b[0]), message.MaxCount, len(b), least)
		}
	}
}
