package adversary

import (
	"math/rand"

	"bftfast/internal/crypto"
	"bftfast/internal/message"
)

// GarbageCorpus generates a deterministic set of adversarial wire buffers:
// well-formed messages of every hot-path type, the same messages truncated
// at awkward offsets, bit-flipped variants, type-confused variants (a
// valid body behind the wrong tag), and raw random bytes. The message
// decode fuzzers seed from it, and it doubles as a regression corpus —
// every buffer here must decode cleanly or fail cleanly, never panic.
func GarbageCorpus(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // deterministic corpus
	auth := func(n int) crypto.Authenticator {
		a := make(crypto.Authenticator, n)
		for i := range a {
			rng.Read(a[i][:])
		}
		return a
	}
	mac := func() crypto.MAC {
		var m crypto.MAC
		rng.Read(m[:])
		return m
	}
	var digest crypto.Digest
	rng.Read(digest[:])

	wellFormed := []message.Message{
		&message.Request{Client: 7, Timestamp: 9, Op: []byte("op"), Auth: auth(4)},
		&message.Reply{View: 1, Timestamp: 9, Client: 7, Replica: 2, Full: true,
			Result: []byte("r"), ResultD: digest, MAC: mac()},
		&message.PrePrepare{View: 1, Seq: 3,
			Refs: []message.RequestRef{{Digest: digest}}, Auth: auth(4)},
		&message.Prepare{View: 1, Seq: 3, Digest: digest, Replica: 1, Auth: auth(4)},
		&message.Commit{View: 1, Seq: 3, Digest: digest, Replica: 2, Auth: auth(4)},
		&message.Checkpoint{Seq: 128, StateD: digest, Replica: 3, Auth: auth(4)},
		&message.ViewChange{NewView: 2, LastStable: 128, StableD: digest,
			Prepared: []message.PQEntry{{Seq: 130, Digest: digest, View: 1}},
			Replica:  1, Auth: auth(4)},
		&message.Status{View: 1, LastStable: 128, LastExec: 130, Replica: 2, Auth: auth(4)},
		&message.Fragment{Index: 2, Seq: 128, Data: []byte("chunk"), Replica: 3},
	}

	var out [][]byte
	var enc message.Encoder
	for _, m := range wellFormed {
		b := message.Marshal(&enc, m)
		out = append(out, b)
		// Truncations: header-only, mid-body, one byte short.
		for _, cut := range []int{1, len(b) / 2, len(b) - 1} {
			if cut > 0 && cut < len(b) {
				out = append(out, append([]byte(nil), b[:cut]...))
			}
		}
		// One random bit flipped.
		if len(b) > 1 {
			fl := append([]byte(nil), b...)
			fl[1+rng.Intn(len(fl)-1)] ^= 1 << uint(rng.Intn(8))
			out = append(out, fl)
		}
		// Type confusion: same body, different tag.
		tc := append([]byte(nil), b...)
		tc[0] = byte(1 + rng.Intn(15))
		out = append(out, tc)
	}
	// Raw noise of assorted sizes, plus pathological length prefixes.
	for _, n := range []int{0, 1, 2, 7, 33, 200} {
		junk := make([]byte, n)
		rng.Read(junk)
		out = append(out, junk)
	}
	out = append(out,
		[]byte{byte(message.TypePrepare), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		[]byte{byte(message.TypeRequest), 0x80},
	)
	return append(out, CountBombs()...)
}

// CountBombs returns, for every message type with a repeated field, the
// shortest datagram that claims message.MaxCount elements in the first such
// field and carries none of them. Decoding runs before any MAC check, so a
// decoder that sized an allocation by the claim would hand an
// unauthenticated sender megabytes per 21-byte datagram.
func CountBombs() [][]byte {
	bomb := func(t message.Type, fixed int) []byte {
		e := message.NewEncoder(1 + fixed + 4)
		e.U8(uint8(t))
		e.Raw(make([]byte, fixed))
		e.Count(message.MaxCount)
		return e.Bytes()
	}
	return [][]byte{
		bomb(message.TypePrePrepare, 8+8),                   // view, seq | refs
		bomb(message.TypePrepare, 8+8+crypto.DigestSize+4),  // view, seq, digest, replica | commits
		bomb(message.TypeViewChange, 8+8+crypto.DigestSize), // new view, last stable, digest | prepared
		bomb(message.TypeNewView, 8),                        // view | view-changes
		bomb(message.TypeNewKey, 4+8),                       // replica, epoch | keys
		bomb(message.TypeFetch, 4+8+8),                      // level, index, seq | missing
		bomb(message.TypeMeta, 4+8+8),                       // level, index, seq | children
	}
}
