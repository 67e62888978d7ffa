package message

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bftfast/internal/crypto"
)

func digestOf(b byte) crypto.Digest {
	var d crypto.Digest
	for i := range d {
		d[i] = b
	}
	return d
}

func macOf(b byte) crypto.MAC {
	var m crypto.MAC
	for i := range m {
		m[i] = b
	}
	return m
}

func keyOf(b byte) crypto.Key {
	var k crypto.Key
	for i := range k {
		k[i] = b
	}
	return k
}

// marshal is Marshal through a throwaway encoder.
func marshal(m Message) []byte { return Marshal(new(Encoder), m) }

func sampleMessages() []Message {
	return []Message{
		&Request{Client: 7, Timestamp: 42, ReadOnly: true, Replier: 2,
			Op: []byte("read /etc/passwd"), Auth: crypto.Authenticator{macOf(1), macOf(2)}},
		&Request{Client: 0, Timestamp: 0, Replier: AllReplicas, Op: []byte{}, Auth: crypto.Authenticator{}},
		&Reply{View: 3, Timestamp: 42, Client: 7, Replica: 1, Tentative: true, Full: true,
			Result: []byte("ok"), ResultD: digestOf(9), MAC: macOf(3)},
		&Reply{View: 0, Timestamp: 1, Client: 2, Replica: 0, Result: []byte{}, ResultD: digestOf(1), MAC: macOf(0)},
		&PrePrepare{View: 1, Seq: 100,
			Refs: []RequestRef{
				{Inline: []byte("encoded request bytes")},
				{Digest: digestOf(4)},
			},
			Commits: []CommitRef{{Seq: 99, Digest: digestOf(5)}},
			Auth:    crypto.Authenticator{macOf(1), macOf(2), macOf(3), macOf(4)}},
		&PrePrepare{View: 0, Seq: 1, Refs: nil, Auth: crypto.Authenticator{}},
		&Prepare{View: 1, Seq: 100, Digest: digestOf(6), Replica: 3,
			Commits: []CommitRef{{Seq: 98, Digest: digestOf(7)}},
			Auth:    crypto.Authenticator{macOf(9)}},
		&Commit{View: 1, Seq: 100, Digest: digestOf(6), Replica: 2, Auth: crypto.Authenticator{macOf(8)}},
		&Checkpoint{Seq: 128, StateD: digestOf(11), Replica: 1, Auth: crypto.Authenticator{macOf(12)}},
		&ViewChange{NewView: 2, LastStable: 128, StableD: digestOf(13),
			Prepared: []PQEntry{{Seq: 130, View: 1, Digest: digestOf(14)}},
			PrePrep:  []PQEntry{{Seq: 130, View: 1, Digest: digestOf(14)}, {Seq: 131, View: 0, Digest: digestOf(15)}},
			Replica:  3, Auth: crypto.Authenticator{macOf(1)}},
		&ViewChangeAck{View: 2, Replica: 1, Origin: 3, VCD: digestOf(16), MAC: macOf(2)},
		&NewView{View: 2, VCs: []VCRef{{Replica: 0, Digest: digestOf(17)}, {Replica: 3, Digest: digestOf(18)}},
			MinSeq: 128, Batches: []NVBatch{{Seq: 129, Digest: digestOf(19)}, {Seq: 130, Digest: crypto.ZeroDigest}},
			Auth: crypto.Authenticator{macOf(3)}},
		&NewKey{Replica: 2, Epoch: 5, Keys: []KeyEntry{{Replica: 0, Key: keyOf(1)}, {Replica: 1, Key: keyOf(2)}},
			Auth: crypto.Authenticator{macOf(4)}},
		&Status{View: 4, InViewChange: true, LastStable: 256, LastExec: 260, Replica: 0,
			Auth: crypto.Authenticator{macOf(5)}},
		&Fetch{Level: 1, Index: 17, Seq: 256, Replica: 2, Auth: crypto.Authenticator{macOf(6)}},
		&Fetch{Level: -1, Index: 130, Seq: 128, Missing: []int32{0, 2}, Replica: 1, Auth: crypto.Authenticator{macOf(6)}},
		&Meta{Level: 1, Index: 17, Seq: 256, Children: []crypto.Digest{digestOf(20), digestOf(21)}, Replica: 1},
		&Fragment{Index: 33, Seq: 256, Data: bytes.Repeat([]byte{0xEE}, 4096), Replica: 3},
		&Recovery{Replica: 1, Epoch: 9, Auth: crypto.Authenticator{macOf(7)}},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, m := range sampleMessages() {
		m := m
		t.Run(m.Type().String(), func(t *testing.T) {
			data := marshal(m)
			got, err := Unmarshal(data)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if !reflect.DeepEqual(normalize(got), normalize(m)) {
				t.Fatalf("round trip mismatch:\n got: %#v\nwant: %#v", got, m)
			}
		})
	}
}

// normalize maps nil and empty slices to a canonical form: the codec does
// not distinguish them, and the protocol must not either.
func normalize(m Message) Message {
	v := reflect.ValueOf(m).Elem()
	out := reflect.New(v.Type())
	out.Elem().Set(v)
	normalizeValue(out.Elem())
	msg, ok := out.Interface().(Message)
	if !ok {
		panic("normalize: not a message")
	}
	return msg
}

func normalizeValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
			return
		}
		for i := 0; i < v.Len(); i++ {
			normalizeValue(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			normalizeValue(v.Field(i))
		}
	default:
	}
}

func TestUnmarshalRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, err := Unmarshal([]byte{0xFF, 1, 2, 3}); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := Unmarshal([]byte{0}); err == nil {
		t.Fatal("type 0 accepted")
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	for _, m := range sampleMessages() {
		data := append(marshal(m), 0x00)
		if _, err := Unmarshal(data); err == nil {
			t.Fatalf("%s: trailing byte accepted", m.Type())
		}
	}
}

func TestUnmarshalTruncationsNeverPanic(t *testing.T) {
	for _, m := range sampleMessages() {
		data := marshal(m)
		for cut := 0; cut < len(data); cut++ {
			if _, err := Unmarshal(data[:cut]); err == nil && cut < len(data) {
				// A strict prefix may only decode successfully if it is
				// itself a complete message; for our formats with exact
				// Finish() this must not happen.
				t.Fatalf("%s: truncation to %d bytes accepted", m.Type(), cut)
			}
		}
	}
}

func TestUnmarshalRandomMutationsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range sampleMessages() {
		orig := marshal(m)
		for trial := 0; trial < 200; trial++ {
			data := append([]byte{}, orig...)
			for flips := 0; flips < 1+rng.Intn(4); flips++ {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
			// Must not panic; error or success both fine.
			_, _ = Unmarshal(data) //nolint:errcheck // probing for panics only
		}
	}
}

func TestDecoderBoundsEnforced(t *testing.T) {
	// A request whose op-length field claims MaxBlob+1 bytes.
	e := NewEncoder(64)
	e.U8(uint8(TypeRequest))
	e.I32(1)
	e.I64(1)
	e.Bool(false)
	e.I32(0)
	e.U32(MaxBlob + 1)
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Fatal("oversized blob length accepted")
	}

	// An authenticator claiming 2000 entries.
	e = NewEncoder(64)
	e.U8(uint8(TypeCommit))
	e.I64(0)
	e.I64(1)
	e.Digest(crypto.Digest{})
	e.I32(0)
	e.U32(2000)
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Fatal("oversized authenticator accepted")
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	f := func(client int32, ts int64, ro bool, replier int32, op []byte) bool {
		in := &Request{Client: client, Timestamp: ts, ReadOnly: ro, Replier: replier, Op: op,
			Auth: crypto.Authenticator{macOf(1), macOf(2), macOf(3)}}
		out, err := Unmarshal(marshal(in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(out), normalize(in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestDigestExcludesReplier(t *testing.T) {
	s := crypto.NewSuite(crypto.NewKeyTable(0), nil)
	a := &Request{Client: 1, Timestamp: 2, Op: []byte("op"), Replier: 0}
	b := &Request{Client: 1, Timestamp: 2, Op: []byte("op"), Replier: AllReplicas}
	if a.ContentDigest(s, new(Encoder)) != b.ContentDigest(s, new(Encoder)) {
		t.Fatal("request digest depends on the replier field")
	}
	c := &Request{Client: 1, Timestamp: 3, Op: []byte("op")}
	if a.ContentDigest(s, new(Encoder)) == c.ContentDigest(s, new(Encoder)) {
		t.Fatal("request digest ignores the timestamp")
	}
}

func TestOrderContentDistinguishesTuples(t *testing.T) {
	base := OrderContent(new(Encoder), 1, 2, digestOf(3))
	for _, other := range [][]byte{
		OrderContent(new(Encoder), 2, 2, digestOf(3)),
		OrderContent(new(Encoder), 1, 3, digestOf(3)),
		OrderContent(new(Encoder), 1, 2, digestOf(4)),
	} {
		if bytes.Equal(base, other) {
			t.Fatal("distinct (view, seq, digest) tuples encode identically")
		}
	}
}

func TestBatchDigestOrderSensitive(t *testing.T) {
	s := crypto.NewSuite(crypto.NewKeyTable(0), nil)
	ab := BatchDigest(s, new(Encoder), []crypto.Digest{digestOf(1), digestOf(2)})
	ba := BatchDigest(s, new(Encoder), []crypto.Digest{digestOf(2), digestOf(1)})
	if ab == ba {
		t.Fatal("batch digest is order-insensitive")
	}
}

func TestTypeStrings(t *testing.T) {
	for _, m := range sampleMessages() {
		if s := m.Type().String(); s == "" || s[0] == 't' && s != "type(0)" {
			// All defined types must have symbolic names.
			t.Fatalf("missing String for %d: %q", m.Type(), s)
		}
	}
	if Type(200).String() != "type(200)" {
		t.Fatal("unknown type String format changed")
	}
}
