package crypto

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestHashAllMatchesConcatenation(t *testing.T) {
	a, b := []byte("pre-prepare"), []byte("payload")
	joined := Hash(append(append([]byte{}, a...), b...))
	split := HashAll(a, b)
	if joined != split {
		t.Fatalf("HashAll(a, b) = %v, want %v", split, joined)
	}
}

func TestDigestDistinguishesInputs(t *testing.T) {
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Fatal("distinct inputs produced identical digests")
	}
	if !ZeroDigest.IsZero() {
		t.Fatal("ZeroDigest.IsZero() = false")
	}
	if Hash([]byte("a")).IsZero() {
		t.Fatal("real digest reported as zero")
	}
}

func TestDigestPieceBoundaryIrrelevant(t *testing.T) {
	// Property: only the concatenated bytes matter, not how they are split.
	f := func(data []byte, split uint8) bool {
		if len(data) == 0 {
			return HashAll() == Hash(nil)
		}
		i := int(split) % len(data)
		return HashAll(data[:i], data[i:]) == Hash(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACRoundTrip(t *testing.T) {
	k, err := NewKey(testRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("request 42")
	tag := ComputeMAC(k, msg)
	if !macEqual(ComputeMAC(k, msg), tag) {
		t.Fatal("valid MAC did not verify")
	}
	if macEqual(ComputeMAC(k, []byte("request 43")), tag) {
		t.Fatal("MAC verified for altered message")
	}
	k2, err := NewKey(testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if macEqual(ComputeMAC(k2, msg), tag) {
		t.Fatal("MAC verified under wrong key")
	}
}

func TestMACDeterministicProperty(t *testing.T) {
	f := func(key [KeySize]byte, msg []byte) bool {
		k := Key(key)
		return ComputeMAC(k, msg) == ComputeMAC(k, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAuthenticatorPerReceiver(t *testing.T) {
	const n = 4
	tables := make([]*KeyTable, n)
	for i := range tables {
		tables[i] = NewKeyTable(i)
	}
	if err := ProvisionAll(testRNG(7), tables); err != nil {
		t.Fatal(err)
	}
	content := []byte("pre-prepare v=0 n=1")
	auth := AuthenticatorFor(tables[0], n, content)
	if len(auth) != n {
		t.Fatalf("authenticator length = %d, want %d", len(auth), n)
	}
	for j := 1; j < n; j++ {
		if !VerifyEntry(tables[j], 0, auth, content) {
			t.Fatalf("replica %d failed to verify its entry", j)
		}
	}
	// The sender's own slot must never verify.
	if VerifyEntry(tables[0], 0, auth, content) {
		t.Fatal("sender verified its own (zero) entry")
	}
	// A receiver must not accept another receiver's entry content change.
	for j := 1; j < n; j++ {
		if VerifyEntry(tables[j], 0, auth, []byte("pre-prepare v=0 n=2")) {
			t.Fatalf("replica %d verified altered content", j)
		}
	}
	// Swapping two entries must break verification for both receivers.
	swapped := append(Authenticator{}, auth...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if VerifyEntry(tables[1], 0, swapped, content) || VerifyEntry(tables[2], 0, swapped, content) {
		t.Fatal("receiver verified a swapped authenticator entry")
	}
}

func TestAuthenticatorTooShortRejected(t *testing.T) {
	tables := []*KeyTable{NewKeyTable(0), NewKeyTable(1)}
	if err := ProvisionAll(testRNG(3), tables); err != nil {
		t.Fatal(err)
	}
	content := []byte("m")
	auth := AuthenticatorFor(tables[0], 1, content) // missing entry for replica 1
	if VerifyEntry(tables[1], 0, auth, content) {
		t.Fatal("short authenticator verified")
	}
}

func TestRotateInboundInvalidatesOldKeys(t *testing.T) {
	tables := []*KeyTable{NewKeyTable(0), NewKeyTable(1)}
	if err := ProvisionAll(testRNG(9), tables); err != nil {
		t.Fatal(err)
	}
	content := []byte("op")
	tag, ok := SingleMAC(tables[0], 1, content)
	if !ok || !VerifySingle(tables[1], 0, tag, content) {
		t.Fatal("initial key exchange broken")
	}
	fresh, err := tables[1].RotateInbound(testRNG(10), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh[1]; ok {
		t.Fatal("rotation produced a key for the node itself")
	}
	// Old MAC must now fail (this is what proactive recovery relies on).
	if VerifySingle(tables[1], 0, tag, content) {
		t.Fatal("stale MAC verified after inbound rotation")
	}
	// After the sender learns the new key, traffic verifies again.
	if !tables[0].SetOutbound(1, fresh[0], 2) {
		t.Fatal("fresh outbound key rejected")
	}
	tag2, _ := SingleMAC(tables[0], 1, content)
	if !VerifySingle(tables[1], 0, tag2, content) {
		t.Fatal("MAC under rotated key did not verify")
	}
}

func TestSetOutboundRejectsStaleEpoch(t *testing.T) {
	tbl := NewKeyTable(0)
	k1, _ := NewKey(testRNG(1))
	k2, _ := NewKey(testRNG(2))
	if !tbl.SetOutbound(1, k1, 5) {
		t.Fatal("first key rejected")
	}
	if tbl.SetOutbound(1, k2, 5) || tbl.SetOutbound(1, k2, 4) {
		t.Fatal("replayed new-key accepted")
	}
	got, ok := tbl.out[1]
	if !ok || got != k1 {
		t.Fatal("stale new-key overwrote the current key")
	}
	if !tbl.SetOutbound(1, k2, 6) {
		t.Fatal("newer epoch rejected")
	}
}

func TestMissingKeysFailClosed(t *testing.T) {
	tbl := NewKeyTable(0)
	if _, ok := SingleMAC(tbl, 1, []byte("m")); ok {
		t.Fatal("MAC produced without an outbound key")
	}
	if VerifySingle(tbl, 1, MAC{}, []byte("m")) {
		t.Fatal("verification succeeded without an inbound key")
	}
}

type countingMeter struct {
	digests, digestBytes int
	macs, macBytes       int
}

func (m *countingMeter) OnDigest(n int) { m.digests++; m.digestBytes += n }
func (m *countingMeter) OnMAC(n int)    { m.macs++; m.macBytes += n }

func TestSuiteMetersWork(t *testing.T) {
	const n = 4
	tables := make([]*KeyTable, n)
	for i := range tables {
		tables[i] = NewKeyTable(i)
	}
	if err := ProvisionAll(testRNG(11), tables); err != nil {
		t.Fatal(err)
	}
	meter := &countingMeter{}
	s := NewSuite(tables[0], meter)
	payload := bytes.Repeat([]byte{0xAB}, 100)

	s.Digest(payload)
	if meter.digests != 1 || meter.digestBytes != 100 {
		t.Fatalf("digest meter = (%d ops, %d bytes), want (1, 100)", meter.digests, meter.digestBytes)
	}
	s.Auth(n, payload)
	if meter.macs != n-1 || meter.macBytes != (n-1)*100 {
		t.Fatalf("auth meter = (%d ops, %d bytes), want (%d, %d)", meter.macs, meter.macBytes, n-1, (n-1)*100)
	}
	if _, ok := s.MAC(1, payload); !ok {
		t.Fatal("suite MAC failed")
	}
	if meter.macs != n {
		t.Fatalf("MAC meter = %d ops, want %d", meter.macs, n)
	}
}

func TestSuiteNilMeter(t *testing.T) {
	tables := []*KeyTable{NewKeyTable(0), NewKeyTable(1)}
	if err := ProvisionAll(testRNG(13), tables); err != nil {
		t.Fatal(err)
	}
	s := NewSuite(tables[0], nil)
	// Must not panic and must still authenticate correctly.
	a := s.Auth(2, []byte("x"))
	recv := NewSuite(tables[1], nil)
	if !recv.VerifyAuth(0, a, []byte("x")) {
		t.Fatal("nil-meter suite failed to authenticate")
	}
}

func TestKeyTableExportImportRoundTrip(t *testing.T) {
	tables := make([]*KeyTable, 3)
	for i := range tables {
		tables[i] = NewKeyTable(i * 7)
	}
	if err := ProvisionAll(testRNG(21), tables); err != nil {
		t.Fatal(err)
	}
	// Imported tables must interoperate exactly like the originals.
	blob := tables[0].Export()
	imported, err := ImportKeyTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if imported.Self() != tables[0].Self() {
		t.Fatalf("self = %d, want %d", imported.Self(), tables[0].Self())
	}
	content := []byte("post-import message")
	tag, ok := SingleMAC(imported, 7, content)
	if !ok {
		t.Fatal("imported table lacks outbound keys")
	}
	if !VerifySingle(tables[1], 0, tag, content) {
		t.Fatal("MAC from imported table does not verify at the peer")
	}
	// Master keys survive too.
	a := MasterAuthenticatorFor(imported, 15, content)
	if !VerifyMasterEntry(tables[1], 0, a, content) {
		t.Fatal("master authenticator from imported table does not verify")
	}
	// Epoch state survives: a replayed bootstrap key must stay rejected.
	k, _ := NewKey(testRNG(5))
	if imported.SetOutbound(7, k, 1) {
		t.Fatal("imported table accepted a stale epoch")
	}
}

func TestImportKeyTableRejectsGarbage(t *testing.T) {
	if _, err := ImportKeyTable(nil); err == nil {
		t.Fatal("nil import accepted")
	}
	if _, err := ImportKeyTable([]byte("not a key table")); err == nil {
		t.Fatal("garbage import accepted")
	}
	tables := []*KeyTable{NewKeyTable(0), NewKeyTable(1)}
	if err := ProvisionAll(testRNG(2), tables); err != nil {
		t.Fatal(err)
	}
	blob := tables[0].Export()
	for cut := 0; cut < len(blob); cut += 13 {
		if _, err := ImportKeyTable(blob[:cut]); err == nil {
			t.Fatalf("truncated import of %d bytes accepted", cut)
		}
	}
	if _, err := ImportKeyTable(append(blob, 1)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}
