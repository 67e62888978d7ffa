package crypto

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
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

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMACKnownAnswers checks the kernel against RFC 4493's AES-128-CMAC
// examples: the subkeys, the full 16-byte CMAC, and the 8-byte tag.
func TestMACKnownAnswers(t *testing.T) {
	var k Key
	copy(k[:], unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	st := newMACState(k)
	if got, want := st.k1[:], unhex(t, "fbeed618357133667c85e08f7236a8de"); !bytes.Equal(got, want) {
		t.Errorf("K1 = %x, want %x", got, want)
	}
	if got, want := st.k2[:], unhex(t, "f7ddac306ae266ccf90bc11ee46d513b"); !bytes.Equal(got, want) {
		t.Errorf("K2 = %x, want %x", got, want)
	}
	msg := unhex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	for _, c := range []struct {
		n    int
		cmac string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	} {
		want := unhex(t, c.cmac)
		tag := st.compute([][]byte{msg[:c.n]})
		if got := st.x[:]; !bytes.Equal(got, want) {
			t.Errorf("CMAC of %d bytes = %x, want %x", c.n, got, want)
		}
		if !bytes.Equal(tag[:], want[:MACSize]) || ComputeMAC(k, msg[:c.n]) != tag {
			t.Errorf("tag of %d bytes = %x, want %x", c.n, tag, want[:MACSize])
		}
	}
}

// referenceCMAC is RFC 4493's algorithm over one contiguous message,
// written independently of the streaming kernel.
func referenceCMAC(k Key, msg []byte) MAC {
	b, _ := aes.NewCipher(k[:])
	var l [16]byte
	b.Encrypt(l[:], l[:])
	k1, k2 := double(l), double(double(l))
	n := (len(msg) + 15) / 16
	complete := n > 0 && len(msg)%16 == 0
	if n == 0 {
		n = 1
	}
	last := make([]byte, 16)
	copy(last, msg[(n-1)*16:])
	if complete {
		for i := range last {
			last[i] ^= k1[i]
		}
	} else {
		last[len(msg)-(n-1)*16] = 0x80
		for i := range last {
			last[i] ^= k2[i]
		}
	}
	x := make([]byte, 16)
	for i := 0; i < n; i++ {
		blk := last
		if i < n-1 {
			blk = msg[i*16 : (i+1)*16]
		}
		for j := range x {
			x[j] ^= blk[j]
		}
		b.Encrypt(x, x)
	}
	var m MAC
	copy(m[:], x)
	return m
}

// splitPieces cuts data into pieces whose lengths come from cuts: an empty
// piece, a multiple of the block size, or an arbitrary length; whatever is
// left over is the last piece.
func splitPieces(data, cuts []byte) [][]byte {
	var pieces [][]byte
	for _, c := range cuts {
		var n int
		switch c % 4 {
		case 0:
			n = 0
		case 1:
			n = 16 * int(c/4%4)
		default:
			n = int(c) % 37
		}
		n = min(n, len(data))
		pieces = append(pieces, data[:n])
		data = data[n:]
	}
	return append(pieces, data)
}

// TestMACPieceBoundaryIrrelevant: only the concatenated bytes matter, not
// how they are split. The last-block rule is where a streaming CMAC breaks,
// so splits at block multiples and empty pieces are generated on purpose,
// and the oracle is the one-shot reference, not the kernel itself.
func TestMACPieceBoundaryIrrelevant(t *testing.T) {
	f := func(key [KeySize]byte, data, cuts []byte) bool {
		return ComputeMAC(Key(key), splitPieces(data, cuts)...) == referenceCMAC(Key(key), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Every two-way split of every length around the first block edges.
	k := Key{7}
	data := bytes.Repeat([]byte{0x5c, 0xa3, 0x01}, 30)
	for n := 0; n <= 80; n++ {
		want := referenceCMAC(k, data[:n])
		for i := 0; i <= n; i++ {
			if got := ComputeMAC(k, data[:i], nil, data[i:n]); got != want {
				t.Fatalf("length %d split at %d: %x, want %x", n, i, got, want)
			}
		}
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
	if got, ok := tbl.out[1]; !ok || got.key != k1 {
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

// TestKeyTableExportDeterministic: one table always exports the same
// bytes, and an import/export round trip reproduces them.
func TestKeyTableExportDeterministic(t *testing.T) {
	tables := make([]*KeyTable, 8)
	for i := range tables {
		tables[i] = NewKeyTable(i)
	}
	if err := ProvisionAll(testRNG(4), tables); err != nil {
		t.Fatal(err)
	}
	if _, err := tables[0].RotateInbound(testRNG(6), []int{1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	blob := tables[0].Export()
	for i := 0; i < 5; i++ {
		if again := tables[0].Export(); !bytes.Equal(again, blob) {
			t.Fatal("two exports of one table differ")
		}
	}
	imported, err := ImportKeyTable(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imported.Export(), blob) {
		t.Fatal("import/export round trip changed the bytes")
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
