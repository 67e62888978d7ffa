package bft_test

import (
	"io"
	"math/rand"
	"testing"

	"bftfast/bft"
	"bftfast/internal/crypto"
)

// provisioned returns keyrings for ids provisioned from a fixed seed.
func provisioned(t *testing.T, ids []int) []*bft.Keyring {
	t.Helper()
	rings := bft.NewKeyrings(ids)
	if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	return rings
}

// checkLinked fails unless a and b authenticate to each other both ways:
// point-to-point MACs, and their entries of authenticators for the first n
// replicas.
func checkLinked(t *testing.T, a, b *bft.Keyring, n int) {
	t.Helper()
	content := []byte("request t=1")
	for _, p := range [][2]*bft.Keyring{{a, b}, {b, a}} {
		send, recv := p[0], p[1]
		tag, ok := crypto.SingleMAC(send, recv.Self(), content)
		if !ok || !crypto.VerifySingle(recv, send.Self(), tag, content) {
			t.Fatalf("single MAC %d -> %d does not verify", send.Self(), recv.Self())
		}
		if recv.Self() < n {
			auth := crypto.AuthenticatorInto(send, nil, n, content)
			if !crypto.VerifyEntry(recv, send.Self(), auth, content) {
				t.Fatalf("authenticator entry %d -> %d does not verify", send.Self(), recv.Self())
			}
		}
	}
}

// TestProvisionKeysOnlyPairsThatTalk provisions 4 replicas and 64 clients
// and checks that every pair a message can travel between authenticates
// both ways, and that no client holds a key for another client.
func TestProvisionKeysOnlyPairsThatTalk(t *testing.T) {
	const n = 4
	ids := []int{0, 1, 2, 3}
	for c := 0; c < 64; c++ {
		ids = append(ids, 100+c)
	}
	rings := provisioned(t, ids)
	content := []byte("new-key e=2")
	for i := 0; i < n; i++ {
		for j := i + 1; j < len(rings); j++ {
			checkLinked(t, rings[i], rings[j], n)
		}
		auth := crypto.MasterAuthenticatorFor(rings[i], n, content)
		for j := 0; j < n; j++ {
			if j != i && !crypto.VerifyMasterEntry(rings[j], i, auth, content) {
				t.Fatalf("master authenticator %d -> %d does not verify", i, j)
			}
		}
	}
	for _, a := range rings[n:] {
		for _, b := range rings[n:] {
			if a == b {
				continue
			}
			if _, ok := crypto.SingleMAC(a, b.Self(), content); ok {
				t.Fatalf("client %d holds a session key toward client %d", a.Self(), b.Self())
			}
			if _, ok := a.Master(b.Self()); ok {
				t.Fatalf("client %d holds a master key for client %d", a.Self(), b.Self())
			}
		}
	}
	// A client of this group holds exactly what the client of a one-client
	// group holds: keys for the four replicas, inbound and outbound, plus
	// their master keys and epochs.
	lone := provisioned(t, []int{0, 1, 2, 3, 100})[n]
	for _, c := range rings[n:] {
		if got, want := len(bft.ExportKeyring(c)), len(bft.ExportKeyring(lone)); got != want {
			t.Fatalf("client %d keyring exports %d bytes, want %d (keys for the replicas only)", c.Self(), got, want)
		}
	}
}

// TestProvisionKeysRunOfIDsAsReplicas checks the id rule: a client whose id
// continues the run 0..n-1 is keyed like a replica, with every node.
func TestProvisionKeysRunOfIDsAsReplicas(t *testing.T) {
	rings := provisioned(t, []int{0, 1, 2, 3, 4, 100, 101})
	for _, peer := range rings {
		if peer != rings[4] {
			checkLinked(t, rings[4], peer, 4)
		}
	}
	if _, ok := crypto.SingleMAC(rings[5], 101, []byte("x")); ok {
		t.Fatal("clients 100 and 101 share a key")
	}
}

// TestProvisionRejectsDuplicateIDs: two keyrings with one id cannot both
// hold the id's keys, so provisioning them must fail rather than leave one
// of them with keys its peers do not share.
func TestProvisionRejectsDuplicateIDs(t *testing.T) {
	for _, ids := range [][]int{{0, 1, 2, 3, 100, 100}, {0, 1, 2, 3, 2}} {
		rings := bft.NewKeyrings(ids)
		if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err == nil { //nolint:gosec
			t.Fatalf("ids %v: provisioned", ids)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// BenchmarkProvision keys a group of 4 replicas and 256 clients, the
// end-to-end benchmark's failover-udp group; each op allocates the keyrings
// and provisions them. keys/op counts the session and master keys drawn.
func BenchmarkProvision(b *testing.B) {
	ids := []int{0, 1, 2, 3}
	for c := 0; c < 256; c++ {
		ids = append(ids, 100+c)
	}
	rng := &countingReader{r: rand.New(rand.NewSource(1))} //nolint:gosec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bft.Provision(rng, bft.NewKeyrings(ids)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rng.n/crypto.KeySize)/float64(b.N), "keys/op")
}
