package bft_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bftfast/bft"
	"bftfast/internal/crypto"
	"bftfast/internal/kvservice"
)

// counterSM is a minimal deterministic state machine: "inc" increments,
// "get" reads.
type counterSM struct {
	mu sync.Mutex // the engine is single-threaded, but tests peek
	n  int64
}

func (c *counterSM) Execute(client int32, op []byte, readOnly bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(op) == "inc" && !readOnly {
		c.n++
	}
	return []byte(fmt.Sprintf("%d", c.n))
}

func (c *counterSM) StateDigest() crypto.Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return crypto.Hash([]byte(fmt.Sprintf("%d", c.n)))
}

func (c *counterSM) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return []byte(fmt.Sprintf("%d", c.n))
}

func (c *counterSM) Restore(snap []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := fmt.Sscanf(string(snap), "%d", &c.n)
	return err
}

func startCluster(t *testing.T, n int, clientIDs []int) (*bft.Client, []*bft.Replica, func()) {
	t.Helper()
	return startClusterOn(t, bft.NewChannelNetwork(), n, clientIDs)
}

// startClusterOn starts n counter replicas and a client (the first client
// id) on net.
func startClusterOn(t *testing.T, net bft.Network, n int, clientIDs []int) (*bft.Client, []*bft.Replica, func()) {
	t.Helper()
	ids := make([]int, 0, n+len(clientIDs))
	for i := 0; i < n; i++ {
		ids = append(ids, i)
	}
	ids = append(ids, clientIDs...)
	rings := bft.NewKeyrings(ids)
	if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	var replicas []*bft.Replica
	for i := 0; i < n; i++ {
		r, err := bft.StartReplica(bft.DefaultConfig(n, i), &counterSM{}, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(n, clientIDs[0]), rings[n], net)
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		client.Close()
		for _, r := range replicas {
			r.Close()
		}
	}
	return client, replicas, cleanup
}

func TestPublicAPIRoundTrip(t *testing.T) {
	client, _, cleanup := startCluster(t, 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 5; i++ {
		res, err := client.Invoke(ctx, []byte("inc"), false)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("counter = %s after %d incs", res, i)
		}
	}
	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		t.Fatalf("read-only invoke: %v", err)
	}
	if string(res) != "5" {
		t.Fatalf("read-only get = %s, want 5", res)
	}
	if st := client.Stats(); st.Completed != 6 {
		t.Fatalf("client completed %d ops, want 6", st.Completed)
	}
}

func TestPublicAPIConcurrentInvokes(t *testing.T) {
	client, replicas, cleanup := startCluster(t, 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "20" {
		t.Fatalf("counter = %s, want 20", res)
	}
	if v := replicas[0].View(); v != 0 {
		t.Fatalf("view = %d, want 0 (healthy run)", v)
	}
}

func TestPublicAPISurvivesPrimaryCrash(t *testing.T) {
	client, replicas, cleanup := startCluster(t, 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
		t.Fatal(err)
	}
	replicas[0].Close() // kill the view-0 primary
	res, err := client.Invoke(ctx, []byte("inc"), false)
	if err != nil {
		t.Fatalf("invoke after primary crash: %v", err)
	}
	if string(res) != "2" {
		t.Fatalf("counter = %s after crash, want 2", res)
	}
	if v := replicas[1].View(); v < 1 {
		t.Fatalf("replica 1 still in view %d after primary crash", v)
	}
}

func TestPublicAPIInvokeContextCancel(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	// No replicas started: the invoke can never complete.
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err == nil {
		t.Fatal("invoke succeeded with no replicas")
	}
}

func TestPublicAPIValidation(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 2})
	if _, err := bft.StartReplica(bft.DefaultConfig(3, 0), &counterSM{}, rings[0], net); err == nil {
		t.Fatal("3-replica group accepted (cannot tolerate any fault)")
	}
	if _, err := bft.StartClient(bft.NewClientConfig(4, 2), rings[1], net); err == nil {
		t.Fatal("client id colliding with replica ids accepted")
	}
}

func TestPublicAPIScheduleRecovery(t *testing.T) {
	client, replicas, cleanup := startCluster(t, 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
		t.Fatal(err)
	}
	replicas[2].ScheduleRecovery(20 * time.Millisecond)
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke %d after recovery: %v", i, err)
		}
	}
	res, err := client.Invoke(ctx, []byte("get"), true)
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "6" {
		t.Fatalf("counter = %s, want 6", res)
	}
}

// inboundKeys reads the first key map of an ExportKeyring blob (after the
// 4-byte magic and the 8-byte owner id): the keys peers use toward the
// ring's owner, which a recovery rotates.
func inboundKeys(blob []byte) map[int]crypto.Key {
	off := 4 + 8
	n := int(binary.LittleEndian.Uint64(blob[off:]))
	off += 8
	keys := make(map[int]crypto.Key, n)
	for i := 0; i < n; i++ {
		var k crypto.Key
		copy(k[:], blob[off+8:])
		keys[int(binary.LittleEndian.Uint64(blob[off:]))] = k
		off += 8 + crypto.KeySize
	}
	return keys
}

// TestRecoveryRotatesUnpredictableKeys starts two groups from identical
// exported keyrings and recovers replica 2 in each. Recovery exists to cut
// off whoever holds the old session keys, so the keys it rotates to must
// come from a real randomness source: the two groups must end up with
// different ones.
func TestRecoveryRotatesUnpredictableKeys(t *testing.T) {
	rings := bft.NewKeyrings([]int{0, 1, 2, 3})
	if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	blobs := make([][]byte, len(rings))
	for i, ring := range rings {
		blobs[i] = bft.ExportKeyring(ring)
	}
	provisioned := inboundKeys(blobs[2])
	recoverReplica2 := func() map[int]crypto.Key {
		net := bft.NewChannelNetwork()
		var ring2 *bft.Keyring
		for i, blob := range blobs {
			ring, err := bft.ImportKeyring(blob)
			if err != nil {
				t.Fatal(err)
			}
			r, err := bft.StartReplica(bft.DefaultConfig(4, i), &counterSM{}, ring, net)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if i == 2 {
				ring2 = ring
				r.ScheduleRecovery(time.Millisecond)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if keys := inboundKeys(bft.ExportKeyring(ring2)); !maps.Equal(keys, provisioned) {
				return keys
			}
		}
		t.Fatal("replica 2 never rotated its inbound keys")
		return nil
	}
	if a, b := recoverReplica2(), recoverReplica2(); maps.Equal(a, b) {
		t.Fatal("two recoveries from identical keyrings rotated to identical keys")
	}
}

// TestPublicAPIOverUDP is the counter service on real UDP sockets: the one
// tier-1 test that runs the facade over NewUDPNetwork.
func TestPublicAPIOverUDP(t *testing.T) {
	addrs := map[int]string{
		0:   "127.0.0.1:48341",
		1:   "127.0.0.1:48342",
		2:   "127.0.0.1:48343",
		3:   "127.0.0.1:48344",
		100: "127.0.0.1:48345",
	}
	net, err := bft.NewUDPNetwork(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	client, _, cleanup := startClusterOn(t, net, 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 1; i <= 3; i++ {
		res, err := client.Invoke(ctx, []byte("inc"), false)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if string(res) != fmt.Sprintf("%d", i) {
			t.Fatalf("counter = %s after %d incs", res, i)
		}
	}
}

// TestPublicAPINativeCheckpointsStayLazy hands a Checkpointer service to
// StartReplica as a deployment would and runs past several checkpoints: they become stable as before, at most three are
// retained, and with nobody fetching none is ever serialized.
func TestPublicAPINativeCheckpointsStayLazy(t *testing.T) {
	const n = 4
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(1)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	net := bft.NewChannelNetwork()
	var replicas []*bft.Replica
	for i := 0; i < n; i++ {
		cfg := bft.DefaultConfig(n, i)
		cfg.CheckpointInterval, cfg.LogWindow = 16, 32
		r, err := bft.StartReplica(cfg, kvservice.New(), rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(n, 100), rings[n], net)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if _, err := client.Invoke(ctx, kvservice.SetOp(fmt.Sprintf("k%d", i%7), fmt.Sprint(i)), false); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	for i, r := range replicas {
		ms, err := r.MetricsSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, m := range ms {
			got[m.Name] = m.Value
		}
		if got["engine.stable_checkpoints"] < 3 {
			t.Errorf("replica %d: %d stable checkpoints after 100 batches of 16", i, got["engine.stable_checkpoints"])
		}
		if r := got["engine.checkpoint.retained"]; r < 1 || r > 3 {
			t.Errorf("replica %d retains %d checkpoints, want 1..3", i, r)
		}
		if got["engine.checkpoint.materialized"] != 0 {
			t.Errorf("replica %d serialized %d checkpoints with nobody fetching", i, got["engine.checkpoint.materialized"])
		}
	}
}
