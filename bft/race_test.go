package bft_test

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestStatsConcurrentWithTraffic hammers the wall-time stats accessors
// from many goroutines while the cluster serves operations. The engine's
// Counters are plain fields mutated by handlers running under the node's
// engine lock — the determinism contract forbids locking inside engines —
// so the only safe read path is the one Replica.Stats/View/ClientStats
// take: a closure run by Node.Do under that same lock. Under -race (make
// test-race covers the whole module) this test fails if anyone
// reintroduces a direct read outside the lock.
func TestStatsConcurrentWithTraffic(t *testing.T) {
	client, replicas, cleanup := startCluster(t, 4, []int{100})
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range replicas {
					_ = r.Stats()
					_ = r.View()
				}
				_ = client.Stats()
			}
		}()
	}

	for i := 0; i < 25; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	close(stop)
	readers.Wait()

	st := replicas[1].Stats()
	if st.ExecutedRequests < 25 {
		t.Fatalf("replica 1 executed %d requests, want >= 25", st.ExecutedRequests)
	}
}
