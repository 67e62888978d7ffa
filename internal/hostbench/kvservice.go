package hostbench

import (
	"fmt"
	"strings"
	"testing"

	"bftfast/internal/kvservice"
)

// The two kvservice entries price a checkpoint interval both ways on the
// store of the end-to-end benchmark's kv-mixed-udp workload: what a
// replica pays when it retains a checkpoint by serializing the state
// (KVSnapshot20k, the whole-state adapter), and what it pays when the
// service keeps checkpoints copy-on-write (KVCheckpointInterval).
const (
	kvKeys      = 20_000
	kvValueSize = 128
	kvInterval  = 128 // core.DefaultConfig's CheckpointInterval, one write per batch
)

func kvKey(i int) string { return fmt.Sprintf("key-%05d", i) }

func kvValue(tag string) string { return tag + strings.Repeat("x", kvValueSize-len(tag)) }

func kvStore() *kvservice.Service {
	s := kvservice.New()
	for i := 0; i < kvKeys; i++ {
		s.Execute(0, kvservice.SetOp(kvKey(i), kvValue("init-")), false)
	}
	return s
}

// kvWrites returns one interval's worth of overwrites, on keys spread over
// the store.
func kvWrites() [][]byte {
	ops := make([][]byte, kvInterval)
	for i := range ops {
		ops[i] = kvservice.SetOp(kvKey(i*(kvKeys/kvInterval)), kvValue("c1-"))
	}
	return ops
}

// BenchKVSnapshot20k measures one Snapshot of the 20 000-key store.
func BenchKVSnapshot20k(b *testing.B) {
	s := kvStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = len(s.Snapshot())
	}
}

// BenchKVCheckpointInterval measures a whole checkpoint interval on the
// same store with the service's own checkpoints: mark, the interval's 128
// writes (each saving its key's prior value), release of the previous
// mark. The writes are inside the measurement; BenchKVWrites is the same
// loop without a checkpoint, so the difference is what retention costs.
func BenchKVCheckpointInterval(b *testing.B) {
	s, ops := kvStore(), kvWrites()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := int64(i + 1)
		s.Checkpoint(seq)
		for _, op := range ops {
			s.Execute(0, op, false)
		}
		s.Release(seq)
	}
	sink = s.Checkpoints()
}

// BenchKVWrites measures the interval's 128 writes alone.
func BenchKVWrites(b *testing.B) {
	s, ops := kvStore(), kvWrites()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			s.Execute(0, op, false)
		}
	}
	sink = s.Len()
}
