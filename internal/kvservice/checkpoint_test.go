package kvservice

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
)

// The service is written against these two; the assertions live here so the
// package itself does not import the engine (core's tests import this one).
var (
	_ core.StateMachine = (*Service)(nil)
	_ core.Checkpointer = (*Service)(nil)
)

// modelMark is what the model keeps per checkpoint: an eager copy.
type modelMark struct {
	seq    int64
	snap   []byte
	digest crypto.Digest
}

// TestCheckpointsMatchEagerSnapshots drives random writes, reads,
// checkpoints, releases, rollbacks and restores against a model that takes
// an eager Snapshot at every checkpoint: SnapshotAt must return the copy
// byte for byte (fragment digests of a lazy and an eager replica have to
// agree), RollbackTo must leave Snapshot and StateDigest equal to the copy,
// and the retained marks never exceed the replica's bound — it releases
// below the stable checkpoint and keeps at most maxMarks.
func TestCheckpointsMatchEagerSnapshots(t *testing.T) {
	const maxMarks = 3 // LogWindow/CheckpointInterval + 1 at the defaults
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // deterministic test
		s := New()
		var marks []modelMark
		next := int64(1)
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }

		checkAll := func(step int) {
			t.Helper()
			if s.Checkpoints() != len(marks) {
				t.Fatalf("seed %d step %d: %d checkpoints retained, model has %d", seed, step, s.Checkpoints(), len(marks))
			}
			for _, m := range marks {
				if got := s.SnapshotAt(m.seq); !bytes.Equal(got, m.snap) {
					t.Fatalf("seed %d step %d: SnapshotAt(%d) differs from the eager copy (%d vs %d bytes)",
						seed, step, m.seq, len(got), len(m.snap))
				}
			}
		}

		for step := 0; step < 600; step++ {
			switch r := rng.Intn(100); {
			case r < 45:
				s.Execute(1, SetOp(key(), fmt.Sprintf("v%d", step)), false)
			case r < 60:
				s.Execute(1, DelOp(key()), false)
			case r < 70:
				before := s.StateDigest()
				s.Execute(1, GetOp(key()), true)
				if s.StateDigest() != before {
					t.Fatalf("seed %d step %d: get changed the digest", seed, step)
				}
			case r < 82: // checkpoint; the replica has released down to the bound by now
				if len(marks) == maxMarks {
					marks = marks[1:]
					s.Release(marks[0].seq)
				}
				s.Checkpoint(next)
				marks = append(marks, modelMark{seq: next, snap: s.Snapshot(), digest: s.StateDigest()})
				next++
			case r < 88 && len(marks) > 0: // a checkpoint became stable
				i := rng.Intn(len(marks))
				s.Release(marks[i].seq)
				marks = marks[i:]
			case r < 96 && len(marks) > 0: // tentative execution undone
				i := rng.Intn(len(marks))
				if err := s.RollbackTo(marks[i].seq); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				marks = marks[:i+1]
				if !bytes.Equal(s.Snapshot(), marks[i].snap) || s.StateDigest() != marks[i].digest {
					t.Fatalf("seed %d step %d: RollbackTo(%d) did not return to the checkpoint", seed, step, marks[i].seq)
				}
			case r < 98 && len(marks) > 0: // state transfer
				m := marks[rng.Intn(len(marks))]
				if err := s.Restore(m.snap); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if s.StateDigest() != m.digest {
					t.Fatalf("seed %d step %d: Restore digest differs", seed, step)
				}
				marks = nil
			}
			checkAll(step)
			if s.Checkpoints() > maxMarks {
				t.Fatalf("seed %d step %d: %d checkpoints retained, bound is %d", seed, step, s.Checkpoints(), maxMarks)
			}
		}
		if s.SnapshotAt(next+5) != nil || s.RollbackTo(next+5) == nil {
			t.Fatalf("seed %d: a checkpoint never taken is served", seed)
		}
	}
}

// TestEntryDigestFormat pins the store digest to its definition, so the
// scratch-buffer form cannot drift from what deployed replicas compute.
func TestEntryDigestFormat(t *testing.T) {
	s := New()
	s.Execute(1, SetOp("key", "value"), false)
	want := crypto.HashAll([]byte{byte(len("key") % 251)}, []byte("key"), []byte{0}, []byte("value"))
	if s.StateDigest() != want {
		t.Fatal("entry digest is not H(len%251, key, 0, value)")
	}
}

// TestNothingRecordedBeforeFirstCheckpoint: preloading must not pay for
// checkpoints nobody has asked for.
func TestNothingRecordedBeforeFirstCheckpoint(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.Execute(1, SetOp(fmt.Sprintf("k%d", i), "v"), false)
	}
	if s.Checkpoints() != 0 {
		t.Fatalf("%d checkpoints before the first Checkpoint call", s.Checkpoints())
	}
	s.Checkpoint(1)
	s.Execute(1, SetOp("k1", "w"), false)
	s.Execute(1, SetOp("k1", "x"), false)
	if n := len(s.marks[0].undo); n != 1 {
		t.Fatalf("undo map holds %d entries after two writes of one key, want 1", n)
	}
}

// TestSavedKeyWriteDoesNotAllocate gates the per-write cost of a retained
// checkpoint: once a key is saved under the newest checkpoint, writing it
// again records nothing.
func TestSavedKeyWriteDoesNotAllocate(t *testing.T) {
	s := New()
	s.Execute(1, SetOp("k", "v0"), false)
	s.Checkpoint(1)
	s.Execute(1, SetOp("k", "v1"), false)
	if got := testing.AllocsPerRun(100, func() { s.save("k", "v1", true) }); got != 0 {
		t.Fatalf("save of an already-saved key allocates %.0f times", got)
	}
}
