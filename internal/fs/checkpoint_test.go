package fs

import (
	"bytes"
	"math/rand"
	"testing"

	"bftfast/internal/crypto"
)

// eagerMark is what the model keeps per checkpoint: an eager copy.
type eagerMark struct {
	seq       int64
	snap      []byte
	digest    crypto.Digest
	dataBytes int64
}

// randomMutation encodes one operation against a handle that is often live
// and a small name space, so creates collide, renames replace and cross
// directories, and directories empty out for rmdir. Reads ride along: they
// must change nothing.
func randomMutation(rng *rand.Rand, f *FS) []byte {
	handle := func() uint64 { return uint64(rng.Intn(int(f.nextID) + 1)) }
	name := func() string { return string(rune('a' + rng.Intn(4))) }
	switch r := rng.Intn(100); {
	case r < 12:
		return CreateOp(handle(), name())
	case r < 20:
		return MkdirOp(handle(), name())
	case r < 25:
		return SymlinkOp(handle(), name(), "target")
	case r < 45:
		data := make([]byte, rng.Intn(2*BlockSize))
		rng.Read(data)
		return WriteOp(handle(), int64(rng.Intn(3*BlockSize)), data)
	case r < 53:
		return TruncateOp(handle(), int64(rng.Intn(2*BlockSize)))
	case r < 63:
		return RemoveOp(handle(), name())
	case r < 71:
		return RmdirOp(handle(), name())
	case r < 90:
		return RenameOp(handle(), name(), handle(), name())
	case r < 95:
		return ReadOp(handle(), 0, BlockSize)
	default:
		return ReadDirOp(handle())
	}
}

// TestCheckpointsMatchEagerSnapshots drives random operations, checkpoints,
// releases, rollbacks and restores against a model that takes an eager
// Snapshot at every checkpoint: SnapshotAt must return the copy byte for
// byte (a copy-on-write replica and one behind the whole-state adapter
// serve the same fragments), and after RollbackTo the digest, the data
// byte count and Snapshot must equal those of a Restore of the copy.
func TestCheckpointsMatchEagerSnapshots(t *testing.T) {
	const maxMarks = 3 // LogWindow/CheckpointInterval + 1 at the defaults
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed)) //nolint:gosec // deterministic test
		f := New()
		var marks []eagerMark
		next := int64(1)

		for step := 0; step < 600; step++ {
			switch r := rng.Intn(100); {
			case r < 70:
				f.Apply(randomMutation(rng, f))
			case r < 82: // checkpoint; the replica has released down to the bound by now
				if len(marks) == maxMarks {
					marks = marks[1:]
					f.Release(marks[0].seq)
				}
				f.Checkpoint(next)
				marks = append(marks, eagerMark{seq: next, snap: f.Snapshot(), digest: f.Digest(), dataBytes: f.DataBytes()})
				next++
			case r < 88 && len(marks) > 0: // a checkpoint became stable
				i := rng.Intn(len(marks))
				f.Release(marks[i].seq)
				marks = marks[i:]
			case r < 97 && len(marks) > 0: // tentative execution undone
				i := rng.Intn(len(marks))
				if err := f.RollbackTo(marks[i].seq); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				marks = marks[:i+1]
				want := New()
				if err := want.Restore(marks[i].snap); err != nil {
					t.Fatal(err)
				}
				if f.Digest() != want.Digest() || f.Digest() != marks[i].digest ||
					f.DataBytes() != want.DataBytes() || f.DataBytes() != marks[i].dataBytes ||
					!bytes.Equal(f.Snapshot(), want.Snapshot()) {
					t.Fatalf("seed %d step %d: RollbackTo(%d) did not return to the checkpoint", seed, step, marks[i].seq)
				}
			case len(marks) > 0: // state transfer
				m := marks[rng.Intn(len(marks))]
				if err := f.Restore(m.snap); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if f.Digest() != m.digest {
					t.Fatalf("seed %d step %d: Restore digest differs", seed, step)
				}
				marks = nil
			}
			if f.Checkpoints() != len(marks) {
				t.Fatalf("seed %d step %d: %d checkpoints retained, model has %d", seed, step, f.Checkpoints(), len(marks))
			}
			for _, m := range marks {
				if got := f.SnapshotAt(m.seq); !bytes.Equal(got, m.snap) {
					t.Fatalf("seed %d step %d: SnapshotAt(%d) differs from the eager copy (%d vs %d bytes)",
						seed, step, m.seq, len(got), len(m.snap))
				}
			}
		}
		if f.SnapshotAt(next+5) != nil || f.RollbackTo(next+5) == nil {
			t.Fatalf("seed %d: a checkpoint never taken is served", seed)
		}
	}
}

// TestRenameOntoItselfChangesNothing: renaming an entry to its own name
// used to drop the inode and leave the entry dangling, so the next lookup
// crashed every replica.
func TestRenameOntoItselfChangesNothing(t *testing.T) {
	f := New()
	a, _ := f.Create(RootHandle, "a")
	f.Write(a.Handle, 0, []byte("data"))
	before := f.Snapshot()
	if st := f.Rename(RootHandle, "a", RootHandle, "a"); st != OK {
		t.Fatalf("rename onto itself: %v", st)
	}
	if !bytes.Equal(f.Snapshot(), before) {
		t.Fatal("rename onto itself changed the file system")
	}
	if got, st := f.Lookup(RootHandle, "a"); st != OK || got.Handle != a.Handle {
		t.Fatalf("lookup after rename onto itself: %v %v", got, st)
	}
}

// TestNothingRecordedWithoutCheckpoint: an unreplicated server never takes
// a checkpoint, so a write costs it what it did before checkpoints existed
// (two allocations). Once one is taken, a file written three times is
// copied once.
func TestNothingRecordedWithoutCheckpoint(t *testing.T) {
	f := New()
	a, _ := f.Create(RootHandle, "f")
	f.Write(a.Handle, 0, make([]byte, 3*BlockSize))
	buf := make([]byte, 100)
	if got := testing.AllocsPerRun(100, func() { f.Write(a.Handle, BlockSize, buf) }); got > 2 {
		t.Fatalf("an in-place write with no checkpoint allocates %.0f times, want at most 2", got)
	}
	f.Checkpoint(1)
	for i := 0; i < 3; i++ {
		f.Write(a.Handle, int64(i), buf)
	}
	if n := len(f.marks[0].undo); n != 1 {
		t.Fatalf("undo map holds %d inodes after three writes of one file, want 1", n)
	}
}
