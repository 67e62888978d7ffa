// Package bfs assembles the paper's file-service contenders:
//
//   - Service: the NFS-like file system wrapped as a BFT state machine —
//     replicated, this is BFS; behind the unreplicated baseline server it
//     is NO-REP. Both serve from memory (BFS gets stability from
//     replication rather than synchronous disk writes) and touch the disk
//     only when the data set outgrows the page cache.
//   - NFSSTDProfile: the cost profile of the Linux kernel NFSv2 server on
//     Ext2fs (NFS-STD), which additionally performs per-transaction disk
//     accesses — the effect the paper uses to explain PostMark (§5.2).
package bfs

import (
	"time"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/disk"
	"bftfast/internal/fs"
	"bftfast/internal/proc"
)

// CostProfile models where a file server spends time per operation. Zero
// values disable cost modeling entirely (unit tests, real transports).
type CostProfile struct {
	// PerOp is the CPU cost of dispatching one file-system operation.
	PerOp time.Duration
	// PerByte is the CPU cost per data byte moved (copying, checksums).
	PerByte time.Duration
	// Disk is the storage model; accesses beyond the page cache pay for it.
	Disk disk.Model

	// The remaining fields model an Ext2fs-backed server (NFS-STD): every
	// mutation queues work for a background disk, and the server stalls
	// only when the backlog exceeds MaxBacklog (dirty throttling). Bursty
	// workloads with client think time (Andrew) hide this work entirely;
	// sustained scattered churn (PostMark) turns the disk into the
	// bottleneck — exactly the asymmetry the paper reports in §5.2.
	// All three are zero for memory-backed servers (BFS, NO-REP), whose
	// stability comes from replication instead.
	CreateWork    time.Duration // allocate an inode + directory entry
	ScatterWork   time.Duration // remove/rmdir/rename/truncate: scattered updates
	WriteSeekWork time.Duration // first write to a file other than the last one
	MaxBacklog    time.Duration // background-disk backlog the server tolerates
}

// BFSProfile returns the cost profile of the replicated (and NO-REP)
// memory-backed server on the paper's hardware.
func BFSProfile() CostProfile {
	return CostProfile{
		PerOp:   25 * time.Microsecond,
		PerByte: 10 * time.Nanosecond,
		Disk:    disk.Atlas10K(),
	}
}

// NFSSTDProfile returns the cost profile of the kernel NFSv2 + Ext2fs
// server: the same CPU shape, plus synchronous metadata writes.
func NFSSTDProfile() CostProfile {
	p := BFSProfile()
	p.PerOp = 20 * time.Microsecond // kernel-resident server, slightly leaner
	p.CreateWork = 300 * time.Microsecond
	p.ScatterWork = 4200 * time.Microsecond
	p.WriteSeekWork = 2600 * time.Microsecond
	p.MaxBacklog = 30 * time.Millisecond
	return p
}

// Service wraps the deterministic file system as a replicated state
// machine with a cost model.
type Service struct {
	fsys *fs.FS
	prof CostProfile
	env  proc.Env

	diskFree  time.Duration // when the background disk drains its queue
	lastWrite uint64        // handle of the last written file (seek locality)
}

var (
	_ core.StateMachine = (*Service)(nil)
	_ core.Checkpointer = (*Service)(nil)
	_ core.EnvAware     = (*Service)(nil)
)

// NewService returns a fresh file service with the given cost profile.
func NewService(prof CostProfile) *Service {
	return &Service{fsys: fs.New(), prof: prof}
}

// FS exposes the underlying file system (tests and local tooling).
func (s *Service) FS() *fs.FS { return s.fsys }

// SetEnv implements core.EnvAware.
func (s *Service) SetEnv(env proc.Env) { s.env = env }

func (s *Service) charge(d time.Duration) {
	if s.env != nil && d > 0 {
		s.env.Charge(d)
	}
}

// Execute implements core.StateMachine: applies one encoded fs operation,
// charging the simulated CPU and disk costs it incurs.
func (s *Service) Execute(client int32, op []byte, readOnly bool) []byte {
	if readOnly && !fs.IsReadOnly(op) {
		// A faulty client flagged a mutating op read-only; refuse without
		// touching state (every correct replica refuses identically).
		return []byte{byte(fs.ErrInval)}
	}
	s.charge(s.prof.PerOp)
	if len(op) > 0 {
		switch fs.OpCode(op[0]) {
		case fs.OpWrite:
			n := int64(len(op))
			s.charge(time.Duration(n) * s.prof.PerByte)
			s.charge(s.prof.Disk.SpillAccess(n, s.fsys.DataBytes()))
			if h := writeHandle(op); h != s.lastWrite {
				s.lastWrite = h
				s.queueDisk(s.prof.WriteSeekWork)
			}
		case fs.OpRead:
			s.charge(s.prof.Disk.SpillAccess(fs.BlockSize, s.fsys.DataBytes()))
		case fs.OpCreate, fs.OpMkdir:
			s.queueDisk(s.prof.CreateWork)
		case fs.OpRemove, fs.OpRmdir, fs.OpRename, fs.OpTruncate:
			s.queueDisk(s.prof.ScatterWork)
		}
	}
	result := s.fsys.Apply(op)
	s.charge(time.Duration(len(result)) * s.prof.PerByte)
	return result
}

// queueDisk appends work to the background disk and stalls the server for
// any backlog beyond the dirty-throttling threshold.
func (s *Service) queueDisk(work time.Duration) {
	if work <= 0 || s.env == nil {
		return
	}
	now := s.env.Now()
	if s.diskFree < now {
		s.diskFree = now
	}
	s.diskFree += work
	if backlog := s.diskFree - now; backlog > s.prof.MaxBacklog {
		s.charge(backlog - s.prof.MaxBacklog)
		s.diskFree = s.env.Now() + s.prof.MaxBacklog
	}
}

// writeHandle extracts the file handle of an encoded write operation.
func writeHandle(op []byte) uint64 {
	if len(op) < 9 {
		return 0
	}
	var h uint64
	for i := 0; i < 8; i++ {
		h |= uint64(op[1+i]) << (8 * i)
	}
	return h
}

// StateDigest implements core.StateMachine using the file system's
// incrementally maintained digest (cheap, like the paper's copy-on-write
// hierarchical checkpoints).
func (s *Service) StateDigest() crypto.Digest { return s.fsys.Digest() }

// Snapshot implements core.StateMachine.
func (s *Service) Snapshot() []byte { return s.fsys.Snapshot() }

// Restore implements core.StateMachine.
func (s *Service) Restore(snap []byte) error { return s.fsys.Restore(snap) }

// Checkpoint implements core.Checkpointer through the file system's
// copy-on-write inodes. No checkpoint method charges virtual time: the
// memory the copies hold is modeled by the smaller page cache a BFS
// replica gets (bench.RunFS).
func (s *Service) Checkpoint(seq int64) { s.fsys.Checkpoint(seq) }

// SnapshotAt implements core.Checkpointer.
func (s *Service) SnapshotAt(seq int64) []byte { return s.fsys.SnapshotAt(seq) }

// RollbackTo implements core.Checkpointer.
func (s *Service) RollbackTo(seq int64) error { return s.fsys.RollbackTo(seq) }

// Release implements core.Checkpointer.
func (s *Service) Release(below int64) { s.fsys.Release(below) }
