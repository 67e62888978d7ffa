package core

import (
	"fmt"
	"maps"

	"bftfast/internal/crypto"
	"bftfast/internal/proc"
)

// StateMachine is the deterministic service replicated by the protocol.
// All replicas must produce identical results and state digests when they
// execute the same operations in the same order; any nondeterminism (time,
// randomness, map iteration order) must be resolved before reaching the
// state machine.
//
// These four methods are all a service has to write. A service whose state
// is large should also implement Checkpointer: without it the replica
// retains a checkpoint by calling Snapshot, so every checkpoint costs a
// serialization of the whole state.
type StateMachine interface {
	// Execute applies op on behalf of client and returns the result.
	// readOnly is true only for operations the service itself declares
	// read-only; implementations must not mutate state when it is set.
	// The replica keeps the returned slice (it is the stored reply) and
	// never writes to it, so a service may return the same read-only
	// slice from many calls.
	Execute(client int32, op []byte, readOnly bool) []byte

	// StateDigest returns a digest of the current service state. It is
	// compared across replicas at every checkpoint, so it must be a
	// deterministic function of state — and it should be cheap
	// (incrementally maintained), since it runs every CheckpointInterval
	// batches.
	StateDigest() crypto.Digest

	// Snapshot serializes the full service state. The bytes must be a
	// deterministic function of state: replicas serve fragments of one
	// checkpoint to each other and the fragment digests have to agree.
	Snapshot() []byte

	// Restore replaces the service state from a Snapshot serialization
	// (state transfer to a lagging replica).
	Restore(snap []byte) error
}

// Checkpointer is the optional capability of a StateMachine that keeps its
// own checkpoints, so that taking one costs the writes since the last one
// instead of a Snapshot of the whole state — the service-granularity form
// of the paper's copy-on-write pages. The replica uses it for everything
// it retains: serving state transfer, and undoing tentative execution at a
// view change. A StateMachine without it is wrapped in an adapter that
// calls Snapshot at every Checkpoint and Restore at RollbackTo, which is
// correct for any service and costs O(state) per checkpoint.
//
// The replica calls Checkpoint with strictly increasing seq: at start
// (seq 0), at every checkpoint it takes, and after a state transfer. At
// most LogWindow / CheckpointInterval + 1 checkpoints are retained at a
// time: every checkpoint lies in the log window above the stable one,
// which is retained too. A successful Restore forgets every checkpoint.
type Checkpointer interface {
	// Checkpoint declares the state as of this call to be checkpoint seq.
	Checkpoint(seq int64)

	// SnapshotAt returns the bytes Snapshot would have returned when
	// Checkpoint(seq) was called, byte for byte — replicas of one group
	// may mix implementations and their fragment digests must agree. It
	// is called when a peer fetches the checkpoint, not when it is taken.
	// The replica does not modify the result.
	SnapshotAt(seq int64) []byte

	// RollbackTo returns the state to checkpoint seq in place and forgets
	// every later checkpoint; seq itself stays retained. An error leaves
	// the state undefined and the replica falls back to a state transfer.
	RollbackTo(seq int64) error

	// Release forgets every checkpoint below the given sequence number.
	Release(below int64)
}

// wholeState implements Checkpointer for a plain StateMachine by keeping a
// full Snapshot per checkpoint.
type wholeState struct {
	sm    StateMachine
	snaps map[int64][]byte
}

func (w *wholeState) Checkpoint(seq int64) { w.snaps[seq] = w.sm.Snapshot() }

func (w *wholeState) SnapshotAt(seq int64) []byte { return w.snaps[seq] }

func (w *wholeState) RollbackTo(seq int64) error {
	snap, ok := w.snaps[seq]
	if !ok {
		return fmt.Errorf("core: checkpoint %d is not retained", seq)
	}
	maps.DeleteFunc(w.snaps, func(n int64, _ []byte) bool { return n > seq })
	return w.sm.Restore(snap)
}

func (w *wholeState) Release(below int64) {
	maps.DeleteFunc(w.snaps, func(n int64, _ []byte) bool { return n < below })
}

// EnvAware is implemented by state machines that model execution cost (or
// need timers/time); the replica hands them its environment before any
// Execute call.
type EnvAware interface {
	SetEnv(env proc.Env)
}
