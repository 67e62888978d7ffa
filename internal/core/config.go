// Package core implements the BFT state-machine-replication protocol
// (Castro & Liskov) evaluated in "Byzantine Fault Tolerance Can Be Fast"
// (DSN 2001): primary-backup + quorum ordering with pre-prepare/prepare/
// commit phases, MAC-based authentication, checkpointing with log garbage
// collection, MAC-only view changes with view-change acks, state transfer,
// and every normal-case optimization the paper evaluates — digest replies,
// tentative execution, piggybacked commits, read-only operations, request
// batching with a sliding window, and separate request transmission.
//
// Replica and Client are single-threaded reactive engines (see
// internal/proc); they run unchanged on the discrete-event simulator used
// by the benchmark harness and on real channel/UDP transports.
package core

import (
	"errors"
	"fmt"
	"time"

	"bftfast/internal/obs"
)

// Timer keys used by Replica.
const (
	timerViewChange  = 1 // liveness: pending request not executing
	timerStatus      = 2 // periodic status broadcast when lagging
	timerKeyRotation = 3 // periodic session-key refresh
	timerCommitFlush = 4 // piggyback idle-link fallback: flush held commits after StatusInterval/8
	timerRecovery    = 5 // proactive recovery (extension)
	timerBodyFetch   = 6 // grace period before fetching late separately transmitted bodies
	timerAssign      = 7 // assignment deadline: a client's resent request left unassigned
)

// Options toggles the paper's normal-case optimizations (§3.1). The zero
// value disables everything — BFT-BASE in the ablation benchmarks.
type Options struct {
	// DigestReplies makes only the client-designated replica return the
	// full result; the others return a digest.
	DigestReplies bool

	// TentativeExecution executes a batch once it is *prepared* (and all
	// earlier batches committed), cutting one message delay; replies are
	// flagged tentative and clients need 2f+1 of them.
	TentativeExecution bool

	// ReadOnly enables the single-round-trip path for read-only requests.
	ReadOnly bool

	// Batching runs one protocol instance per batch of requests, bounded
	// by a sliding window.
	Batching bool

	// SeparateRequests keeps requests larger than InlineThreshold out of
	// pre-prepares: clients multicast them and pre-prepares carry digests.
	SeparateRequests bool

	// PiggybackCommits carries commit assertions inside later pre-prepare
	// and prepare messages, sending them standalone only when waiting for a
	// carrier would cost latency (settleCommits). Normal case only. The
	// paper's release shipped without it, so AllOptimizations leaves it off;
	// the bft facade's DefaultConfig turns it on.
	PiggybackCommits bool
}

// separate reports whether a request whose encoding is size bytes travels
// outside pre-prepares: its client multicasts it to every replica and
// pre-prepares carry its digest. Clients and replicas decide it alike.
func (o Options) separate(size, inlineThreshold int) bool {
	return o.SeparateRequests && size > inlineThreshold
}

// AllOptimizations mirrors the paper's standard "BFT" configuration: every
// optimization on except piggybacked commits (which the released library
// did not include).
func AllOptimizations() Options {
	return Options{
		DigestReplies:      true,
		TentativeExecution: true,
		ReadOnly:           true,
		Batching:           true,
		SeparateRequests:   true,
	}
}

// Config parameterizes a Replica.
type Config struct {
	// N is the number of replicas; the group tolerates F = (N-1)/3 faults.
	N int
	// Self is this replica's id in [0, N).
	Self int

	// Opts selects the normal-case optimizations.
	Opts Options

	// InlineThreshold is the largest request (encoded size) inlined into a
	// pre-prepare when SeparateRequests is on. The paper used 255 bytes.
	InlineThreshold int

	// MaxBatchBytes bounds the sum of encoded request sizes in one batch.
	MaxBatchBytes int

	// MaxBatchRequests bounds the number of requests in one batch.
	MaxBatchRequests int

	// Window is W, the number of batches the primary may run in parallel
	// beyond the last executed one.
	Window int64

	// CheckpointInterval is K: a checkpoint is taken every K batches.
	CheckpointInterval int64

	// LogWindow is L: pre-prepares are accepted for sequence numbers in
	// (h, h+L] where h is the last stable checkpoint.
	LogWindow int64

	// ViewChangeTimeout is how long a backup waits for a pending request
	// to execute before it acts. If the primary has pre-prepared past this
	// replica's frontier, it first asks the group for retransmission (one
	// status help round) and waits ViewChangeTimeout again; otherwise, or
	// if that wait also expires, it starts a view change. Execution
	// progress and a quorum checkpoint past the frontier restart the wait.
	// The timeout doubles on consecutive failed view changes. A quarter of
	// it is the assignment deadline T: a backup holding a client's resent
	// request that no pre-prepare has assigned runs one help round at age
	// T and starts a view change at 2T, whatever else executes meanwhile.
	ViewChangeTimeout time.Duration

	// StatusInterval is the period of status broadcasts while a replica is
	// waiting for something (missing messages, view change in progress).
	StatusInterval time.Duration

	// KeyRotationInterval is the period of session-key refresh; zero
	// disables rotation.
	KeyRotationInterval time.Duration

	// Trace receives protocol trace events stamped with Env.Now time; nil
	// disables tracing (every hook then costs a single branch). Live phase
	// histograms, when wanted, are attached to the same recorder (see
	// obs.Recorder.TrackPhases). The recorder must be private to this
	// replica: it is written from the engine's event context without
	// synchronization.
	Trace *obs.Recorder
}

// DefaultConfig returns the paper's standard configuration for n replicas.
func DefaultConfig(n, self int) Config {
	return Config{
		N:                  n,
		Self:               self,
		Opts:               AllOptimizations(),
		InlineThreshold:    255,
		MaxBatchBytes:      8 << 10,
		MaxBatchRequests:   64,
		Window:             8,
		CheckpointInterval: 128,
		LogWindow:          256,
		ViewChangeTimeout:  125 * time.Millisecond,
		StatusInterval:     150 * time.Millisecond,
	}
}

// F returns the number of Byzantine faults the group tolerates.
func (c *Config) F() int { return (c.N - 1) / 3 }

// Quorum returns the quorum size 2f+1.
func (c *Config) Quorum() int { return 2*c.F() + 1 }

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.N < 4:
		return fmt.Errorf("core: N = %d; need at least 4 replicas (3f+1, f >= 1)", c.N)
	case c.Self < 0 || c.Self >= c.N:
		return fmt.Errorf("core: Self = %d out of range [0, %d)", c.Self, c.N)
	case c.CheckpointInterval <= 0:
		return errors.New("core: CheckpointInterval must be positive")
	case c.LogWindow < 2*c.CheckpointInterval:
		return fmt.Errorf("core: LogWindow %d must be at least twice CheckpointInterval %d",
			c.LogWindow, c.CheckpointInterval)
	case c.Window <= 0:
		return errors.New("core: Window must be positive")
	case c.MaxBatchRequests <= 0 || c.MaxBatchBytes <= 0:
		return errors.New("core: batch bounds must be positive")
	case c.ViewChangeTimeout <= 0:
		return errors.New("core: ViewChangeTimeout must be positive")
	}
	return nil
}

// PrimaryOf returns the primary replica id for a view.
func (c *Config) PrimaryOf(view int64) int {
	return int(view % int64(c.N))
}
