// Package adversary implements composable Byzantine behaviors that wrap a
// replica's protocol engine at the node boundary (proc.Handler/proc.Env).
// The wrapped replica runs the real engine unmodified; the wrapper sits
// between the engine and the network like a compromised host's kernel,
// mutating, withholding, forging and replaying traffic. Because the
// wrapper is itself a deterministic single-threaded engine — all time from
// Env.Now, all randomness from a seeded source — adversarial runs remain
// bit-reproducible under the discrete-event simulator, and the bft-vet
// determinism contract applies to this package exactly as it does to
// internal/core (see DESIGN.md §8).
//
// Behaviors model the attacks the protocol is designed to survive with at
// most f faulty replicas:
//
//   - EquivocatePrimary: the primary assigns the same sequence number to
//     two conflicting batches, sending each to a disjoint subset of the
//     backups. At most one can gather a prepare quorum; the protocol must
//     recover ordering through a view change.
//   - FloodGarbage: bursts of undecodable bytes, structurally valid
//     messages with garbage MACs, and stale replays — a CPU/bandwidth
//     attack that makes honest replicas pay verification cost for junk.
//   - SpamViewChange: authenticated view-change messages for views nobody
//     else wants. Below f+1 senders they must never depose a primary.
//   - CorruptTransfer: a lying state-transfer source that serves
//     bit-flipped fragments. Fragments carry no MAC; fetchers must detect
//     the corruption against the trusted parent digest and refetch.
//   - DelayReorder: holds messages back for bounded pseudo-random delays,
//     releasing them out of order and occasionally duplicated — the
//     asynchronous-network adversary.
//   - ForgeCommitRefs: correctly authenticated prepares whose piggybacked
//     commit references name a wrong digest or an out-of-window sequence.
//   - WithholdCarriers: sends no pre-prepare or prepare, so no carrier ever
//     brings its commits; nobody may wait for one.
//
// The adversary signs its forgeries with the replica's own key table but
// meters none of the cryptography: a real attacker's cycles are free to
// the system under test, and an unmetered suite keeps the faulty node's
// virtual CPU available for the protocol work that makes its attacks most
// disruptive.
package adversary

import (
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/proc"
)

// Behavior selects one Byzantine behavior for a wrapped replica.
type Behavior uint8

// The supported behaviors.
const (
	None Behavior = iota
	EquivocatePrimary
	FloodGarbage
	SpamViewChange
	CorruptTransfer
	DelayReorder
	ForgeCommitRefs
	WithholdCarriers
)

var behaviorNames = map[Behavior]string{
	None:              "none",
	EquivocatePrimary: "equivocate",
	FloodGarbage:      "flood",
	SpamViewChange:    "vc-spam",
	CorruptTransfer:   "corrupt-transfer",
	DelayReorder:      "delay-reorder",
	ForgeCommitRefs:   "forge-refs",
	WithholdCarriers:  "no-carriers",
}

// String returns the behavior's stable name (used in campaign tables).
func (b Behavior) String() string {
	if s, ok := behaviorNames[b]; ok {
		return s
	}
	return "invalid"
}

// Piggybacked reports whether the behavior needs a group that piggybacks commits.
func (b Behavior) Piggybacked() bool { return b == ForgeCommitRefs || b == WithholdCarriers }

// Behaviors lists every real behavior, in campaign order.
var Behaviors = []Behavior{
	EquivocatePrimary, FloodGarbage, SpamViewChange, CorruptTransfer, DelayReorder,
	ForgeCommitRefs, WithholdCarriers,
}

// Config parameterizes one faulty replica. The zero value of every knob
// selects a sensible default, so Config{Behavior: FloodGarbage} is a
// complete configuration.
type Config struct {
	Behavior Behavior

	// FloodInterval is the period between garbage bursts (FloodGarbage).
	// Default 2ms.
	FloodInterval time.Duration
	// FloodBurst is the number of messages per burst (FloodGarbage).
	// Default 4.
	FloodBurst int
	// SpamInterval is the period between forged view changes
	// (SpamViewChange). Default 10ms.
	SpamInterval time.Duration
	// MaxDelay bounds the holdback applied to outgoing messages
	// (DelayReorder). Default 2ms.
	MaxDelay time.Duration
	// DupEvery duplicates every DupEvery-th released message
	// (DelayReorder). Default 7; negative disables duplication.
	DupEvery int
}

// withDefaults fills zero knobs.
func (c Config) withDefaults() Config {
	if c.FloodInterval <= 0 {
		c.FloodInterval = 2 * time.Millisecond
	}
	if c.FloodBurst <= 0 {
		c.FloodBurst = 4
	}
	if c.SpamInterval <= 0 {
		c.SpamInterval = 10 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.DupEvery == 0 {
		c.DupEvery = 7
	}
	return c
}

// Scenario assigns behaviors to replica ids. It is the configuration
// threaded through the benchmark harness (bench.MicroParams.WrapReplica
// has exactly the signature of (*Scenario).WrapReplica), so an attack is
// one struct literal away from running under the full simulator.
type Scenario struct {
	// Seed derives each faulty replica's private randomness; replica id i
	// uses Seed*1e6+i so distinct faulty replicas never share a stream.
	Seed int64
	// Faulty maps replica id -> behavior configuration.
	Faulty map[int]Config
}

// WrapReplica wraps replica id's engine when the scenario marks it faulty
// and returns it unchanged otherwise. It matches the hook signature of
// bench.MicroParams.WrapReplica.
func (s *Scenario) WrapReplica(id, n int, h proc.Handler, keys *crypto.KeyTable) proc.Handler {
	if s == nil {
		return h
	}
	cfg, ok := s.Faulty[id]
	if !ok || cfg.Behavior == None {
		return h
	}
	return New(id, n, cfg, s.Seed*1_000_000+int64(id), h, keys)
}
