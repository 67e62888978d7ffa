// Package bft is the public face of the BFT library: practical Byzantine
// fault tolerance for deterministic services, as described in Castro &
// Liskov's "Byzantine Fault Tolerance Can Be Fast" (DSN 2001) and
// "Practical Byzantine Fault Tolerance" (OSDI 1999).
//
// A service is replicated across n = 3f+1 replicas and keeps working —
// with linearizable semantics — while up to f of them fail arbitrarily.
// The implementation authenticates all traffic with pairwise MACs
// (public-key operations only stand behind key exchange), and includes the
// paper's normal-case optimizations: digest replies, tentative execution,
// piggybacked commits, single-round-trip read-only operations, request
// batching, and separate request transmission. Each is an independent
// switch in Options.
//
// # Quick start
//
// Implement StateMachine for your deterministic service, provision a
// keyring per node, and start four replicas and a client on a network:
//
//	net := bft.NewChannelNetwork()
//	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
//	_ = bft.Provision(cryptorand.Reader, rings)
//	for i := 0; i < 4; i++ {
//		r, _ := bft.StartReplica(bft.DefaultConfig(4, i), newMySM(), rings[i], net)
//		defer r.Close()
//	}
//	client, _ := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
//	defer client.Close()
//	result, _ := client.Invoke(context.Background(), []byte("op"), false)
//
// See the examples directory for runnable programs, and internal/sim for
// the discrete-event testbed used to reproduce the paper's evaluation.
package bft

import (
	"context"
	cryptorand "crypto/rand"
	"fmt"
	"io"
	"sync"
	"time"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
	"bftfast/internal/proc"
	"bftfast/internal/transport"
)

// Re-exported configuration and engine types. The aliases give downstream
// users a single import while the implementation lives in internal
// packages.
type (
	// Config parameterizes a replica; see DefaultConfig.
	Config = core.Config
	// ClientConfig parameterizes a client; see NewClientConfig.
	ClientConfig = core.ClientConfig
	// Options toggles the paper's normal-case optimizations.
	Options = core.Options
	// StateMachine is the deterministic service being replicated.
	StateMachine = core.StateMachine
	// Checkpointer is the optional StateMachine capability of keeping
	// checkpoints copy-on-write; a service with large state implements
	// it so a checkpoint costs its recent writes, not a Snapshot.
	Checkpointer = core.Checkpointer
	// Counters reports replica progress statistics.
	Counters = core.Counters
	// ClientCounters reports client-side protocol statistics.
	ClientCounters = core.ClientStats
	// Keyring holds one node's session and master keys.
	Keyring = crypto.KeyTable
	// Network delivers datagrams between nodes.
	Network = transport.Network
	// Env is the environment abstraction handed to EnvAware state
	// machines (useful for simulations that model execution cost).
	Env = proc.Env
	// Metric is one entry of a telemetry snapshot (see MetricsSnapshot).
	Metric = obs.Metric
	// TraceEvent is one flight-recorder record (see FlightEvents).
	TraceEvent = obs.Event
)

// NewTraceRecorder returns a bounded trace ring for Config.Trace: the
// replica's protocol trace and, at runtime, its flight recorder. The
// ring must be private to the replica it is handed to.
func NewTraceRecorder(node, capacity int) *obs.Recorder {
	return obs.NewRecorder(int32(node), capacity)
}

// DefaultConfig returns the standard host configuration for a group of n
// replicas: the paper's, plus piggybacked commits (its §4.4 ablation), which
// save a host a third of its datagrams. Mixed groups interoperate.
func DefaultConfig(n, self int) Config {
	cfg := core.DefaultConfig(n, self)
	cfg.Opts.PiggybackCommits = true
	return cfg
}

// AllOptimizations returns the optimization set the paper benchmarks as
// "BFT": everything except piggybacked commits.
func AllOptimizations() Options { return core.AllOptimizations() }

// NewClientConfig returns a client configuration matching DefaultConfig's
// replica settings.
func NewClientConfig(n, self int) ClientConfig {
	rc := core.DefaultConfig(n, 0)
	return ClientConfig{
		N:                 n,
		Self:              self,
		Opts:              rc.Opts,
		InlineThreshold:   rc.InlineThreshold,
		RetransmitTimeout: 150 * time.Millisecond,
	}
}

// NewKeyrings allocates a keyring per node id. Replica ids must be
// 0..n-1; client ids must lie outside that range.
func NewKeyrings(ids []int) []*Keyring {
	rings := make([]*Keyring, len(ids))
	for i, id := range ids {
		rings[i] = crypto.NewKeyTable(id)
	}
	return rings
}

// Provision wires a full mesh of fresh pairwise session and master keys
// across the given keyrings, reading randomness from rng (use
// crypto/rand.Reader in production). It stands in for the public-key
// session-key exchange of the paper's system.
func Provision(rng io.Reader, rings []*Keyring) error {
	return crypto.ProvisionAll(rng, rings)
}

// ExportKeyring serializes a keyring (including its secrets!) so separate
// processes can each load their own share of a provisioned mesh. Treat
// the blob like a private key file.
func ExportKeyring(r *Keyring) []byte { return r.Export() }

// ImportKeyring rebuilds a keyring from ExportKeyring output.
func ImportKeyring(data []byte) (*Keyring, error) { return crypto.ImportKeyTable(data) }

// NewChannelNetwork returns an in-process network for single-binary
// deployments, tests and examples.
func NewChannelNetwork() *transport.ChannelNetwork { return transport.NewChannelNetwork() }

// NewUDPNetwork returns a network over UDP sockets given a node-id to
// "host:port" table.
func NewUDPNetwork(addrs map[int]string) (*transport.UDPNetwork, error) {
	return transport.NewUDPNetwork(addrs)
}

// Replica is a running replica node.
type Replica struct {
	engine *core.Replica
	node   *transport.Node
	net    Network
	cfg    Config
	reg    *obs.Registry
	flight *obs.Recorder // the cfg.Trace ring; nil when tracing is off

	mu         sync.Mutex
	telemetry  *telemetry.Server
	flightPath string
}

// StartReplica launches a replica for cfg on the given network. The
// keyring must be provisioned (see Provision) and owned by cfg.Self.
//
// Every replica carries a metrics registry (engine counters, per-phase
// latency histograms, transport and process gauges) readable through
// MetricsSnapshot or served over HTTP with ServeTelemetry. Setting
// cfg.Trace additionally arms the flight recorder (see SetFlightDump).
func StartReplica(cfg Config, sm StateMachine, keys *Keyring, net Network) (*Replica, error) {
	reg := obs.NewRegistry()
	// The phase histograms consume the engine's trace events, so the engine
	// always gets a recorder: the caller's flight ring, or a ring-less one.
	flight, rec := cfg.Trace, cfg.Trace
	if rec == nil {
		rec = obs.NewRecorder(int32(cfg.Self), 0)
	}
	rec.TrackPhases(reg, "phase.")
	cfg.Trace = rec
	// Recovery and key rotation draw fresh session keys: they must not be
	// predictable.
	engine, err := core.NewReplica(cfg, sm, keys, nil, cryptorand.Reader)
	if err != nil {
		return nil, err
	}
	node, err := transport.Start(cfg.Self, engine, net)
	if err != nil {
		return nil, err
	}
	r := &Replica{engine: engine, node: node, net: net, cfg: cfg, flight: flight}
	r.initRegistry(reg)
	return r, nil
}

// Stats returns a snapshot of the replica's progress counters, taken
// under the replica's engine lock; zero once the replica is closed.
func (r *Replica) Stats() Counters {
	var out Counters
	_ = r.node.Do(func() { out = r.engine.Stats() })
	return out
}

// View returns the replica's current view, read under its engine lock;
// -1 once the replica is closed.
func (r *Replica) View() int64 {
	v := int64(-1)
	_ = r.node.Do(func() { v = r.engine.View() })
	return v
}

// ScheduleRecovery arms the replica's proactive-recovery watchdog to fire
// after d: it discards the session keys peers use toward the replica and
// resynchronizes from the group (see the paper's §2). Deployments stagger
// d across replicas so fewer than f recover at once.
func (r *Replica) ScheduleRecovery(d time.Duration) {
	_ = r.node.Do(func() { r.engine.ScheduleRecovery(d) })
}

// Close stops the replica, in dependency order: the telemetry server
// first (so no scrape runs against a dead node), then a final flight
// flush while the node still answers, then the node itself. The caller
// closes the network last.
func (r *Replica) Close() {
	r.mu.Lock()
	srv := r.telemetry
	r.telemetry = nil
	path := r.flightPath
	r.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	if path != "" && r.flight != nil {
		_, _ = r.DumpFlight()
	}
	r.node.Close()
}

// Client invokes operations on the replicated service.
type Client struct {
	engine *core.Client
	node   *transport.Node
	reg    *obs.Registry
	self   int

	mu        sync.Mutex
	telemetry *telemetry.Server
}

// StartClient launches a client on the given network.
func StartClient(cfg ClientConfig, keys *Keyring, net Network) (*Client, error) {
	engine, err := core.NewClient(cfg, keys, nil)
	if err != nil {
		return nil, err
	}
	node, err := transport.Start(cfg.Self, engine, net)
	if err != nil {
		return nil, err
	}
	c := &Client{engine: engine, node: node, reg: obs.NewRegistry(), self: cfg.Self}
	engine.RegisterMetrics(c.reg, "client.")
	node.RegisterMetrics(c.reg, "transport.")
	return c, nil
}

// Invoke executes op on the replicated service and returns its result.
// readOnly operations may use the single-round-trip fast path when the
// group has it enabled; they must not mutate service state. Invoke is safe
// for concurrent use; operations from one client are executed in
// submission order.
func (c *Client) Invoke(ctx context.Context, op []byte, readOnly bool) ([]byte, error) {
	ch := make(chan []byte, 1)
	err := c.node.Do(func() {
		c.engine.Submit(op, readOnly, func(result []byte) { ch <- result })
	})
	if err != nil {
		return nil, fmt.Errorf("bft: client stopped: %w", err)
	}
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("bft: invoke: %w", ctx.Err())
	}
}

// Stats returns a snapshot of the client's protocol counters.
func (c *Client) Stats() ClientCounters {
	var out ClientCounters
	_ = c.node.Do(func() { out = c.engine.Stats() })
	return out
}

// Close stops the client (telemetry server first, then the node).
// Outstanding Invoke calls never complete after Close; cancel their
// contexts.
func (c *Client) Close() {
	c.mu.Lock()
	srv := c.telemetry
	c.telemetry = nil
	c.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	c.node.Close()
}
