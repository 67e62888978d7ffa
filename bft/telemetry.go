package bft

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
	"bftfast/internal/transport"
)

// HostCounters reports the host-side (wall-clock) counters around a
// replica's engine: mailbox drops and UDP receive losses. Both fields are
// atomics underneath and safe to read while the replica runs; a zero value
// simply means the corresponding component is not in play (no UDP network).
type HostCounters struct {
	// InboxDrops counts datagrams discarded on the replica's full
	// channel-network mailbox. On UDP the kernel's socket buffer is the
	// queue, and its drops are not visible here.
	InboxDrops int64

	// UDPOversized mirrors transport.UDPNetwork.Oversized.
	UDPOversized int64
}

// HostStats returns the replica's host-side counters. Unlike Stats it
// does not take the engine lock.
func (r *Replica) HostStats() HostCounters {
	hc := HostCounters{
		InboxDrops: r.node.Dropped(),
	}
	if u, ok := r.net.(*transport.UDPNetwork); ok {
		hc.UDPOversized = u.Oversized()
	}
	return hc
}

// initRegistry wires every layer of a starting replica into one
// obs.Registry: engine counters and progress marks ("engine."), mailbox
// health ("transport."), UDP receive losses ("udp.") when the network is
// UDP, and process-level gauges ("proc."); StartReplica has already added
// the phase histograms ("phase.") it attached to the engine's recorder.
// The registry and most gauges read engine fields, so snapshots must run
// under the node's engine lock — MetricsSnapshot does.
func (r *Replica) initRegistry(reg *obs.Registry) {
	r.reg = reg
	r.engine.RegisterMetrics(reg, "engine.")
	r.node.RegisterMetrics(reg, "transport.")
	if u, ok := r.net.(*transport.UDPNetwork); ok {
		u.RegisterMetrics(reg, "udp.")
	}
	reg.GaugeFunc("proc.goroutines", func() int64 { return int64(runtime.NumGoroutine()) })
	reg.GaugeFunc("proc.uptime_seconds", func() int64 { return int64(r.node.Uptime().Seconds()) })
	// runtime/metrics, not ReadMemStats: this gauge is read under the
	// engine lock on every scrape, and ReadMemStats stops the world.
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	reg.GaugeFunc("proc.heap_bytes", func() int64 {
		metrics.Read(heap)
		return int64(heap[0].Value.Uint64())
	})
}

// MetricsSnapshot renders the replica's full metrics registry — engine,
// phase, transport, UDP, and process series — under the
// replica's engine lock. It fails once the replica is closed.
func (r *Replica) MetricsSnapshot() ([]obs.Metric, error) {
	reg := r.reg // always set by StartReplica; local copy for the closure
	var ms []obs.Metric
	if err := r.node.Do(func() { ms = reg.Snapshot() }); err != nil {
		return nil, err
	}
	return ms, nil
}

// statusz assembles the /statusz document under the replica's engine lock.
func (r *Replica) statusz() (telemetry.Status, error) {
	var st telemetry.Status
	var heard []time.Duration
	err := r.node.Do(func() {
		st.Node = r.cfg.Self
		st.Role = "replica"
		st.View = r.engine.View()
		st.LastExecuted = r.engine.LastExecuted()
		st.LastStable = r.engine.LastStable()
		st.CheckpointsRetained, st.CheckpointsMaterialized = r.engine.Checkpoints()
		st.Commits = r.engine.Stats().Commits
		heard = r.engine.PeerHeard(nil)
	})
	if err != nil {
		return st, err
	}
	now := r.node.Uptime()
	st.UptimeSeconds = now.Seconds()
	// A peer is live if its last status broadcast is recent; "recent"
	// is three status periods, after which the paper's retransmission
	// machinery would already be compensating.
	thresh := 3 * r.cfg.StatusInterval
	for id, h := range heard {
		if id == r.cfg.Self {
			continue
		}
		p := telemetry.PeerStatus{ID: id, HeardAgoS: -1}
		if h > 0 {
			ago := now - h
			p.HeardAgoS = ago.Seconds()
			p.Live = thresh <= 0 || ago <= thresh
		}
		st.Peers = append(st.Peers, p)
	}
	return st, nil
}

// FlightEvents snapshots the replica's flight-recorder ring (the trace
// recorder passed in Config.Trace) under the engine lock. It returns an
// error when the recorder is disabled or the replica closed.
func (r *Replica) FlightEvents() ([]obs.Event, error) {
	flight := r.flight
	if flight == nil {
		return nil, fmt.Errorf("bft: flight recorder disabled (set Config.Trace)")
	}
	var evs []obs.Event
	if err := r.node.Do(func() { evs = flight.Events(nil) }); err != nil {
		return nil, err
	}
	return evs, nil
}

// SetFlightDump sets the BFTTRC01 file the flight recorder dumps to and
// arms the crash dump: if the engine panics, the ring is flushed to path
// before the panic resumes. Close also flushes there, so a cleanly stopped
// process leaves its last ring behind for bft-trace. An empty path disarms
// both.
func (r *Replica) SetFlightDump(path string) {
	r.mu.Lock()
	r.flightPath = path
	r.mu.Unlock()
	var crash func()
	if flight := r.flight; path != "" && flight != nil {
		crash = func() {
			// Runs on the panicking goroutine with the engine lock
			// still held, so reading the ring directly is safe.
			_ = telemetry.WriteDump(path, flight.Events(nil))
		}
	}
	r.node.SetCrashDump(crash)
}

// DumpFlight flushes the flight-recorder ring to the path set with
// SetFlightDump, returning the path written. Server binaries call it on
// SIGQUIT.
func (r *Replica) DumpFlight() (string, error) {
	r.mu.Lock()
	path := r.flightPath
	r.mu.Unlock()
	if path == "" {
		return "", fmt.Errorf("bft: no flight dump path set")
	}
	evs, err := r.FlightEvents()
	if err != nil {
		return "", err
	}
	if err := telemetry.WriteDump(path, evs); err != nil {
		return "", err
	}
	return path, nil
}

// ServeTelemetry starts the replica's telemetry endpoint on addr
// (port 0 picks a free port) and returns the bound address. The endpoint
// serves /metrics (Prometheus text), /healthz, /statusz, /debug/pprof/,
// and — when the replica has a flight recorder — /flight. Close stops it
// before the replica's node, so a scrape never races shutdown.
func (r *Replica) ServeTelemetry(addr string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.telemetry != nil {
		return "", fmt.Errorf("bft: telemetry already serving on %s", r.telemetry.Addr())
	}
	opts := telemetry.Options{
		Addr: addr,
		Labels: map[string]string{
			"node": strconv.Itoa(r.cfg.Self),
			"role": "replica",
		},
		Snapshot: r.MetricsSnapshot,
		Status:   r.statusz,
	}
	if r.flight != nil {
		opts.FlightEvents = r.FlightEvents
	}
	srv, err := telemetry.Serve(opts)
	if err != nil {
		return "", err
	}
	r.telemetry = srv
	return srv.Addr(), nil
}

// TelemetryAddr returns the bound telemetry address, or "" when
// ServeTelemetry has not run.
func (r *Replica) TelemetryAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.telemetry == nil {
		return ""
	}
	return r.telemetry.Addr()
}

// MetricsSnapshot renders the client's metrics registry (client counters,
// mailbox health, process gauges) under the client's engine lock.
func (c *Client) MetricsSnapshot() ([]obs.Metric, error) {
	reg := c.reg // always set by StartClient; local copy for the closure
	var ms []obs.Metric
	if err := c.node.Do(func() { ms = reg.Snapshot() }); err != nil {
		return nil, err
	}
	return ms, nil
}

// ServeTelemetry starts the client's telemetry endpoint on addr and
// returns the bound address; Close stops it before the client's node.
func (c *Client) ServeTelemetry(addr string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.telemetry != nil {
		return "", fmt.Errorf("bft: telemetry already serving on %s", c.telemetry.Addr())
	}
	srv, err := telemetry.Serve(telemetry.Options{
		Addr: addr,
		Labels: map[string]string{
			"node": strconv.Itoa(c.self),
			"role": "client",
		},
		Snapshot: c.MetricsSnapshot,
	})
	if err != nil {
		return "", err
	}
	c.telemetry = srv
	return srv.Addr(), nil
}
