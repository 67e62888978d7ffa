// Package bench reproduces the paper's evaluation: every figure of the
// micro-benchmark section (§4) and the file-system section (§5) has a
// runner here that builds the simulated testbed — 600 MHz hosts on a
// 100 Mb/s switched Ethernet (internal/sim) — wires up real protocol
// engines with real message bytes and real (metered) cryptography, drives
// the paper's workloads, and reports the same rows the paper plots.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/norep"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
	"bftfast/internal/sim"
	"bftfast/internal/simpleservice"
)

// Submitter abstracts "issue one operation" across the BFT and NO-REP
// client engines for closed-loop load generation.
type Submitter interface {
	proc.Handler
	// Submit issues op; done fires with the result (or a loss).
	Submit(op []byte, readOnly bool, done func(lost bool))
}

// bftSubmitter adapts core.Client.
type bftSubmitter struct{ *core.Client }

func (s bftSubmitter) Submit(op []byte, readOnly bool, done func(bool)) {
	s.Client.Submit(op, readOnly, func([]byte) { done(false) })
}

// norepSubmitter adapts norep.Client.
type norepSubmitter struct{ *norep.Client }

func (s norepSubmitter) Submit(op []byte, readOnly bool, done func(bool)) {
	s.Client.Submit(op, func(_ []byte, lost bool) { done(lost) })
}

// LoadClient drives a Submitter in a closed loop: the next operation is
// issued the moment the previous one completes, like the paper's client
// processes.
type LoadClient struct {
	sub      Submitter
	makeOp   func() []byte
	readOnly bool
	stagger  time.Duration
	env      proc.Env

	startAt    time.Duration
	Completed  int64
	Lost       int64
	LatencySum time.Duration

	// Hist, when set, receives each completed operation's latency in
	// nanoseconds (for percentile reporting).
	Hist *obs.Histogram
}

var _ proc.Handler = (*LoadClient)(nil)

// timerStagger delays the first operation; it must not collide with the
// wrapped engine's timer keys (which are small).
const timerStagger = 1000

// NewLoadClient builds a closed-loop driver issuing ops from makeOp.
// stagger delays the first operation — real client processes do not all
// fire in the same instant, and a population that starts synchronized
// phase-locks into loss/retransmission waves that no real system shows.
func NewLoadClient(sub Submitter, makeOp func() []byte, readOnly bool, stagger time.Duration) *LoadClient {
	return &LoadClient{sub: sub, makeOp: makeOp, readOnly: readOnly, stagger: stagger}
}

// Init implements proc.Handler.
func (l *LoadClient) Init(env proc.Env) {
	l.env = env
	l.sub.Init(env)
	if l.stagger > 0 {
		env.SetTimer(timerStagger, l.stagger)
		return
	}
	l.kick()
}

func (l *LoadClient) kick() {
	l.startAt = l.env.Now()
	l.sub.Submit(l.makeOp(), l.readOnly, func(lost bool) {
		if lost {
			l.Lost++
		} else {
			l.Completed++
			lat := l.env.Now() - l.startAt
			l.LatencySum += lat
			if l.Hist != nil {
				l.Hist.Observe(int64(lat))
			}
		}
		l.kick()
	})
}

// Receive implements proc.Handler.
func (l *LoadClient) Receive(data []byte) { l.sub.Receive(data) }

// OnTimer implements proc.Handler.
func (l *LoadClient) OnTimer(key int) {
	if key == timerStagger {
		l.kick()
		return
	}
	l.sub.OnTimer(key)
}

// MicroParams configures one micro-benchmark measurement point.
type MicroParams struct {
	Replicas  int  // 3f+1 group size; 0 means NO-REP (single server)
	Clients   int  // closed-loop client processes
	ArgBytes  int  // operation argument size
	ResBytes  int  // operation result size
	ReadOnly  bool // use the read-only optimization path
	Opts      core.Options
	Seed      int64
	Warmup    time.Duration // excluded from measurement
	Measure   time.Duration // measurement window
	GiveUp    time.Duration // NO-REP loss give-up (0: patient)
	CostModel sim.CostModel

	// Optional protocol-knob overrides (zero keeps the default): the
	// primary's sliding window W, the checkpoint interval K, the
	// separate-request-transmission inline threshold, and the client
	// retransmission floor.
	Window             int64
	CheckpointInterval int64
	InlineThreshold    int
	RetransmitFloor    time.Duration

	// WrapReplica, when set, wraps each replica engine at the node boundary
	// before it is installed in the simulator — the Byzantine-adversary
	// hook (internal/adversary's Scenario.WrapReplica matches this
	// signature; bench deliberately does not import it). It receives the
	// replica id, the group size, the engine, and the replica's own key
	// table, and must be deterministic. Returning h unchanged leaves the
	// replica honest; a nil hook leaves the run bit-identical to one
	// without the field.
	WrapReplica func(id, n int, h proc.Handler, keys *crypto.KeyTable) proc.Handler
	// ViewChangeTimeout overrides the replicas' suspicion timeout (zero
	// keeps the benchmark default of 2s, generous enough that saturation
	// drops heal by retransmission instead of deposing the primary).
	ViewChangeTimeout time.Duration

	// Trace enables protocol tracing: every replica and client engine gets
	// a private obs.Recorder, and the merged event stream is returned in
	// MicroResult.Events. Tracing never perturbs the simulation — hooks
	// record outside the metered cost model — so headline metrics are
	// bit-identical with and without it.
	Trace bool
	// TraceCapacity bounds each node's ring (default 1<<15 events).
	TraceCapacity int
}

// MicroResult is one measured point.
type MicroResult struct {
	Throughput float64       // operations per second
	Latency    time.Duration // mean operation latency
	P50        time.Duration // median operation latency (measure window)
	P99        time.Duration // 99th-percentile operation latency
	Completed  int64
	Lost       int64

	// Events is the merged, time-ordered trace (nil unless Trace was set).
	Events []obs.Event
	// Metrics is the run's unified registry: per-node sim traffic counters,
	// replica/client protocol counters, and the client latency histogram
	// ("client.latency_ns"). Snapshot it only after Run returns.
	Metrics *obs.Registry
}

// staggerFor spreads client start times like independently launched
// processes (deterministically, for reproducible runs).
func staggerFor(idx int) time.Duration {
	return time.Duration(idx%101) * 389 * time.Microsecond
}

// DefaultMicroParams returns the paper's baseline setup: 4 replicas, one
// client, the standard optimization set, and the calibrated cost model.
func DefaultMicroParams() MicroParams {
	return MicroParams{
		Replicas:  4,
		Clients:   1,
		ArgBytes:  8,
		ResBytes:  8,
		Opts:      core.AllOptimizations(),
		Seed:      1,
		Warmup:    400 * time.Millisecond,
		Measure:   2 * time.Second,
		GiveUp:    500 * time.Millisecond,
		CostModel: sim.DefaultCostModel(),
	}
}

// RunMicro measures one point of the simple-service micro-benchmark.
func RunMicro(p MicroParams) MicroResult {
	s := sim.New(p.CostModel, p.Seed)
	makeOp := func() []byte { return simpleservice.Op(p.ArgBytes, p.ResBytes) }

	reg := obs.NewRegistry()
	hist := reg.Histogram("client.latency_ns")
	traceCap := p.TraceCapacity
	if traceCap <= 0 {
		traceCap = 1 << 15
	}
	var recs []*obs.Recorder
	newRec := func(node int) *obs.Recorder {
		if !p.Trace {
			return nil
		}
		r := obs.NewRecorder(int32(node), traceCap)
		recs = append(recs, r)
		return r
	}

	var loads []*LoadClient
	if p.Replicas == 0 {
		// NO-REP: one unreplicated server, plain datagrams.
		s.AddNode(norep.NewServer(simpleservice.Service{}))
		for c := 0; c < p.Clients; c++ {
			id := 1 + c
			lc := NewLoadClient(norepSubmitter{norep.NewClient(id, 0, p.GiveUp)},
				makeOp, p.ReadOnly, staggerFor(c))
			lc.Hist = hist
			loads = append(loads, lc)
			s.AddNode(lc)
		}
	} else {
		n := p.Replicas
		rng := rand.New(rand.NewSource(p.Seed)) //nolint:gosec // deterministic simulation
		tables := make([]*crypto.KeyTable, 0, n+p.Clients)
		for i := 0; i < n+p.Clients; i++ {
			tables = append(tables, crypto.NewKeyTable(i))
		}
		if err := crypto.ProvisionAll(rng, tables); err != nil {
			panic(fmt.Sprintf("bench: provisioning keys: %v", err))
		}
		for i := 0; i < n; i++ {
			i := i
			s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
				cfg := core.DefaultConfig(n, i)
				cfg.Opts = p.Opts
				if p.Window > 0 {
					cfg.Window = p.Window
				}
				if p.CheckpointInterval > 0 {
					cfg.CheckpointInterval = p.CheckpointInterval
					if cfg.LogWindow < 2*cfg.CheckpointInterval {
						cfg.LogWindow = 2 * cfg.CheckpointInterval
					}
				}
				if p.InlineThreshold > 0 {
					cfg.InlineThreshold = p.InlineThreshold
				}
				// The paper's runs had no view changes: suspicion timeouts
				// were generous relative to retransmission, so saturation
				// drops heal by resending instead of deposing the primary.
				cfg.ViewChangeTimeout = 2 * time.Second
				if p.ViewChangeTimeout > 0 {
					cfg.ViewChangeTimeout = p.ViewChangeTimeout
				}
				cfg.StatusInterval = 50 * time.Millisecond
				cfg.Trace = newRec(i)
				rep, err := core.NewReplica(cfg, simpleservice.Service{}, tables[i], m, nil)
				if err != nil {
					panic(fmt.Sprintf("bench: replica %d: %v", i, err))
				}
				rep.RegisterMetrics(reg, fmt.Sprintf("replica%d.", i))
				if p.WrapReplica != nil {
					return p.WrapReplica(i, n, rep, tables[i])
				}
				return rep
			})
		}
		for c := 0; c < p.Clients; c++ {
			c := c
			s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
				threshold := core.DefaultConfig(n, 0).InlineThreshold
				if p.InlineThreshold > 0 {
					threshold = p.InlineThreshold
				}
				retransmit := 800 * time.Millisecond
				if p.RetransmitFloor > 0 {
					retransmit = p.RetransmitFloor
				}
				cfg := core.ClientConfig{
					N:                 n,
					Self:              n + c,
					Opts:              p.Opts,
					InlineThreshold:   threshold,
					RetransmitTimeout: retransmit,
					Trace:             newRec(n + c),
				}
				cl, err := core.NewClient(cfg, tables[n+c], m)
				if err != nil {
					panic(fmt.Sprintf("bench: client %d: %v", c, err))
				}
				cl.RegisterMetrics(reg, fmt.Sprintf("client%d.", n+c))
				lc := NewLoadClient(bftSubmitter{cl}, makeOp, p.ReadOnly, staggerFor(c))
				lc.Hist = hist
				loads = append(loads, lc)
				return lc
			})
		}
	}

	s.RegisterMetrics(reg, "sim.")

	var (
		baseDone int64
		baseLat  time.Duration
		baseLost int64
	)
	s.At(p.Warmup, func() {
		for _, l := range loads {
			baseDone += l.Completed
			baseLat += l.LatencySum
			baseLost += l.Lost
		}
		// The histogram (and its percentiles) covers the measure window only,
		// like the mean.
		hist.Reset()
	})
	s.Run(p.Warmup + p.Measure)

	var done int64
	var lat time.Duration
	var lost int64
	for _, l := range loads {
		done += l.Completed
		lat += l.LatencySum
		lost += l.Lost
	}
	done -= baseDone
	lat -= baseLat
	lost -= baseLost

	res := MicroResult{Completed: done, Lost: lost, Metrics: reg}
	if p.Measure > 0 {
		res.Throughput = float64(done) / p.Measure.Seconds()
	}
	if done > 0 {
		res.Latency = lat / time.Duration(done)
	}
	res.P50 = time.Duration(hist.Quantile(0.50))
	res.P99 = time.Duration(hist.Quantile(0.99))
	if p.Trace {
		res.Events = obs.Merge(recs...)
	}
	return res
}
