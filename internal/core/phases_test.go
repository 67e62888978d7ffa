package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/obs"
	"bftfast/internal/proc"
	"bftfast/internal/sim"
)

// loopClient drives a core.Client closed-loop through a fixed number of
// writes, one outstanding at a time.
type loopClient struct {
	*Client
	left, done int
}

func (l *loopClient) Init(env proc.Env) {
	l.Client.Init(env)
	l.next()
}

func (l *loopClient) next() {
	if l.left == 0 {
		return
	}
	l.left--
	l.Submit(opAppend(fmt.Sprint("k", l.cfg.Self), "v"), false, func([]byte) {
		l.done++
		l.next()
	})
}

// phaseCheck is what the phase histograms should hold for one replica,
// recomputed from the replica's own recorded events.
type phaseCheck struct {
	count, sum map[obs.Kind]int64
	missed     int64
}

func recomputePhases(events []obs.Event) phaseCheck {
	pc := phaseCheck{count: map[obs.Kind]int64{}, sum: map[obs.Kind]int64{}}
	start := map[int64]time.Duration{}
	for _, e := range events {
		switch e.Kind {
		case obs.EvPrePrepareSent, obs.EvPrePrepareRecv:
			if _, ok := start[e.Seq]; !ok {
				start[e.Seq] = e.At
			}
		case obs.EvPrepared, obs.EvCommitted, obs.EvExecuted:
			pp, ok := start[e.Seq]
			if !ok {
				pc.missed++
				continue
			}
			pc.count[e.Kind]++
			pc.sum[e.Kind] += int64(max(e.At-pp, 0))
		}
	}
	return pc
}

// TestPhaseHistogramsMatchEvents drives a simulated group whose replicas
// each keep a trace ring with phase histograms attached, and requires every
// histogram's count and sum to equal what the replica's recorded events
// imply: the live histograms and the trace are one event stream.
func TestPhaseHistogramsMatchEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(*Config)
	}{
		{"paper", func(*Config) {}},
		{"piggyback", func(c *Config) { c.Opts.PiggybackCommits = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, nClients, opsEach = 4, 4, 25
			s := sim.New(sim.DefaultCostModel(), 3)
			rng := rand.New(rand.NewSource(3)) //nolint:gosec // deterministic test keys
			tables := make([]*crypto.KeyTable, n+nClients)
			for i := range tables {
				tables[i] = crypto.NewKeyTable(i)
			}
			if err := crypto.ProvisionAll(rng, tables); err != nil {
				t.Fatal(err)
			}
			recs := make([]*obs.Recorder, n)
			regs := make([]*obs.Registry, n)
			var opts Config
			for i := 0; i < n; i++ {
				s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
					cfg := DefaultConfig(n, i)
					tc.opts(&cfg)
					recs[i], regs[i] = obs.NewRecorder(int32(i), 1<<14), obs.NewRegistry()
					recs[i].TrackPhases(regs[i], "phase.")
					cfg.Trace = recs[i]
					opts = cfg
					rep, err := NewReplica(cfg, newKVSM(), tables[i], m, nil)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				})
			}
			var clients []*loopClient
			for c := 0; c < nClients; c++ {
				s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
					cl, err := NewClient(ClientConfig{
						N: n, Self: n + c, Opts: opts.Opts, InlineThreshold: opts.InlineThreshold,
						RetransmitTimeout: 500 * time.Millisecond,
					}, tables[n+c], m)
					if err != nil {
						t.Fatal(err)
					}
					lc := &loopClient{Client: cl, left: opsEach}
					clients = append(clients, lc)
					return lc
				})
			}
			s.Run(2 * time.Second)
			for _, lc := range clients {
				if lc.done != opsEach {
					t.Fatalf("client %d finished %d of %d ops", lc.cfg.Self, lc.done, opsEach)
				}
			}

			names := map[obs.Kind]string{
				obs.EvPrepared:  "phase.prepare_ns",
				obs.EvCommitted: "phase.commit_ns",
				obs.EvExecuted:  "phase.execute_ns",
			}
			for i := 0; i < n; i++ {
				if recs[i].Len() == 1<<14 {
					t.Fatalf("replica %d: ring full, events lost", i)
				}
				want := recomputePhases(recs[i].Events(nil))
				for kind, name := range names {
					m, _ := regs[i].Get(name)
					if m.Count == 0 {
						t.Errorf("replica %d: %s has no samples", i, name)
					}
					if m.Count != want.count[kind] || m.Sum != want.sum[kind] {
						t.Errorf("replica %d: %s count/sum = %d/%d, events give %d/%d",
							i, name, m.Count, m.Sum, want.count[kind], want.sum[kind])
					}
				}
				if m, _ := regs[i].Get("phase.missed"); m.Value != want.missed {
					t.Errorf("replica %d: phase.missed = %d, events give %d", i, m.Value, want.missed)
				}
			}
		})
	}
}

// countingEnv counts the clock reads of the replica it wraps.
type countingEnv struct {
	proc.Env
	nows int
}

func (e *countingEnv) Now() time.Duration {
	e.nows++
	return e.Env.Now()
}

type countingReplica struct {
	*Replica
	env *countingEnv
}

func (r *countingReplica) Init(env proc.Env) {
	r.env.Env = env
	r.Replica.Init(r.env)
}

// TestPhasesReadClockAtBatchBoundariesOnly pins the cost of live phase
// histograms on a replica without a trace ring: over a fault-free batched
// run, trace reads the clock once per batch-boundary event (pre-prepare,
// prepared, committed, executed) and never for a per-request event. The
// same run is made three ways — no recorder, a ring-less recorder with
// phases, and a ring — and the extra clock reads of each are compared with
// the events the ring run recorded.
func TestPhasesReadClockAtBatchBoundariesOnly(t *testing.T) {
	clientIDs := []int{100, 101, 102, 103, 104, 105, 106, 107}
	run := func(recFor func(self int) *obs.Recorder) []*countingReplica {
		g := buildGroup(t, 4, clientIDs, func(c *Config) {
			c.Window = 1
			c.Trace = recFor(c.Self)
		})
		wrapped := make([]*countingReplica, len(g.replicas))
		for i, r := range g.replicas {
			wrapped[i] = &countingReplica{Replica: r, env: &countingEnv{}}
			g.c.handlers[i] = wrapped[i]
		}
		g.c.start()
		done := 0
		for round := 0; round < 4; round++ {
			for _, id := range clientIDs {
				g.invokeAsync(id, opAppend("x", "y"), false, &done)
			}
		}
		g.c.run(func() bool { return done == 32 }, 20*time.Second, "batched ops")
		g.c.advance(time.Second) // let every replica catch up
		return wrapped
	}

	off := run(func(int) *obs.Recorder { return nil })
	phased := run(func(self int) *obs.Recorder {
		rec := obs.NewRecorder(int32(self), 0)
		rec.TrackPhases(obs.NewRegistry(), "phase.")
		return rec
	})
	rings := make([]*obs.Recorder, 4)
	ringed := run(func(self int) *obs.Recorder {
		rings[self] = obs.NewRecorder(int32(self), 1<<14)
		return rings[self]
	})

	for i := range off {
		var boundaries, perRequest int
		for _, e := range rings[i].Events(nil) {
			switch e.Kind {
			case obs.EvPrePrepareSent, obs.EvPrePrepareRecv, obs.EvPrepared, obs.EvCommitted, obs.EvExecuted:
				boundaries++
			case obs.EvRequestIn, obs.EvExecRequest, obs.EvReplySent:
				perRequest++
			}
		}
		st := off[i].Stats()
		if st.ExecutedBatches >= st.ExecutedRequests || perRequest == 0 {
			t.Fatalf("replica %d: %d batches for %d requests, %d per-request events: run does not batch",
				i, st.ExecutedBatches, st.ExecutedRequests, perRequest)
		}
		if got := phased[i].env.nows - off[i].env.nows; got != boundaries {
			t.Errorf("replica %d: phases without a ring read the clock %d extra times, want %d (one per batch boundary)",
				i, got, boundaries)
		}
		if got := ringed[i].env.nows - off[i].env.nows; got != rings[i].Len() {
			t.Errorf("replica %d: ring read the clock %d extra times, want one per recorded event (%d)",
				i, got, rings[i].Len())
		}
	}
}
