// Package campaign sweeps every adversary behavior under the full
// simulator and checks the two properties the protocol owes its users with
// at most f faulty replicas:
//
//   - Safety: every client-observed history is linearizable, and the
//     correct replicas' executed-state digests agree — checked on a
//     key-value cluster with scripted concurrent readers and writers.
//   - Liveness: throughput under attack stays within a stated factor of
//     the fault-free baseline, evidenced by the per-phase obs breakdown of
//     the attacked run.
//
// It lives in a subpackage so internal/adversary itself stays free of
// protocol-engine imports: package core's own tests wrap replicas with
// adversary.New, which would be an import cycle if the adversary package
// reached back into core the way this runner must.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"time"

	"bftfast/internal/adversary"
	"bftfast/internal/bench"
	"bftfast/internal/core"
	"bftfast/internal/crypto"
	"bftfast/internal/kvservice"
	"bftfast/internal/linearizability"
	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
	"bftfast/internal/proc"
	"bftfast/internal/sim"
)

// minFactor is the stated liveness floor per behavior: attacked throughput
// must stay above this fraction of the fault-free baseline. The floors are
// deliberately conservative — they assert "degrades, does not collapse",
// and the per-phase breakdown in the campaign output shows where the lost
// time goes. EquivocatePrimary costs one view change to depose the primary;
// request salvage across the view change (core.salvageRequests) then
// restores full throughput, so its floor is bounded by the view-change
// pause, not by client retransmission.
var minFactor = map[adversary.Behavior]float64{
	adversary.EquivocatePrimary: 0.50,
	adversary.FloodGarbage:      0.30,
	adversary.SpamViewChange:    0.30,
	adversary.CorruptTransfer:   0.40,
	adversary.DelayReorder:      0.20,
	// Quorums then need all three correct replicas; that should cost little.
	adversary.ForgeCommitRefs:  0.50,
	adversary.WithholdCarriers: 0.50,
}

// Params configures one campaign.
type Params struct {
	Seed    int64
	Scale   float64 // liveness measurement-window scale (1 = full)
	Clients int     // liveness load clients (default 10)
}

// SafetyReport is the outcome of one behavior's safety run.
type SafetyReport struct {
	Ops       int    `json:"lin_ops"`   // operations linearizability-checked
	Completed bool   `json:"completed"` // every scripted operation finished
	Frontier  int64  `json:"frontier"`  // max executed seq among correct replicas
	Agreeing  int    `json:"agreeing"`  // correct replicas agreeing at the frontier
	Violation string `json:"violation,omitempty"`

	// Attacks counts what the faulty replica actually did, proving the
	// scenario exercised its behavior rather than idling.
	Attacks adversary.Stats `json:"attacks"`
}

// Row is one behavior's campaign outcome.
type Row struct {
	Behavior  string        `json:"behavior"`
	FaultyID  int           `json:"faulty_id"`
	Safety    SafetyReport  `json:"safety"`
	Baseline  float64       `json:"baseline_ops"`
	Attacked  float64       `json:"attacked_ops"`
	Factor    float64       `json:"factor"`
	MinFactor float64       `json:"min_factor"`
	Breakdown obs.Breakdown `json:"breakdown"`

	// Events is the attacked run's merged protocol trace, kept out of the
	// JSON summary; DumpFlight writes it as a BFTTRC01 file when the row
	// fails its assertions, so a red campaign leaves the same post-mortem
	// artifact a crashed server does.
	Events []obs.Event `json:"-"`
}

// Result is a full campaign outcome.
type Result struct {
	Rows []Row `json:"rows"`
}

// scenarioFor places one faulty replica: the view-0 primary for
// equivocation (a faulty backup cannot equivocate pre-prepares), the last
// backup otherwise.
func scenarioFor(b adversary.Behavior, n int, seed int64) (*adversary.Scenario, int) {
	id := n - 1
	if b == adversary.EquivocatePrimary {
		id = 0
	}
	return &adversary.Scenario{
		Seed:   seed,
		Faulty: map[int]Config{id: {Behavior: b}},
	}, id
}

// Config re-exports adversary.Config for scenario literals.
type Config = adversary.Config

// Run executes the campaign: for each behavior, one safety run on the
// key-value cluster and one traced liveness run against a shared
// fault-free baseline. Run gathers data; Check applies the assertions.
func Run(p Params) *Result {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Clients <= 0 {
		p.Clients = 10
	}
	if p.Seed == 0 {
		p.Seed = 1
	}

	base := livenessParams(p)
	baseRes := bench.RunMicro(base)

	res := &Result{}
	for _, b := range adversary.Behaviors {
		sc, faulty := scenarioFor(b, 4, p.Seed)
		att, baseline := base, baseRes.Throughput
		if b.Piggybacked() {
			att.Opts.PiggybackCommits = true
			baseline = bench.RunMicro(att).Throughput
		}
		row := Row{
			Behavior:  b.String(),
			FaultyID:  faulty,
			MinFactor: minFactor[b],
			Baseline:  baseline,
			Safety:    safetyRun(b, p.Seed),
		}

		att.WrapReplica = sc.WrapReplica
		attRes := bench.RunMicro(att)
		row.Attacked = attRes.Throughput
		if row.Baseline > 0 {
			row.Factor = row.Attacked / row.Baseline
		}
		row.Breakdown = obs.Summarize(obs.AssembleSpans(attRes.Events), att.Warmup)
		row.Events = attRes.Events
		res.Rows = append(res.Rows, row)
	}
	return res
}

// livenessParams is the shared configuration of the baseline and every
// attacked run: a suspicion timeout short enough that deposing a faulty
// primary fits inside the measurement window. Comparing attacked
// runs against a baseline with identical settings isolates the attack's
// cost from the cost of running attack-ready.
func livenessParams(p Params) bench.MicroParams {
	mp := bench.DefaultMicroParams()
	mp.Clients = p.Clients
	mp.Seed = p.Seed
	mp.Warmup = time.Duration(float64(mp.Warmup) * p.Scale)
	mp.Measure = time.Duration(float64(mp.Measure) * p.Scale)
	// Scale the suspicion timeout with the window so deposing a faulty
	// primary fits inside shortened runs too; 50ms stays an order of
	// magnitude above fault-free operation latency at these loads.
	mp.ViewChangeTimeout = time.Duration(float64(400*time.Millisecond) * p.Scale)
	if mp.ViewChangeTimeout < 50*time.Millisecond {
		mp.ViewChangeTimeout = 50 * time.Millisecond
	}
	mp.Trace = true
	return mp
}

// checkRow applies the acceptance assertions to one behavior's row.
func checkRow(row *Row) error {
	if row.Safety.Violation != "" {
		return fmt.Errorf("campaign: behavior %s: safety violated: %s", row.Behavior, row.Safety.Violation)
	}
	if !row.Safety.Completed {
		return fmt.Errorf("campaign: behavior %s: scripted clients did not finish (liveness lost entirely)", row.Behavior)
	}
	if row.Safety.Agreeing < 2 {
		return fmt.Errorf("campaign: behavior %s: only %d correct replicas agree at the executed frontier",
			row.Behavior, row.Safety.Agreeing)
	}
	if row.Factor < row.MinFactor {
		return fmt.Errorf("campaign: behavior %s: throughput factor %.3f below floor %.2f (attacked %.0f vs baseline %.0f ops/s)",
			row.Behavior, row.Factor, row.MinFactor, row.Attacked, row.Baseline)
	}
	return nil
}

// Check applies the campaign's acceptance assertions to a Result.
func (r *Result) Check() error {
	for i := range r.Rows {
		if err := checkRow(&r.Rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// DumpFlight writes the attacked-run trace of every failing row under dir
// as flight-<behavior>.bfttrc (BFTTRC01, readable by bft-trace -decode)
// and returns the paths written. A fully green campaign writes nothing.
func (r *Result) DumpFlight(dir string) ([]string, error) {
	var paths []string
	for i := range r.Rows {
		row := &r.Rows[i]
		if checkRow(row) == nil || len(row.Events) == 0 {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("flight-%s.bfttrc", row.Behavior))
		if err := telemetry.WriteDump(path, row.Events); err != nil {
			return paths, fmt.Errorf("campaign: dumping %s trace: %w", row.Behavior, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// Tables renders the campaign as printable tables: the safety/liveness
// summary and the per-phase latency breakdown of each attacked run.
func (r *Result) Tables() []*bench.Table {
	sum := &bench.Table{
		Title:  "Adversarial campaign: safety and liveness per behavior (f=1, 4 replicas)",
		Header: []string{"behavior", "faulty", "lin_ops", "safe", "agree", "base_ops", "att_ops", "factor", "floor"},
	}
	bd := &bench.Table{
		Title:  "Adversarial campaign: attacked-run per-phase mean latency (us)",
		Header: []string{"behavior", "request", "ordering", "prepare", "commit", "execute", "reply", "total", "spans"},
	}
	for _, row := range r.Rows {
		safe := "yes"
		if row.Safety.Violation != "" {
			safe = "NO"
		}
		sum.Rows = append(sum.Rows, []string{
			row.Behavior,
			fmt.Sprint(row.FaultyID),
			fmt.Sprint(row.Safety.Ops),
			safe,
			fmt.Sprintf("%d/3", row.Safety.Agreeing),
			fmt.Sprintf("%.0f", row.Baseline),
			fmt.Sprintf("%.0f", row.Attacked),
			fmt.Sprintf("%.2f", row.Factor),
			fmt.Sprintf("%.2f", row.MinFactor),
		})
		cells := append([]string{row.Behavior}, row.Breakdown.Row()...)
		bd.Rows = append(bd.Rows, append(cells, fmt.Sprint(row.Breakdown.Count)))
	}
	return []*bench.Table{sum, bd}
}

// WriteJSON emits the machine-readable campaign summary (the CI artifact).
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ---------------------------------------------------------------------------
// Safety rig: a simulated key-value cluster with scripted concurrent
// clients feeding the linearizability checker.
// ---------------------------------------------------------------------------

const (
	safetyReplicas = 4
	safetyClients  = 3
	safetyRounds   = 8
	// timerScriptStart staggers script starts; clear of core.Client's keys.
	timerScriptStart = 1000
)

// scriptOp is one scripted client operation.
type scriptOp struct {
	key      string
	write    bool
	value    string
	readOnly bool
}

// scriptClient drives a core.Client through a fixed op sequence, recording
// each operation's real-time interval for the linearizability checker.
type scriptClient struct {
	id      int
	cl      *core.Client
	rec     *linearizability.Recorder
	env     proc.Env
	script  []scriptOp
	idx     int
	stagger time.Duration

	completed int
}

var _ proc.Handler = (*scriptClient)(nil)

func (sc *scriptClient) Init(env proc.Env) {
	sc.env = env
	sc.cl.Init(env)
	if sc.stagger > 0 {
		env.SetTimer(timerScriptStart, sc.stagger)
		return
	}
	sc.next()
}

func (sc *scriptClient) next() {
	if sc.idx >= len(sc.script) {
		return
	}
	op := sc.script[sc.idx]
	sc.idx++
	invoke := sc.env.Now()
	wire := kvservice.SetOp(op.key, op.value)
	if !op.write {
		wire = kvservice.GetOp(op.key)
	}
	sc.cl.Submit(wire, op.readOnly, func(result []byte) {
		//bftvet:allow Submit invokes the callback inside this node's own event context
		rec := linearizability.Op{Client: sc.id, Invoke: invoke, Return: sc.env.Now()}
		if op.write {
			rec.Kind = linearizability.Write
			rec.Value = op.value
		} else {
			rec.Kind = linearizability.Read
			rec.Value = string(result)
		}
		sc.rec.Record(op.key, rec)
		sc.completed++
		sc.next()
	})
}

func (sc *scriptClient) Receive(data []byte) { sc.cl.Receive(data) }

func (sc *scriptClient) OnTimer(key int) {
	if key == timerScriptStart {
		sc.next()
		return
	}
	sc.cl.OnTimer(key)
}

// scriptFor builds client j's operation sequence: interleaved writes and
// read-only reads of one contended key plus a private key. Contended-key
// traffic totals well under the checker's 63-op bound.
func scriptFor(j int) []scriptOp {
	own := fmt.Sprintf("own%d", j)
	var ops []scriptOp
	for r := 0; r < safetyRounds; r++ {
		ops = append(ops,
			scriptOp{key: "shared", write: true, value: fmt.Sprintf("c%d-%d", j, r)},
			scriptOp{key: "shared", readOnly: true},
			scriptOp{key: own, write: true, value: fmt.Sprintf("v%d", r)},
			scriptOp{key: own, readOnly: true},
		)
	}
	return ops
}

// safetyRun executes one behavior's safety scenario: a 4-replica key-value
// cluster with the behavior installed at one replica, scripted concurrent
// clients, and a post-run linearizability + state-digest audit.
func safetyRun(b adversary.Behavior, seed int64) SafetyReport {
	sc, faulty := scenarioFor(b, safetyReplicas, seed)
	s := sim.New(sim.DefaultCostModel(), seed)
	rng := rand.New(rand.NewSource(seed)) //nolint:gosec // deterministic simulation

	n := safetyReplicas
	tables := make([]*crypto.KeyTable, 0, n+safetyClients)
	for i := 0; i < n+safetyClients; i++ {
		tables = append(tables, crypto.NewKeyTable(i))
	}
	if err := crypto.ProvisionAll(rng, tables); err != nil {
		panic(fmt.Sprintf("campaign: provisioning keys: %v", err))
	}

	services := make([]*kvservice.Service, n)
	replicas := make([]*core.Replica, n)
	var attacker *adversary.Node
	for i := 0; i < n; i++ {
		i := i
		s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
			cfg := core.DefaultConfig(n, i)
			cfg.ViewChangeTimeout = 300 * time.Millisecond
			cfg.StatusInterval = 50 * time.Millisecond
			cfg.Opts.PiggybackCommits = sc.Faulty[faulty].Behavior.Piggybacked()
			services[i] = kvservice.New()
			rep, err := core.NewReplica(cfg, services[i], tables[i], m, nil)
			if err != nil {
				panic(fmt.Sprintf("campaign: replica %d: %v", i, err))
			}
			replicas[i] = rep
			h := sc.WrapReplica(i, n, rep, tables[i])
			if node, ok := h.(*adversary.Node); ok {
				attacker = node
			}
			return h
		})
	}

	rec := linearizability.NewRecorder()
	clients := make([]*scriptClient, safetyClients)
	for j := 0; j < safetyClients; j++ {
		j := j
		s.AddMeteredNode(func(m crypto.Meter) proc.Handler {
			cfg := core.ClientConfig{
				N:                 n,
				Self:              n + j,
				Opts:              core.AllOptimizations(),
				InlineThreshold:   core.DefaultConfig(n, 0).InlineThreshold,
				RetransmitTimeout: 150 * time.Millisecond,
			}
			cl, err := core.NewClient(cfg, tables[n+j], m)
			if err != nil {
				panic(fmt.Sprintf("campaign: client %d: %v", j, err))
			}
			clients[j] = &scriptClient{
				id:      j,
				cl:      cl,
				rec:     rec,
				script:  scriptFor(j),
				stagger: time.Duration(j) * 3 * time.Millisecond,
			}
			return clients[j]
		})
	}

	s.Run(12 * time.Second)

	rep := SafetyReport{Ops: rec.Ops(), Completed: true}
	if attacker != nil {
		rep.Attacks = attacker.Stats()
	}
	for _, c := range clients {
		if c.completed != len(c.script) {
			rep.Completed = false
		}
	}
	if err := rec.CheckAll(); err != nil {
		rep.Violation = err.Error()
		return rep
	}

	// Correct replicas that executed to the same frontier must hold
	// identical state. The faulty replica's state proves nothing.
	for i := 0; i < n; i++ {
		if i == faulty {
			continue
		}
		if replicas[i].LastExecuted() > rep.Frontier {
			rep.Frontier = replicas[i].LastExecuted()
		}
	}
	var frontierDigest crypto.Digest
	for i := 0; i < n; i++ {
		if i == faulty || replicas[i].LastExecuted() != rep.Frontier {
			continue
		}
		d := services[i].StateDigest()
		if rep.Agreeing == 0 {
			frontierDigest = d
		} else if d != frontierDigest {
			rep.Violation = fmt.Sprintf("correct replicas diverge at seq %d: %v vs %v", rep.Frontier, frontierDigest, d)
			return rep
		}
		rep.Agreeing++
	}
	return rep
}

// AdversarialFigure4 is the Figure-4-style adversarial column: 4/0
// read-write throughput vs client count, fault-free and under two
// sustained attacks at one faulty backup (garbage flooding and
// delay/reorder). Equivocation is omitted from the sweep — it converts
// the run into one view change and measures recovery, not throughput.
func AdversarialFigure4(clients []int, scale float64) *bench.Table {
	t := &bench.Table{
		Title:  "Figure 4 (adversarial): 4/0 read-write throughput under attack, f=1",
		Header: []string{"clients", "faultfree_ops", "flood_ops", "delay_ops", "flood_factor", "delay_factor"},
	}
	for i, c := range clients {
		p := Params{Seed: int64(i + 1), Scale: scale, Clients: c}
		base := livenessParams(p)
		base.ArgBytes = 4096
		base.Trace = false
		ff := bench.RunMicro(base)

		row := []string{fmt.Sprint(c), fmt.Sprintf("%.0f", ff.Throughput)}
		var factors []string
		for _, b := range []adversary.Behavior{adversary.FloodGarbage, adversary.DelayReorder} {
			sc, _ := scenarioFor(b, 4, p.Seed)
			att := base
			att.WrapReplica = sc.WrapReplica
			res := bench.RunMicro(att)
			row = append(row, fmt.Sprintf("%.0f", res.Throughput))
			f := 0.0
			if ff.Throughput > 0 {
				f = res.Throughput / ff.Throughput
			}
			factors = append(factors, fmt.Sprintf("%.2f", f))
		}
		t.Rows = append(t.Rows, append(row, factors...))
	}
	return t
}
