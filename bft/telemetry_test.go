package bft_test

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bftfast/bft"
	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
)

func scrape(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestReplicaTelemetry runs a group with one replica serving telemetry,
// executes operations, and checks the scrape carries live engine, phase,
// transport, and process series with the right labels.
func TestReplicaTelemetry(t *testing.T) {
	client, replicas, cleanup := startCluster(t, 4, []int{100})
	defer cleanup()

	addr, err := replicas[0].ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTelemetry: %v", err)
	}
	if got := replicas[0].TelemetryAddr(); got != addr {
		t.Errorf("TelemetryAddr = %q, want %q", got, addr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const ops = 8
	for i := 0; i < ops; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}

	code, body := scrape(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	series := map[string]float64{}
	for _, s := range samples {
		if s.Label("quantile") != "" {
			continue
		}
		series[s.Name] = s.Value
		if s.Label("node") != "0" || s.Label("role") != "replica" {
			t.Fatalf("%s: labels %v, want node=0 role=replica", s.Name, s.Labels)
		}
	}
	if len(series) < 20 {
		t.Errorf("scrape has %d series, want >= 20:\n%s", len(series), body)
	}
	if got := series["bft_engine_executed_requests"]; got < ops {
		t.Errorf("executed_requests = %v, want >= %d", got, ops)
	}
	for _, name := range phaseNames {
		prom := "bft_" + strings.ReplaceAll(name, ".", "_") + "_count"
		if got := series[prom]; got < 1 {
			t.Errorf("%s = %v, want >= 1 (phase histograms not fed)", prom, got)
		}
	}
	// The end-to-end benchmark reads the phase medians from replica 1.
	waitPhaseSamples(t, replicas[1])
	for _, name := range []string{"bft_transport_inbox_drops", "bft_transport_inbox_depth",
		"bft_proc_goroutines", "bft_proc_heap_bytes", "bft_engine_view",
		"bft_engine_checkpoint_retained", "bft_engine_checkpoint_materialized",
		"bft_engine_commits_piggybacked", "bft_engine_commits_standalone",
		"bft_engine_commits_flush_held_read", "bft_engine_commits_flush_peer_commit",
		"bft_engine_commits_flush_window", "bft_engine_commits_flush_timer"} {
		if _, ok := series[name]; !ok {
			t.Errorf("series %s missing from scrape", name)
		}
	}

	code, body = scrape(t, addr, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d: %s", code, body)
	}
	for _, want := range []string{`"role": "replica"`, `"last_executed"`, `"peers"`,
		`"checkpoints_retained": 1`, `"checkpoints_materialized": 0`, `"commits": {`, `"flush_timer"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/statusz missing %s:\n%s", want, body)
		}
	}
	if code, _ := scrape(t, addr, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz status %d", code)
	}
	// No flight recorder configured: the endpoint must not exist.
	if code, _ := scrape(t, addr, "/flight"); code != http.StatusNotFound {
		t.Errorf("/flight without recorder: status %d, want 404", code)
	}

	hc := replicas[0].HostStats()
	if hc.InboxDrops != 0 {
		t.Errorf("InboxDrops = %d on an idle channel network", hc.InboxDrops)
	}
}

// phaseNames are the live phase histograms every replica exposes.
var phaseNames = []string{"phase.prepare_ns", "phase.commit_ns", "phase.execute_ns"}

// waitPhaseSamples waits until each of r's phase histograms holds a sample;
// a batch's commit may trail its reply by one flush of held commits.
func waitPhaseSamples(t *testing.T, r *bft.Replica) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ms, err := r.MetricsSnapshot()
		if err != nil {
			t.Fatalf("MetricsSnapshot: %v", err)
		}
		counts := map[string]int64{}
		for _, m := range ms {
			counts[m.Name] = m.Count
		}
		missing := ""
		for _, name := range phaseNames {
			if counts[name] < 1 {
				missing = name
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s has no samples", missing)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPhaseHistogramsWithAndWithoutFlightRing starts replica 0 with a
// caller-supplied trace ring and the others without one. Every replica's
// phase histograms must fill either way, and the flight recorder must stay
// exactly as configured: events from replica 0, "disabled" from the rest.
func TestPhaseHistogramsWithAndWithoutFlightRing(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(4)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	var replicas []*bft.Replica
	for i := 0; i < 4; i++ {
		cfg := bft.DefaultConfig(4, i)
		if i == 0 {
			cfg.Trace = bft.NewTraceRecorder(i, 1024)
		}
		r, err := bft.StartReplica(cfg, &counterSM{}, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}

	for _, r := range replicas[:2] {
		waitPhaseSamples(t, r)
	}
	if evs, err := replicas[0].FlightEvents(); err != nil || len(evs) == 0 {
		t.Errorf("replica 0 FlightEvents = %d events, %v; want events from its ring", len(evs), err)
	}
	if _, err := replicas[1].FlightEvents(); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Errorf("replica 1 FlightEvents error = %v, want flight recorder disabled", err)
	}
}

// TestReplicaFlightDump drives a traced replica, dumps its flight ring,
// and decodes the BFTTRC01 file.
func TestReplicaFlightDump(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(2)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	var replicas []*bft.Replica
	for i := 0; i < 4; i++ {
		cfg := bft.DefaultConfig(4, i)
		cfg.Trace = bft.NewTraceRecorder(i, 1024)
		r, err := bft.StartReplica(cfg, &counterSM{}, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}

	path := filepath.Join(t.TempDir(), "flight.bfttrc")
	replicas[0].SetFlightDump(path)
	got, err := replicas[0].DumpFlight()
	if err != nil {
		t.Fatalf("DumpFlight: %v", err)
	}
	file, err := os.Open(got)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	events, err := obs.ReadTrace(file)
	if err != nil {
		t.Fatalf("decoding flight dump: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("flight dump is empty after committed operations")
	}

	// The /flight endpoint must stream the same ring.
	addr, err := replicas[0].ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	code, body := scrape(t, addr, "/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight status %d", code)
	}
	streamed, err := obs.ReadTrace(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("decoding /flight stream: %v", err)
	}
	if len(streamed) < len(events) {
		t.Errorf("/flight returned %d events, dump had %d", len(streamed), len(events))
	}
}

// TestReplicaCloseOrdering is the shutdown-ordering regression test: Close
// must stop the telemetry server and flush the flight recorder before the
// node stops serving Node.Do, so the endpoint disappears cleanly (no
// scrape against a dead node) and the dump file exists afterwards. A
// second Close must be harmless.
func TestReplicaCloseOrdering(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(3)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	var replicas []*bft.Replica
	for i := 0; i < 4; i++ {
		cfg := bft.DefaultConfig(4, i)
		cfg.Trace = bft.NewTraceRecorder(i, 256)
		r, err := bft.StartReplica(cfg, &counterSM{}, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
		t.Fatalf("invoke: %v", err)
	}

	path := filepath.Join(t.TempDir(), "final.bfttrc")
	replicas[0].SetFlightDump(path)
	addr, err := replicas[0].ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client.Close()
	done := make(chan struct{})
	go func() {
		for _, r := range replicas {
			r.Close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked")
	}

	// The endpoint is gone, not serving errors.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("telemetry endpoint still reachable after Close")
	}
	// The final flush ran while the node still answered Node.Do.
	file, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight ring not flushed on Close: %v", err)
	}
	defer file.Close()
	events, err := obs.ReadTrace(file)
	if err != nil {
		t.Fatalf("decoding close-time dump: %v", err)
	}
	if len(events) == 0 {
		t.Error("close-time dump is empty")
	}

	replicas[0].Close() // idempotent

	// Snapshot calls after Close fail rather than hang.
	if _, err := replicas[0].MetricsSnapshot(); err == nil {
		t.Error("MetricsSnapshot after Close succeeded, want error")
	}
}

// TestClientTelemetry checks the client-side endpoint serves its counters.
func TestClientTelemetry(t *testing.T) {
	client, _, cleanup := startCluster(t, 4, []int{100})
	defer cleanup()

	addr, err := client.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTelemetry: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	}
	code, body := scrape(t, addr, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	samples, err := telemetry.ParsePrometheus(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parsing scrape: %v", err)
	}
	for _, s := range samples {
		if s.Name == "bft_client_completed" {
			if s.Value < 3 || s.Label("role") != "client" || s.Label("node") != "100" {
				t.Errorf("bad client sample %+v", s)
			}
			return
		}
	}
	t.Fatalf("bft_client_completed missing:\n%s", body)
}

// gatedSM is a counterSM whose Execute waits for the test, which stalls
// the replica's engine the way a slow service would.
type gatedSM struct {
	counterSM
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedSM) Execute(client int32, op []byte, readOnly bool) []byte {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.counterSM.Execute(client, op, readOnly)
}

// TestHostStatsCountsMailboxOverflow stalls one replica inside its service
// and overfills its channel-network mailbox: the overflow must be dropped
// and show up as HostStats().InboxDrops, the counter that outlived the
// event-loop inbox it used to describe.
func TestHostStatsCountsMailboxOverflow(t *testing.T) {
	net := bft.NewChannelNetwork()
	rings := bft.NewKeyrings([]int{0, 1, 2, 3, 100})
	if err := bft.Provision(rand.New(rand.NewSource(5)), rings); err != nil { //nolint:gosec
		t.Fatal(err)
	}
	stalled := &gatedSM{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	var replicas []*bft.Replica
	for i := 0; i < 4; i++ {
		var sm bft.StateMachine = &counterSM{}
		if i == 3 {
			sm = stalled
		}
		r, err := bft.StartReplica(bft.DefaultConfig(4, i), sm, rings[i], net)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		replicas = append(replicas, r)
	}
	client, err := bft.StartClient(bft.NewClientConfig(4, 100), rings[4], net)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	defer close(stalled.gate) // before the Closes above: a stalled engine holds its lock

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.Invoke(ctx, []byte("inc"), false); err != nil {
		t.Fatalf("invoke with one replica stalled: %v", err)
	}
	select {
	case <-stalled.entered:
	case <-ctx.Done():
		t.Fatal("replica 3 never reached Execute")
	}

	const slots, extra = 4096, 25
	for i := 0; i < slots+extra; i++ {
		net.Send(100, 3, []byte{0xee})
	}
	if got := replicas[3].HostStats().InboxDrops; got < extra {
		t.Fatalf("InboxDrops = %d after overfilling the mailbox by %d", got, extra)
	}
	if got := replicas[0].HostStats().InboxDrops; got != 0 {
		t.Fatalf("InboxDrops = %d on a replica nobody flooded", got)
	}
}
