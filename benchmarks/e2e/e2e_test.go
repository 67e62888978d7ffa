package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime/pprof"
	"sync"
	"testing"
	"time"
)

// runShort runs w through the real group with a short window and checks that
// operations complete, every reply checks out, and the end-of-run invariants
// hold.
func runShort(t *testing.T, w workload, window time.Duration) outcome {
	m, err := runWorkload(w, 42, plan{window: window, warmup: 50 * time.Millisecond, setups: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	o := m.summarize()
	if o.Attempted == 0 || o.Failed != 0 || !o.Correct {
		t.Fatalf("attempted %d, failed %d, correct %t, problems %v", o.Attempted, o.Failed, o.Correct, o.Problems)
	}
	for _, d := range endToEnd {
		if v, ok := o.Metrics[d.Name]; !ok || v <= 0 {
			t.Errorf("%s = %v, want a positive value", d.Name, v)
		}
	}
	return o
}

func TestFaultFreeWorkloadsComplete(t *testing.T) {
	for _, w := range workloads {
		if !w.fault {
			t.Run(w.name, func(t *testing.T) { runShort(t, w, 300*time.Millisecond) })
		}
	}
}

// TestFailoverCountsEveryDueOperation closes the primary a third into a
// window the view change (500 ms timeout) outlasts: every operation on the
// schedule is still attempted and completes. It sleeps most of its time, so
// it runs beside the traced test.
func TestFailoverCountsEveryDueOperation(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("failover-udp")
	const window = time.Second
	o := runShort(t, w, window)
	due := float64(w.clients) * float64(window) / float64(w.period)
	if math.Abs(float64(o.Attempted)-due) > float64(w.clients) {
		t.Errorf("attempted %d of about %.0f operations due", o.Attempted, due)
	}
}

// TestStallMovesEndToEndFigures pins the end-to-end figures to the whole
// window: a closed loop at 1000 ops/s that stands still for 3 of its 10
// seconds reports 700 ops/s and the CPU of all 10 seconds.
func TestStallMovesEndToEndFigures(t *testing.T) {
	m := &measured{w: workloads[0], setups: []float64{0.002}}
	m.after.at = 10e9
	m.after.cpu = 7 * time.Second
	for at := int64(0); at < 10e9; at += 1e6 {
		s := sample{due: at, start: at, end: at + 1e6, ok: true}
		if at == 4e9 {
			s.end = 7e9
			at = 7e9 - 1e6
		}
		m.samples = append(m.samples, s)
	}
	o := m.summarize()
	if got := o.Metrics["ops_per_s"]; math.Abs(got-700) > 1 {
		t.Errorf("ops_per_s = %.1f, want 700", got)
	}
	if got := o.Metrics["cpu_us_per_op"]; math.Abs(got-1000) > 2 {
		t.Errorf("cpu_us_per_op = %.1f, want 1000", got)
	}
	if o.Attempted != 7001 || o.Failed != 0 {
		t.Errorf("attempted %d, failed %d, want 7001 and 0", o.Attempted, o.Failed)
	}
}

// TestTracedPassReportsEveryLayerMetric checks the traced pass end to end on
// the one workload whose service has state: every per-layer metric is
// present, the budget rows sum to the measured CPU per operation, snapshots
// were timed, and the span file is valid JSON.
func TestTracedPassReportsEveryLayerMetric(t *testing.T) {
	t.Parallel()
	w, _ := findWorkload("kv-mixed-udp")
	m, err := runWorkload(w, 7, plan{window: 600 * time.Millisecond, warmup: 50 * time.Millisecond, setups: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	o := m.summarize()
	if !o.Correct {
		t.Fatalf("incorrect: failed %d, problems %v", o.Failed, o.Problems)
	}
	for _, d := range perLayer {
		if _, ok := o.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
	var sum float64
	for _, l := range layers {
		sum += o.Metrics[cpuMetric(l)]
	}
	if total := o.Metrics["trace.cpu_us_per_op"]; math.Abs(sum-total) > 0.02*total {
		t.Errorf("budget rows sum to %.2f, measured %.2f", sum, total)
	}
	if o.Metrics["service.snapshot_us_per_op"] <= 0 || o.Metrics["service.executes_per_op"] < 3 {
		t.Errorf("service shim saw snapshot %.3f us/op, %.2f executes/op", o.Metrics["service.snapshot_us_per_op"], o.Metrics["service.executes_per_op"])
	}
	path, err := m.writeTrace(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	parented := 0
	for _, e := range doc.TraceEvents {
		if e.Name == "execute" && e.Args.Parent > 1 {
			parented++
		}
	}
	if len(doc.TraceEvents) < 100 || parented == 0 {
		t.Errorf("%d spans, %d executes parented to an operation", len(doc.TraceEvents), parented)
	}
}

// captureNet is a bft.Network that keeps what it is handed.
type captureNet struct {
	mu   sync.Mutex
	sent [][]byte
	recv map[int]func([]byte)
}

func (c *captureNet) Send(src, dst int, data []byte) {
	c.mu.Lock()
	c.sent = append(c.sent, data)
	c.mu.Unlock()
}
func (c *captureNet) Register(id int, recv func([]byte)) error { c.recv[id] = recv; return nil }
func (c *captureNet) Unregister(id int)                        { delete(c.recv, id) }

func TestTracedNetworkCountsAndForwardsUntouched(t *testing.T) {
	inner := &captureNet{recv: make(map[int]func([]byte))}
	rec := newRecorder(time.Now())
	rec.counting.Store(true)
	rec.spanning.Store(true)
	nw := &tracedNetwork{inner: inner, rec: rec}

	var got []byte
	if err := nw.Register(1, func(b []byte) { got = b }); err != nil {
		t.Fatal(err)
	}
	// One datagram of every tag byte, including unknown ones and an empty one.
	var want [][]byte
	for tag := 0; tag < 40; tag++ {
		want = append(want, []byte{byte(tag), 0xaa, byte(tag)})
	}
	want = append(want, []byte{})
	for i, b := range want {
		nw.Send(i%4, clientBase, b)
	}
	if len(inner.sent) != len(want) {
		t.Fatalf("forwarded %d datagrams, want %d", len(inner.sent), len(want))
	}
	for i := range want {
		if !bytes.Equal(inner.sent[i], want[i]) || (len(want[i]) > 0 && &inner.sent[i][0] != &want[i][0]) {
			t.Fatalf("datagram %d was not forwarded as the same buffer", i)
		}
	}
	var total, byKind, spans int64
	rec.each(func(_ int, n *nodeRecord) {
		total += n.send.n
		for _, c := range n.sentByKind {
			byKind += c
		}
		spans += int64(len(n.spans))
	})
	if total != int64(len(want)) || byKind != total || spans != total {
		t.Fatalf("sends %d, per-kind sum %d, spans %d, want all %d", total, byKind, spans, len(want))
	}
	if k := msgKinds[msgKind([]byte{4})]; k != "prepare" {
		t.Errorf("tag 4 counted as %q", k)
	}

	payload := []byte{9, 9, 9}
	inner.recv[1](payload)
	if len(got) == 0 || &got[0] != &payload[0] {
		t.Error("receive callback did not get the delivered buffer")
	}
	if n := rec.node(1).deliver.n; n != 1 {
		t.Errorf("delivered = %d, want 1", n)
	}
}

var hashSink [32]byte

// TestProfileAttribution profiles a loop that only hashes and checks that
// the decoder charges it to crypto and that the shares add up.
func TestProfileAttribution(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	buf := make([]byte, 4096)
	for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 100; i++ {
			hashSink = sha256.Sum256(buf)
		}
	}
	pprof.StopCPUProfile()
	a, err := attributeProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.totalNs == 0 {
		t.Skip("profile has no samples")
	}
	var sum float64
	for _, l := range layers {
		sum += a.share(l)
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("shares sum to %.4f", sum)
	}
	if a.share("crypto") < 0.8 {
		t.Errorf("crypto share %.2f of a hashing loop; by layer: %v", a.share("crypto"), a.byLayer)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bftfast/internal/core.(*Replica).onPrepare.func1":   "core",
		"bftfast/internal/message.(*Decoder).take":           "message",
		"crypto/internal/fips140/sha256.blockSHANI":          "crypto",
		"bftfast/internal/crypto.(*macState).compute":        "crypto",
		"bftfast/internal/transport.(*Node).loop":            "transport",
		"internal/runtime/syscall.Syscall6":                  "syscall",
		"internal/poll.(*FD).WriteToInet4":                   "syscall",
		"internal/runtime/syscall.EpollWait":                 "runtime.sched",
		"runtime.mallocgcSmallNoscan":                        "runtime.mem",
		"runtime.(*mspan).base":                              "runtime.mem",
		"runtime.selectgo":                                   "runtime.sched",
		"internal/runtime/maps.(*Iter).Next":                 "runtime.sched",
		"bftfast/internal/kvservice.(*Service).Snapshot":     "service",
		"bftfast/internal/obs/telemetry.(*Server).serve":     "obs",
		"bftfast/benchmarks/e2e.(*client).drive":             "bench",
		"main.(*client).drive":                               "bench",
		"sort.Strings":                                       "other",
		"sync.(*Mutex).Lock":                                 "other",
		"bftfast/internal/verifypool.(*Pool).Submit":         "verifypool",
		"bftfast/internal/simpleservice.Service.Execute":     "service",
		"net.(*UDPConn).WriteToUDP":                          "syscall",
		"runtime.memmove":                                    "runtime.mem",
		"hash/crc32.Update":                                  "crypto",
		"bftfast/internal/obs.(*PhaseTracker).ObservePhases": "obs",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	// Nearest rank: exactly ten samples lie beyond p99 of a thousand.
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 = %d, want 990", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([7, 1, 3, 10, 4, 8, 2, 9, 5, 6], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{7, 1, 3, 10, 4, 8, 2, 9, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{7, 1, 3, 10, 4, 8, 2, 9, 5, 6}); s != 1 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for v := int64(0); v < 100_000; v++ {
		h.observe(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := float64(h.quantile(q)), q*100_000
		if got < want || got > want*1.13 {
			t.Errorf("quantile(%g) = %g, want within one bucket above %g", q, got, want)
		}
	}
	for v := int64(0); v < 1<<40; v = v*3 + 1 {
		if up := histUpper(histBucket(v)); up < v || (v >= histSub && float64(up) > float64(v)*1.13) {
			t.Errorf("value %d lands in a bucket ending at %d", v, up)
		}
	}
}

func TestVerdict(t *testing.T) {
	ops := endToEnd[0] // higher is better
	lat := endToEnd[1] // lower is better
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v} }
	for _, tc := range []struct {
		d        metricDef
		old, new []float64
		want     string
	}{
		{ops, steady(100), steady(100 * (1 - ops.Bound - 0.05)), "worse"},
		{ops, steady(100), steady(100 * (1 + ops.Bound + 0.05)), "better"},
		{ops, steady(100), steady(101), "within-bound"},
		{lat, steady(100), steady(100 * (1 + lat.Bound + 0.05)), "worse"},
		{lat, steady(100), steady(100 * (1 - lat.Bound - 0.05)), "better"},
		{lat, steady(100), []float64{50, 100, 150, 200, 250}, "unresolved"},
	} {
		if _, got := verdict(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.old, tc.new, got, tc.want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the program's tables")

// TestManifestMatchesTables keeps BENCHMARK.json, which the driver reads,
// equal to what the program reports.
func TestManifestMatchesTables(t *testing.T) {
	const path = "../../BENCHMARK.json"
	var got bytes.Buffer
	if err := writeManifest(&got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with go test -run TestManifestMatchesTables -update")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the manifest allows 200", w.name, len(w.why))
		}
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the manifest allows 128", n)
	}
}
