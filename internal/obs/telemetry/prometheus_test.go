package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"bftfast/internal/obs"
)

// TestWritePrometheusGolden pins the exposition format byte-for-byte:
// TYPE lines, summary quantile series, _sum/_count/_max, constant-label
// rendering, name sanitization, and label-value escaping.
func TestWritePrometheusGolden(t *testing.T) {
	ms := []obs.Metric{
		{Name: "engine.executed_requests", Kind: obs.KindGauge, Value: 42},
		{Name: "engine.view", Kind: obs.KindGauge, Value: 3},
		{Name: "phase.execute_ns", Kind: obs.KindHistogram,
			Count: 10, Sum: 5000, P50: 400, P90: 800, P99: 950, Max: 1000},
	}
	labels := map[string]string{
		"node": "0",
		"path": `C:\run "q"` + "\nx", // exercises all three escapes
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "bft", labels, ms); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := strings.Join([]string{
		`# TYPE bft_engine_executed_requests gauge`,
		`bft_engine_executed_requests{node="0",path="C:\\run \"q\"\nx"} 42`,
		`# TYPE bft_engine_view gauge`,
		`bft_engine_view{node="0",path="C:\\run \"q\"\nx"} 3`,
		`# TYPE bft_phase_execute_ns summary`,
		`bft_phase_execute_ns{node="0",path="C:\\run \"q\"\nx",quantile="0.5"} 400`,
		`bft_phase_execute_ns{node="0",path="C:\\run \"q\"\nx",quantile="0.9"} 800`,
		`bft_phase_execute_ns{node="0",path="C:\\run \"q\"\nx",quantile="0.99"} 950`,
		`bft_phase_execute_ns_sum{node="0",path="C:\\run \"q\"\nx"} 5000`,
		`bft_phase_execute_ns_count{node="0",path="C:\\run \"q\"\nx"} 10`,
		`# TYPE bft_phase_execute_ns_max gauge`,
		`bft_phase_execute_ns_max{node="0",path="C:\\run \"q\"\nx"} 1000`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusNoLabels(t *testing.T) {
	var buf bytes.Buffer
	err := WritePrometheus(&buf, "bft", nil, []obs.Metric{
		{Name: "udp.oversized", Kind: obs.KindGauge, Value: 7},
	})
	if err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := "# TYPE bft_udp_oversized gauge\nbft_udp_oversized 7\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := []struct{ namespace, in, want string }{
		{"bft", "engine.view", "bft_engine_view"},
		{"bft", "verify pool-depth", "bft_verify_pool_depth"},
		{"", "9lives", "_9lives"},
		{"", "a:b_c", "a:b_c"},
	}
	for _, c := range cases {
		if got := sanitizeName(c.namespace, c.in); got != c.want {
			t.Errorf("sanitizeName(%q, %q) = %q, want %q", c.namespace, c.in, got, c.want)
		}
	}
}

// TestParseRoundTrip feeds the encoder's output back through the parser
// — the exact path bft-top uses against a live /metrics endpoint.
func TestParseRoundTrip(t *testing.T) {
	ms := []obs.Metric{
		{Name: "engine.executed_requests", Kind: obs.KindGauge, Value: 42},
		{Name: "phase.execute_ns", Kind: obs.KindHistogram,
			Count: 4, Sum: 100, P50: 20, P90: 40, P99: 48, Max: 50},
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "bft", map[string]string{"node": "2"}, ms); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	samples, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Name+"|q="+s.Label("quantile")] = s.Value
		if got := s.Label("node"); got != "2" {
			t.Errorf("%s: node label = %q, want 2", s.Name, got)
		}
	}
	checks := map[string]float64{
		"bft_engine_executed_requests|q=": 42,
		"bft_phase_execute_ns|q=0.5":      20,
		"bft_phase_execute_ns|q=0.99":     48,
		"bft_phase_execute_ns_sum|q=":     100,
		"bft_phase_execute_ns_count|q=":   4,
		"bft_phase_execute_ns_max|q=":     50,
	}
	for k, want := range checks {
		if got, ok := byKey[k]; !ok || got != want {
			t.Errorf("sample %s = %v (present %v), want %v", k, got, ok, want)
		}
	}
}

func TestParsePrometheusEscapesAndTimestamps(t *testing.T) {
	in := `# HELP x y
metric_a{k="a\\b\"c\nd"} 1.5 1700000000000
metric_b 2
`
	samples, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2", len(samples))
	}
	if got := samples[0].Label("k"); got != "a\\b\"c\nd" {
		t.Errorf("escaped label = %q", got)
	}
	if samples[0].Value != 1.5 || samples[1].Value != 2 {
		t.Errorf("values = %v, %v", samples[0].Value, samples[1].Value)
	}
}

func TestParsePrometheusMalformed(t *testing.T) {
	for _, in := range []string{"noval\n", "m{k=\"v} 1\n", "m{k=1} 2\n", "m notanumber\n"} {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePrometheus(%q) succeeded, want error", in)
		}
	}
}
