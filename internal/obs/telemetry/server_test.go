package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"bftfast/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.GaugeFunc("engine.executed_requests", func() int64 { return 5 })
	events := []obs.Event{
		{At: time.Millisecond, Kind: obs.EvExecuted, Seq: 1, Node: 0},
		{At: 2 * time.Millisecond, Kind: obs.EvExecuted, Seq: 2, Node: 0},
	}
	srv, err := Serve(Options{
		Addr:   "127.0.0.1:0",
		Labels: map[string]string{"node": "0", "role": "replica"},
		Snapshot: func() ([]obs.Metric, error) {
			return reg.Snapshot(), nil
		},
		Status: func() (Status, error) {
			return Status{Node: 0, Role: "replica", View: 2, LastExecuted: 9, LastStable: 8}, nil
		},
		FlightEvents: func() ([]obs.Event, error) { return events, nil },
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", code, body)
	}
	samples, err := ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	found := false
	for _, s := range samples {
		if s.Name == "bft_engine_executed_requests" {
			found = true
			if s.Value != 5 || s.Label("node") != "0" || s.Label("role") != "replica" {
				t.Errorf("bad sample %+v", s)
			}
		}
	}
	if !found {
		t.Errorf("bft_engine_executed_requests missing from scrape:\n%s", body)
	}

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, body = get(t, base+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statusz decode: %v\n%s", err, body)
	}
	if st.View != 2 || st.LastExecuted != 9 || st.LastStable != 8 {
		t.Errorf("statusz = %+v", st)
	}

	code, body = get(t, base+"/flight")
	if code != http.StatusOK {
		t.Fatalf("/flight status %d", code)
	}
	got, err := obs.ReadTrace(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("decoding /flight dump: %v", err)
	}
	if len(got) != 2 || got[1].Seq != 2 {
		t.Errorf("flight events = %+v", got)
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// TestServerClosedNode covers the shutdown ordering contract: once the
// node behind the closures is gone the endpoints degrade to 503 rather
// than hanging or panicking.
func TestServerClosedNode(t *testing.T) {
	down := errors.New("node closed")
	srv, err := Serve(Options{
		Addr:     "127.0.0.1:0",
		Snapshot: func() ([]obs.Metric, error) { return nil, down },
		Status:   func() (Status, error) { return Status{}, down },
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/metrics", "/healthz", "/statusz"} {
		if code, _ := get(t, base+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s status %d, want 503", path, code)
		}
	}
	if code, _ := get(t, base+"/flight"); code != http.StatusNotFound {
		t.Errorf("/flight with nil source: status %d, want 404", code)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve(Options{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	srv.Close() // second close must not panic or hang
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Errorf("server still reachable after Close")
	}
}
