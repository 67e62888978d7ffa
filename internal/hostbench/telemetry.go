package hostbench

import (
	"bytes"
	"testing"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
)

// BenchPhaseTrackerObserve measures one full ordering-phase observation
// cycle — pre-prepare mark plus prepared/committed/executed histogram
// observations, each a Record on a ring-less recorder with phase
// histograms attached — the per-batch cost a replica pays with live
// telemetry enabled.
func BenchPhaseTrackerObserve(b *testing.B) {
	rec := obs.NewRecorder(0, 0)
	rec.TrackPhases(obs.NewRegistry(), "phase.")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, at := int64(i+1), time.Duration(i)*time.Microsecond
		rec.Record(at, obs.EvPrePrepareRecv, seq, 0, 0)
		rec.Record(at+10*time.Microsecond, obs.EvPrepared, seq, 0, 0)
		rec.Record(at+30*time.Microsecond, obs.EvCommitted, seq, 0, 0)
		rec.Record(at+40*time.Microsecond, obs.EvExecuted, seq, 0, 1)
	}
	sink = rec.Len()
}

// recordBatch records one batch's four phase boundaries, as a replica's
// trace hook would, starting at the pre-prepare instant at.
func recordBatch(rec *obs.Recorder, seq int64, at time.Duration) {
	rec.Record(at, obs.EvPrePrepareRecv, seq, 0, 0)
	rec.Record(at+10*time.Microsecond, obs.EvPrepared, seq, 0, 0)
	rec.Record(at+30*time.Microsecond, obs.EvCommitted, seq, 0, 0)
	rec.Record(at+40*time.Microsecond, obs.EvExecuted, seq, 0, 1)
}

// telemetryRegistry builds a registry shaped like a live replica's:
// engine gauges, transport gauges, and phase histograms with samples.
func telemetryRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(0, 0)
	rec.TrackPhases(reg, "phase.")
	for seq := int64(1); seq <= 256; seq++ {
		recordBatch(rec, seq, time.Duration(seq)*time.Microsecond)
	}
	for _, name := range []string{
		"engine.executed_requests", "engine.executed_batches", "engine.view",
		"engine.last_executed", "engine.last_stable", "engine.view_changes",
		"transport.inbox_drops", "transport.inbox_depth",
		"udp.oversized",
		"proc.goroutines", "proc.heap_bytes", "proc.uptime_seconds",
	} {
		v := int64(len(name))
		reg.GaugeFunc(name, func() int64 { return v })
	}
	return reg
}

// BenchPrometheusRender measures one /metrics scrape: a registry
// snapshot plus the Prometheus text render, at a live replica's series
// count.
func BenchPrometheusRender(b *testing.B) {
	reg := telemetryRegistry()
	labels := map[string]string{"node": "0", "role": "replica"}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := telemetry.WritePrometheus(&buf, "bft", labels, reg.Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
	sink = buf.Len()
}
