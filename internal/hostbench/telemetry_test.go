package hostbench

import (
	"bytes"
	"testing"
	"time"

	"bftfast/internal/obs"
	"bftfast/internal/obs/telemetry"
)

// TestPhaseHookAllocs pins the phase histograms to the same contract as
// the trace hooks: a recorder with phases attached still records with zero
// heap allocations, both ring-less (a host replica without a flight ring)
// and beside a wrapping ring, including across phase-slot eviction, the
// steady state of a long run.
func TestPhaseHookAllocs(t *testing.T) {
	for _, capacity := range []int{0, 64} {
		rec := obs.NewRecorder(0, capacity)
		rec.TrackPhases(obs.NewRegistry(), "phase.")
		seq := int64(0)
		if got := allocs(func() {
			// Stride past the slot-ring size so eviction accounting runs too.
			seq += 257
			recordBatch(rec, seq, time.Duration(seq)*time.Microsecond)
		}); got != 0 {
			t.Errorf("Record with phases, capacity %d: %v allocs/op, want 0", capacity, got)
		}
	}
}

// TestScrapeAllocsBounded bounds the cold path: one full /metrics scrape
// (registry snapshot plus Prometheus render) of a replica-shaped registry
// must stay within a fixed allocation budget, so a tight scrape loop
// cannot become a GC problem for the replica host.
func TestScrapeAllocsBounded(t *testing.T) {
	reg := telemetryRegistry()
	labels := map[string]string{"node": "0", "role": "replica"}
	var buf bytes.Buffer
	got := allocs(func() {
		buf.Reset()
		if err := telemetry.WritePrometheus(&buf, "bft", labels, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
	})
	// ~25 series render in well under 300 allocations today; 1000 leaves
	// headroom while still catching accidental per-sample blowups.
	if got > 1000 {
		t.Errorf("scrape path: %v allocs/op, want <= 1000", got)
	}
	if buf.Len() == 0 {
		t.Fatal("scrape rendered nothing")
	}
}
