package obs

import (
	"testing"
	"time"
)

// phased returns a ring-less recorder feeding phase histograms in a fresh
// registry under prefix.
func phased(prefix string) (*Recorder, *Registry) {
	reg := NewRegistry()
	rec := NewRecorder(0, 0)
	rec.TrackPhases(reg, prefix)
	return rec, reg
}

func TestPhaseTrackerObserves(t *testing.T) {
	rec, reg := phased("phase.")

	for seq := int64(1); seq <= 10; seq++ {
		base := time.Duration(seq) * time.Millisecond
		rec.Record(base, EvPrePrepareRecv, seq, 0, 0)
		rec.Record(base+50*time.Microsecond, EvRequestIn, 0, 1, seq) // not a phase boundary
		rec.Record(base+100*time.Microsecond, EvPrepared, seq, 0, 0)
		rec.Record(base+300*time.Microsecond, EvCommitted, seq, 0, 0)
		rec.Record(base+400*time.Microsecond, EvExecuted, seq, 0, 1)
	}

	for _, name := range []string{"phase.prepare_ns", "phase.commit_ns", "phase.execute_ns"} {
		m, ok := reg.Get(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		if m.Kind != KindHistogram || m.Count != 10 {
			t.Errorf("%s: kind=%v count=%d, want histogram with 10 samples", name, m.Kind, m.Count)
		}
	}
	prep, _ := reg.Get("phase.prepare_ns")
	exec, _ := reg.Get("phase.execute_ns")
	if prep.P50 >= exec.P50 {
		t.Errorf("prepare P50 %d should be below execute P50 %d", prep.P50, exec.P50)
	}
	if missed, _ := reg.Get("phase.missed"); missed.Value != 0 {
		t.Errorf("missed = %d, want 0", missed.Value)
	}
}

func TestPhaseTrackerRemarkKeepsFirstInstant(t *testing.T) {
	rec, reg := phased("p.")
	rec.Record(1*time.Millisecond, EvPrePrepareSent, 7, 0, 0)
	rec.Record(5*time.Millisecond, EvPrePrepareSent, 7, 1, 0) // view-change reissue must not move the start
	rec.Record(2*time.Millisecond, EvPrepared, 7, 0, 0)
	m, _ := reg.Get("p.prepare_ns")
	if m.Count != 1 || m.Max != int64(time.Millisecond) {
		t.Errorf("prepare hist count=%d max=%d, want 1 sample of 1ms", m.Count, m.Max)
	}
}

func TestPhaseTrackerEviction(t *testing.T) {
	rec, reg := phased("p.")
	rec.Record(time.Millisecond, EvPrePrepareRecv, 1, 0, 0)
	// Seq 1+phaseSlots hashes to the same slot and evicts seq 1.
	rec.Record(2*time.Millisecond, EvPrePrepareRecv, 1+phaseSlots, 0, 0)
	rec.Record(3*time.Millisecond, EvExecuted, 1, 0, 0)
	if m, _ := reg.Get("p.missed"); m.Value != 1 {
		t.Fatalf("missed = %d, want 1 after eviction", m.Value)
	}
	if m, _ := reg.Get("p.execute_ns"); m.Count != 0 {
		t.Errorf("evicted batch still observed: count = %d", m.Count)
	}
	// The evicting batch itself observes normally.
	rec.Record(5*time.Millisecond, EvExecuted, 1+phaseSlots, 0, 0)
	if m, _ := reg.Get("p.execute_ns"); m.Count != 1 {
		t.Errorf("evicting batch not observed: count = %d", m.Count)
	}
}

// TestPhaseTrackerBesideRing checks that attaching phase histograms leaves
// the ring's contents exactly as they would be without them.
func TestPhaseTrackerBesideRing(t *testing.T) {
	plain, withPhases := NewRecorder(2, 8), NewRecorder(2, 8)
	withPhases.TrackPhases(NewRegistry(), "phase.")
	for i := int64(1); i <= 12; i++ {
		for _, r := range []*Recorder{plain, withPhases} {
			r.Record(time.Duration(i), Kind(i%int64(numKinds)), i, i, i)
		}
	}
	a, b := plain.Events(nil), withPhases.Events(nil)
	if len(a) != len(b) {
		t.Fatalf("ring lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
