package obs

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(7, 4)
	for i := 0; i < 6; i++ {
		r.Record(time.Duration(i), EvRequestIn, int64(i), 0, 0)
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", r.Len())
	}
	evs := r.Events(nil)
	for i, e := range evs {
		want := int64(i + 2) // oldest two overwritten
		if e.Seq != want || e.At != time.Duration(want) {
			t.Fatalf("event %d = %+v, want seq %d", i, e, want)
		}
		if e.Node != 7 {
			t.Fatalf("event %d node = %d, want 7", i, e.Node)
		}
	}
}

func TestRecorderWithoutRing(t *testing.T) {
	r := NewRecorder(1, 0)
	if r.Wants(EvPrepared) {
		t.Fatal("ring-less recorder without phases wants events")
	}
	r.Record(1, EvPrepared, 1, 0, 0)
	if r.Len() != 0 || len(r.Events(nil)) != 0 {
		t.Fatalf("ring-less recorder retained %d events", r.Len())
	}
	r.TrackPhases(NewRegistry(), "phase.")
	if !r.Wants(EvPrepared) || r.Wants(EvRequestIn) || r.Wants(EvReplySent) {
		t.Fatal("phase histograms should want exactly the batch-boundary kinds")
	}
}

func TestMergeOrdersByTimestamp(t *testing.T) {
	a := NewRecorder(0, 8)
	b := NewRecorder(1, 8)
	a.Record(3, EvPrepared, 1, 0, 0)
	a.Record(5, EvCommitted, 1, 0, 0)
	b.Record(1, EvRequestIn, 0, 9, 1)
	b.Record(5, EvPrepared, 1, 0, 0)
	merged := Merge(a, b, nil)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	if !sort.SliceIsSorted(merged, func(i, j int) bool { return merged[i].At < merged[j].At }) {
		t.Fatalf("merge not time-ordered: %+v", merged)
	}
	// Equal timestamps preserve recorder order: node 0 before node 1 at t=5.
	if merged[2].Node != 0 || merged[3].Node != 1 {
		t.Fatalf("tie not broken by recorder order: %+v", merged[2:])
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 10000; v++ {
		h.Observe(v)
	}
	if h.Count() != 10000 {
		t.Fatalf("Count = %d", h.Count())
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 5000}, {0.90, 9000}, {0.99, 9900}} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(float64(got)-tc.want) / tc.want; rel > 0.07 {
			t.Errorf("Quantile(%v) = %d, want ~%v (rel err %.3f)", tc.q, got, tc.want, rel)
		}
	}
	if h.Max() != 10000 {
		t.Errorf("Max = %d, want 10000", h.Max())
	}
	if h.Sum() != 10000*10001/2 {
		t.Errorf("Sum = %d, want %d", h.Sum(), 10000*10001/2)
	}
	h.Observe(-5) // clamps to zero
	if h.Quantile(0) != 0 {
		t.Errorf("Quantile(0) after negative sample = %d, want 0", h.Quantile(0))
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	// Every representative value must land back in its own bucket, and the
	// relative error of the midpoint must stay within one sub-bucket width.
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketIndex(v)
		mid := bucketMid(i)
		if bucketIndex(mid) != i {
			t.Errorf("bucketMid(%d)=%d maps to bucket %d, not %d (v=%d)", i, mid, bucketIndex(mid), i, v)
		}
		if v >= subBuckets {
			if rel := math.Abs(float64(mid-v)) / float64(v); rel > 1.0/subBuckets {
				t.Errorf("v=%d: midpoint %d rel err %.4f > %.4f", v, mid, rel, 1.0/subBuckets)
			}
		}
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("z.count", func() int64 { return 3 })
	r.GaugeFunc("a.gauge", func() int64 { return -7 })
	r.GaugeFunc("m.func", func() int64 { return 42 })
	h := r.Histogram("k.hist")
	h.Observe(100)
	h.Observe(300)

	snap := r.Snapshot()
	names := make([]string, len(snap))
	for i, m := range snap {
		names[i] = m.Name
	}
	want := []string{"a.gauge", "k.hist", "m.func", "z.count"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", names, want)
		}
	}
	if m, _ := r.Get("a.gauge"); m.Kind != KindGauge || m.Value != -7 {
		t.Errorf("a.gauge = %+v", m)
	}
	if m, _ := r.Get("m.func"); m.Kind != KindGauge || m.Value != 42 {
		t.Errorf("m.func = %+v", m)
	}
	if m, _ := r.Get("k.hist"); m.Kind != KindHistogram || m.Count != 2 || m.Sum != 400 {
		t.Errorf("k.hist = %+v", m)
	}
	// Get-or-create returns the same instance.
	if r.Histogram("k.hist") != h {
		t.Error("Histogram() did not return the registered instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering z.count as a histogram did not panic")
		}
	}()
	r.Histogram("z.count")
}

func TestTraceFileRoundTrip(t *testing.T) {
	events := []Event{
		{At: 10, Seq: 1, Aux: 2, Aux2: 3, Node: 0, Kind: EvRequestIn},
		{At: 20, Seq: -1, Aux: 100, Aux2: 7, Node: 100, Kind: EvClientSend},
		{At: 30, Seq: 5, Aux: 0, Aux2: 0, Node: 3, Kind: EvCommitted},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	if _, err := ReadTrace(bytes.NewReader([]byte("NOTATRACE........"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestSpanAssemblyBreakdown drives the assembler with a synthetic trace of
// two requests — one tentative, one committed-before-execute — and checks
// that phases partition the end-to-end latency exactly.
func TestSpanAssemblyBreakdown(t *testing.T) {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	events := []Event{
		// Request A (client 100, ts 1): tentative execution.
		{At: us(10), Node: 100, Kind: EvClientSend, Aux: 100, Aux2: 1},
		{At: us(20), Node: 0, Kind: EvRequestIn, Aux: 100, Aux2: 1},
		{At: us(30), Node: 0, Kind: EvPrePrepareSent, Seq: 1, Aux: 0, Aux2: 1},
		{At: us(50), Node: 0, Kind: EvPrepared, Seq: 1},
		{At: us(55), Node: 0, Kind: EvExecuted, Seq: 1, Aux: 1},
		{At: us(55), Node: 0, Kind: EvExecRequest, Seq: 1, Aux: 100, Aux2: 1},
		{At: us(70), Node: 100, Kind: EvClientDone, Aux: 100, Aux2: 1},
		{At: us(80), Node: 0, Kind: EvCommitted, Seq: 1}, // after the reply: off the critical path
		// Request B (client 101, ts 1): committed before execution.
		{At: us(100), Node: 101, Kind: EvClientSend, Aux: 101, Aux2: 1},
		{At: us(110), Node: 0, Kind: EvRequestIn, Aux: 101, Aux2: 1},
		{At: us(120), Node: 0, Kind: EvPrePrepareSent, Seq: 2, Aux: 0, Aux2: 1},
		{At: us(140), Node: 0, Kind: EvPrepared, Seq: 2},
		{At: us(160), Node: 0, Kind: EvCommitted, Seq: 2},
		{At: us(165), Node: 0, Kind: EvExecuted, Seq: 2},
		{At: us(165), Node: 0, Kind: EvExecRequest, Seq: 2, Aux: 101, Aux2: 1},
		{At: us(180), Node: 101, Kind: EvClientDone, Aux: 101, Aux2: 1},
	}
	spans := AssembleSpans(events)
	if len(spans) != 2 {
		t.Fatalf("assembled %d spans, want 2", len(spans))
	}
	for i := range spans {
		s := &spans[i]
		if !s.Complete {
			t.Fatalf("span %d incomplete: %+v", i, s)
		}
		var sum time.Duration
		for _, d := range s.Phases() {
			sum += d
		}
		if sum != s.Latency() {
			t.Errorf("span %d: phases sum %v != latency %v", i, sum, s.Latency())
		}
	}
	a, b := &spans[0], &spans[1]
	if !a.Tentative || a.Seq != 1 {
		t.Errorf("span A = %+v, want tentative seq 1", a)
	}
	if a.Phases()[PhaseCommit] != 0 {
		t.Errorf("tentative span has commit phase %v, want 0", a.Phases()[PhaseCommit])
	}
	if b.Tentative {
		t.Errorf("span B marked tentative")
	}
	if got := b.Phases()[PhaseCommit]; got != us(20) {
		t.Errorf("span B commit phase = %v, want 20µs", got)
	}

	bd := Summarize(spans, 0)
	if bd.Count != 2 || bd.Incomplete != 0 {
		t.Fatalf("breakdown count %d/%d, want 2/0", bd.Count, bd.Incomplete)
	}
	if bd.Total != us(70) { // mean of 60 and 80
		t.Errorf("breakdown total %v, want 70µs", bd.Total)
	}
	if diff := bd.PhaseSum() - bd.Total; diff < -time.Duration(NumPhases) || diff > time.Duration(NumPhases) {
		t.Errorf("phase sum %v vs total %v: drift beyond rounding", bd.PhaseSum(), bd.Total)
	}
	// Cutoff excludes request A (done at 70µs).
	late := Summarize(spans, us(100))
	if late.Count != 1 || late.Total != us(80) {
		t.Errorf("cutoff breakdown = %d spans, total %v; want 1, 80µs", late.Count, late.Total)
	}
}
