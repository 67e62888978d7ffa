package hostbench

import (
	"testing"
	"time"

	"bftfast/internal/crypto"
	"bftfast/internal/kvservice"
	"bftfast/internal/message"
	"bftfast/internal/obs"
	"bftfast/internal/sim"
)

// BenchmarkHotPaths runs every registered microbenchmark as a
// sub-benchmark: `go test -bench=. ./internal/hostbench`.
func BenchmarkHotPaths(b *testing.B) {
	for _, bm := range Benchmarks {
		b.Run(bm.Name, bm.F)
	}
}

// allocs measures steady-state allocations of f, letting AllocsPerRun's
// warm-up call absorb lazy cache fills (MAC states, scratch growth).
func allocs(f func()) float64 { return testing.AllocsPerRun(100, f) }

// TestSteadyStateAllocs pins the zero-allocation contract of the hot
// paths: once scratch buffers and cached MAC states are warm, encoding,
// decoding, and authenticating a steady-state ordering message must not
// touch the heap (the one send-buffer clone is the only exception, since
// buffers passed to Env.Send transfer ownership and cannot be pooled).
func TestSteadyStateAllocs(t *testing.T) {
	tables := keyedTables(groupN)
	prep := samplePrepare(tables)
	commit := sampleCommit(tables)
	reply := &message.Reply{View: 3, Timestamp: 9, Client: 100, Replica: 1, Full: true, Result: []byte("result"), ResultD: sampleDigest()}
	prepWire := message.Marshal(new(message.Encoder), prep)
	commitWire := message.Marshal(new(message.Encoder), commit)
	replyWire := message.Marshal(new(message.Encoder), reply)
	content := message.OrderContent(new(message.Encoder), 3, 117, sampleDigest())

	e := message.NewEncoder(256)
	if got := allocs(func() { sink = len(message.EncodeTo(e, prep)) }); got != 0 {
		t.Errorf("EncodeTo(prepare): %v allocs/op, want 0", got)
	}
	if got := allocs(func() { sink = len(message.OrderContent(e, 3, 117, commit.Digest)) }); got != 0 {
		t.Errorf("OrderContent: %v allocs/op, want 0", got)
	}
	if got := allocs(func() { sink = len(reply.AuthContent(e)) }); got != 0 {
		t.Errorf("Reply.AuthContent: %v allocs/op, want 0", got)
	}

	// Decode-into of the three messages whose handlers retain nothing.
	for _, c := range []struct {
		wire    []byte
		scratch message.Message
	}{
		{prepWire, new(message.Prepare)},
		{commitWire, new(message.Commit)},
		{replyWire, new(message.Reply)},
	} {
		if got := allocs(func() {
			if err := message.UnmarshalInto(c.wire, c.scratch); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("UnmarshalInto(%s): %v allocs/op, want 0", c.scratch.Type(), got)
		}
	}

	var auth crypto.Authenticator
	if got := allocs(func() {
		auth = crypto.AuthenticatorInto(tables[0], auth, groupN, content)
	}); got != 0 {
		t.Errorf("AuthenticatorInto: %v allocs/op, want 0", got)
	}

	full := crypto.AuthenticatorFor(tables[0], groupN, content)
	if got := allocs(func() {
		if !crypto.VerifyEntry(tables[1], 0, full, content) {
			t.Fatal("authenticator entry did not verify")
		}
	}); got != 0 {
		t.Errorf("VerifyEntry: %v allocs/op, want 0", got)
	}

	// The wire buffer handed to Env.Send is the single permitted allocation.
	if got := allocs(func() { sink = len(message.Marshal(e, prep)) }); got != 1 {
		t.Errorf("Marshal: %v allocs/op, want exactly 1 (the send clone)", got)
	}
}

// TestTraceHookAllocs pins the observability layer's zero-allocation
// contract on both sides of the enabling branch: a disabled hook (nil
// recorder) is a bare nil check, and an enabled hook writes one slot of a
// preallocated ring — including after wrap-around, the steady state of a
// long run. The metrics primitives the hooks feed are held to the same bar.
func TestTraceHookAllocs(t *testing.T) {
	// Disabled: the exact guard shape the engines use.
	var disabled *obs.Recorder
	now := time.Duration(0)
	if got := allocs(func() {
		if disabled != nil {
			disabled.Record(now, obs.EvPrepared, 1, 2, 3)
		}
	}); got != 0 {
		t.Errorf("disabled trace hook: %v allocs/op, want 0", got)
	}

	// Enabled, with a ring small enough that the run wraps many times.
	rec := obs.NewRecorder(0, 64)
	i := int64(0)
	if got := allocs(func() {
		i++
		rec.Record(time.Duration(i), obs.EvPrepared, i, 2, 3)
	}); got != 0 {
		t.Errorf("enabled trace hook: %v allocs/op, want 0", got)
	}
	if i <= int64(rec.Len()) {
		t.Error("ring never wrapped; steady state not exercised")
	}

	var h obs.Histogram
	if got := allocs(func() {
		i++
		h.Observe(i * 131)
	}); got != 0 {
		t.Errorf("Histogram.Observe: %v allocs/op, want 0", got)
	}

}

// TestSimKernelSteadyStateAllocs pins the event kernel's allocation
// behavior: after a warm-up batch sizes the arena, ring buffers and timer
// tables, pushing further messages through the same simulator allocates
// nothing.
func TestSimKernelSteadyStateAllocs(t *testing.T) {
	s := sim.New(sim.DefaultCostModel(), 1)
	left := 0
	a := &pingNode{peer: 1, left: &left}
	c := &pingNode{peer: 0, left: &left}
	s.AddNode(a)
	s.AddNode(c)
	s.Run(time.Millisecond)

	payload := make([]byte, 64)
	kick := func() { a.env.Send(1, payload) }
	batch := func() {
		left = 500
		s.At(s.Now(), kick)
		s.Resume(s.Now() + time.Hour)
	}
	batch() // warm-up: grows the event arena and socket rings to capacity
	if got := testing.AllocsPerRun(5, batch); got != 0 {
		t.Errorf("sim kernel steady state: %v allocs per 500-message batch, want 0", got)
	}
}

// TestCheckpointRetentionAllocs pins what a retained checkpoint adds to
// kvservice's write path: nothing, once the key has been saved under the
// newest checkpoint — the write allocates exactly what it does on a store
// with no checkpoint at all.
func TestCheckpointRetentionAllocs(t *testing.T) {
	op := kvservice.SetOp("k", "v1")
	plain := kvservice.New()
	plain.Execute(0, op, false)
	base := allocs(func() { plain.Execute(0, op, false) })

	marked := kvservice.New()
	marked.Execute(0, op, false)
	marked.Checkpoint(1)
	marked.Execute(0, op, false) // first write after the mark saves the key
	if got := allocs(func() { marked.Execute(0, op, false) }); got-base != 0 {
		t.Errorf("write of a saved key under a checkpoint: %v allocs/op, %v without one; want no difference", got, base)
	}
}
