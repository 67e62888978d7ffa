package obs

import "time"

// phaseSlots sizes the phase histograms' sequence ring. Sequence numbers
// are dense and monotone, so seq and seq+phaseSlots reuse a slot 1024
// batches apart — far beyond the protocol's log window, so a live batch is
// never evicted by a concurrent one.
const phaseSlots = 1024

// phaseKinds are the events the phase histograms consume.
const phaseKinds = 1<<EvPrePrepareSent | 1<<EvPrePrepareRecv | 1<<EvPrepared | 1<<EvCommitted | 1<<EvExecuted

// phaseHistograms aggregates per-batch ordering-phase durations into live
// latency histograms, for the host telemetry plane (/metrics). It is the
// streaming sibling of the post-hoc span assembly in span.go: instead of
// correlating a merged multi-node trace after the run, it consumes one
// replica's own batch-boundary events as Record receives them — pre-prepare
// accept (or send, on the ordering leader), prepared, committed, executed.
//
// All durations are measured from the batch's pre-prepare instant, so the
// histograms stay well-defined under tentative execution, where a batch
// executes before it commits.
type phaseHistograms struct {
	slots  [phaseSlots]phaseSlot
	missed int64 // late observations whose batch was already evicted

	// hist maps each observing kind to its histogram (pre-prepare ->
	// prepared, committed frontier, executed); nil for every other kind.
	hist [numKinds]*Histogram
}

// phaseSlot holds one batch's ordering start.
type phaseSlot struct {
	seq int64 // seq+1; 0 marks an empty slot
	pp  time.Duration
}

// TrackPhases attaches live phase histograms to the recorder, registered
// in reg under prefix ("phase." yields phase.prepare_ns, phase.commit_ns,
// phase.execute_ns, and the phase.missed eviction gauge). From then on
// Record feeds them its pre-prepare, prepared, committed and executed
// events, whether or not the recorder keeps a ring.
func (r *Recorder) TrackPhases(reg *Registry, prefix string) {
	p := &phaseHistograms{}
	p.hist[EvPrepared] = reg.Histogram(prefix + "prepare_ns")
	p.hist[EvCommitted] = reg.Histogram(prefix + "commit_ns")
	p.hist[EvExecuted] = reg.Histogram(prefix + "execute_ns")
	reg.GaugeFunc(prefix+"missed", func() int64 { return p.missed })
	r.phases = p
	r.wants |= phaseKinds
}
