package main

import (
	"strings"
	"testing"

	"bftfast/internal/hostbench"
)

// metricDef describes one reported metric. BENCHMARK.json is written from
// these tables (writeManifest) and a test compares the two, so the manifest
// and the program cannot name different metrics.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	doc    string
}

// endToEnd are what a user of the replicated service sees, measured with
// tracing off over the whole window, so a stall anywhere in it moves them.
// Every workload reports every one of them and none is ever zero. A bound is
// shared by all five workloads, so it is set by the workload on which the
// metric is least steady (see README.md, "Bounds and spread"); a claimed gain
// is judged by paired runs, not by these.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		doc: "operations due inside the window that completed with the right result, per second of window"},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		doc: "median time from Invoke (from the due time on failover-udp) to its return"},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25,
		doc: "99th percentile of the same; on failover-udp it is set by the outage"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25,
		doc: "process user+system CPU time over the window (getrusage) per completed operation, all 4 replicas and the clients"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		doc: "keys, sockets, preload, replicas and clients up to the first completed operation; median of the run's 9 set-ups"},
}

// microbench maps a per-layer metric to the hostbench registry entry that
// measures the call in isolation.
var microbench = []struct{ metric, bench string }{
	{"crypto.authenticator_into_ns", "AuthenticatorInto"},
	{"crypto.authenticator_verify_ns", "AuthenticatorVerify"},
	{"message.encode_prepare_ns", "CodecEncodePrepare"},
	{"message.marshal_preprepare_ns", "CodecMarshalPrePrepare"},
	{"message.decode_prepare_ns", "CodecDecodePrepare"},
	{"message.decode_commit_ns", "CodecDecodeCommit"},
	{"verifypool.stage_serial_ns", "VerifyPoolStageSerial"},
	{"verifypool.stage_ns", "VerifyPoolStage"},
	{"obs.phase_tracker_ns", "PhaseTrackerObserve"},
}

// cpuMetric names a layer's row of the CPU budget.
func cpuMetric(layer string) string {
	if sub, ok := strings.CutPrefix(layer, "runtime."); ok {
		return "runtime." + sub + "_cpu_us_per_op"
	}
	return layer + ".cpu_us_per_op"
}

// perLayer are the traced pass's metrics, one module of the repository per
// prefix. A metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit, doc string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", doc: doc}
	}
	higher := func(name, unit, doc string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", doc: doc}
	}
	defs := []metricDef{
		// core.Client and the load generator.
		lower("client.latency_p999_us", "us", "99.9th percentile latency"),
		lower("client.max_latency_ms", "ms", "slowest operation of the window"),
		lower("client.retransmits_per_kop", "count", "client request retransmissions per 1000 operations"),
		lower("client.rejected_replies", "count", "replies that failed authentication or matching"),
		lower("client.read_p50_us", "us", "median get latency (kv-mixed-udp)"),
		lower("client.write_p50_us", "us", "median set latency (kv-mixed-udp)"),
		lower("client.arg4k_p50_us", "us", "median 4/0 latency (bulk-udp)"),
		lower("client.res4k_p50_us", "us", "median 0/4 latency (bulk-udp)"),
		lower("client.gen_lateness_p50_us", "us", "median of how long after its due time a paced operation was issued (failover-udp); time.Sleep's own lateness in a mostly idle process"),
		lower("client.gen_lateness_p99_us", "us", "99th percentile of the same; the outage's backlog sets it"),
		lower("client.outage_ms", "ms", "from closing the primary to the first completion of an operation due after it (failover-udp)"),
		higher("client.post_fault_ops_per_s", "1/s", "completions per second from the end of the outage to the end of the window (failover-udp)"),
		lower("client.post_fault_p90_us", "us", "90th percentile latency of the operations due after the outage ended (failover-udp)"),
		// core.Replica.
		higher("core.reqs_per_batch", "count", "requests executed per batch executed, at replica 1"),
		higher("core.batches_per_s", "1/s", "batches executed per second, at replica 1"),
		higher("core.stable_checkpoints", "count", "checkpoints made stable in the window, at replica 1"),
		lower("core.view_changes", "count", "view changes, summed over live replicas"),
		lower("core.state_transfers", "count", "state transfers, summed over live replicas"),
		lower("core.dropped_messages", "count", "messages that failed authentication or decoding, summed over live replicas"),
		lower("core.divergences", "count", "own checkpoint digest contradicted by a quorum, summed"),
		lower("core.exec_skew", "count", "max - min last_executed over live replicas after the run"),
		lower("core.phase_prepare_p50_us", "us", "median pre-prepare accepted to prepared, replica 1, since start"),
		lower("core.phase_commit_p50_us", "us", "median prepared to committed, replica 1, since start"),
		lower("core.phase_execute_p50_us", "us", "median committed to executed, replica 1, since start"),
		// transport, from the Network shim and HostStats.
		lower("transport.msgs_per_op", "count", "datagrams handed to Network.Send per operation, all nodes"),
		lower("transport.bytes_per_op", "count", "bytes handed to Network.Send per operation"),
	}
	for _, k := range msgKinds {
		defs = append(defs, lower("transport.msgs_per_op."+k, "count", "datagrams per operation whose tag byte is "+k))
	}
	defs = append(defs,
		lower("transport.send_us_per_op", "us", "time inside Network.Send per operation (sendto on UDP; on channels it includes the receiver's callback)"),
		lower("transport.send_p50_us", "us", "median time inside one Network.Send"),
		lower("transport.send_p99_us", "us", "99th percentile time inside one Network.Send"),
		lower("transport.deliver_us_per_op", "us", "time inside the receive callbacks (inbox hand-off) per operation"),
		lower("transport.inbox_drops", "count", "events dropped on a full event-loop inbox, live replicas"),
		lower("transport.udp_oversized", "count", "datagrams dropped for filling the read buffer"),
		lower("transport.udp_backpressure", "count", "datagrams the receiver refused"),
		lower("transport.echo_rtt_p50_us", "us", "median bare request/response over the same network, no protocol (rtt-udp)"),
		lower("transport.overhead_vs_echo", "ratio", "traced median latency / echo round trip (rtt-udp)"),
		// service, from the StateMachine shim.
		lower("service.executes_per_op", "count", "Execute calls per operation, all replicas"),
		lower("service.execute_us_per_op", "us", "time inside Execute per operation, all replicas"),
		lower("service.snapshots", "count", "Snapshot calls in the window, all replicas"),
		lower("service.snapshot_p50_ms", "ms", "median time inside one Snapshot"),
		lower("service.snapshot_us_per_op", "us", "time inside Snapshot per operation, all replicas"),
		lower("service.state_digest_us_per_op", "us", "time inside StateDigest per operation, all replicas"),
	)
	// The CPU budget: profile share of each layer times traced CPU per op.
	for _, l := range layers {
		defs = append(defs, lower(cpuMetric(l), "us", "CPU per operation charged to "+l+" by the profile"))
	}
	for _, mb := range microbench {
		defs = append(defs, lower(mb.metric, "ns", "hostbench "+mb.bench+", one call in isolation"))
	}
	return append(defs,
		lower("runtime.alloc_bytes_per_op", "B", "heap bytes allocated per operation, whole process"),
		lower("runtime.allocs_per_op", "count", "heap objects allocated per operation"),
		lower("runtime.gc_cycles", "count", "collections completed in the window"),
		lower("runtime.gc_pause_total_ms", "ms", "stop-the-world pause total in the window"),
		lower("runtime.peak_rss_mb", "MB", "peak resident set of the process so far"),
		higher("trace.ops_per_s", "1/s", "throughput of the traced window"),
		lower("trace.cpu_us_per_op", "us", "CPU per operation of the traced window; the budget rows sum to it"),
		lower("trace.overhead_frac", "ratio", "1 - traced ops_per_s / ops_per_s of the untraced reference window just before it (closed loops only)"),
	)
}

// microResults runs the hostbench entries once per process. A name the
// registry no longer has is left out, and its metric reads 0.
var microResults = map[string]float64{}

func runMicrobenchmarks() {
	if len(microResults) > 0 {
		return
	}
	for _, mb := range microbench {
		for _, b := range hostbench.Benchmarks {
			if b.Name == mb.bench {
				r := testing.Benchmark(b.F)
				if r.N > 0 {
					microResults[mb.metric] = float64(r.T.Nanoseconds()) / float64(r.N)
				}
			}
		}
	}
}

// latencies returns the ascending latencies (end - due) of the samples
// keep accepts.
func latencies(samples []sample, keep func(sample) bool) []int64 {
	var out []int64
	for _, s := range samples {
		if s.ok && keep(s) {
			out = append(out, s.end-s.due)
		}
	}
	return ascending(out)
}

func ofKind(k uint8) func(sample) bool { return func(s sample) bool { return s.kind == k } }

func us(ns int64) float64 { return float64(ns) / 1e3 }

// outcome is one run boiled down: the counts the contract asks for and the
// metrics by name.
type outcome struct {
	Workload  string
	Seconds   float64 // the window as measured
	Traced    bool
	Correct   bool
	Attempted int64
	Failed    int64
	Samples   int     // latency samples: operations that completed correctly
	TopPct    float64 // highest percentile with at least ten samples beyond it
	TopPctUS  float64
	Problems  []string // why the run is invalid, if it is
	Metrics   map[string]float64
}

// summarize boils a run down: the end-to-end metrics of an untraced run, the
// per-layer ones of a traced run.
func (m *measured) summarize() outcome {
	o := outcome{Workload: m.w.name, Traced: m.traced, Problems: m.problems, Metrics: make(map[string]float64)}
	o.Seconds = float64(m.after.at-m.before.at) / 1e9
	all := latencies(m.samples, func(sample) bool { return true })
	o.Attempted = int64(len(m.samples))
	o.Failed = o.Attempted - int64(len(all))
	o.Samples = len(all)
	o.Correct = len(m.problems) == 0 && o.Failed == 0 && o.Attempted > 0
	o.TopPct = highestPercentile(len(all))
	o.TopPctUS = us(percentile(all, o.TopPct))

	// Whole-window figures, so a stall anywhere in the window moves them.
	var opsPerS, cpuPerOp float64
	if len(all) > 0 {
		opsPerS = float64(len(all)) / o.Seconds
		cpuPerOp = float64(m.after.cpu-m.before.cpu) / 1e3 / float64(len(all))
	}
	if m.traced {
		m.layerMetrics(&o, all, opsPerS, cpuPerOp)
		return o
	}
	o.Metrics["ops_per_s"] = opsPerS
	o.Metrics["latency_p50_us"] = us(percentile(all, 50))
	o.Metrics["latency_p99_us"] = us(percentile(all, 99))
	o.Metrics["cpu_us_per_op"] = cpuPerOp
	o.Metrics["setup_s"] = median(m.setups)
	return o
}

// layerMetrics fills in every per-layer metric of a traced run. all is the
// ascending latencies of the window; opsPerS and cpuPerOp its throughput and
// CPU cost.
func (m *measured) layerMetrics(o *outcome, all []int64, opsPerS, cpuPerOp float64) {
	done := float64(len(all))
	perOp := func(total float64) float64 {
		if done == 0 {
			return 0
		}
		return total / done
	}
	for _, d := range perLayer {
		o.Metrics[d.Name] = 0
	}
	set := func(name string, v float64) { o.Metrics[name] = v }

	set("client.latency_p999_us", us(percentile(all, 99.9)))
	if len(all) > 0 {
		set("client.max_latency_ms", float64(all[len(all)-1])/1e6)
	}
	set("client.retransmits_per_kop", perOp(float64(m.after.retrans-m.before.retrans))*1000)
	set("client.rejected_replies", float64(m.after.reject-m.before.reject))
	set("client.read_p50_us", us(percentile(latencies(m.samples, ofKind(kindGet)), 50)))
	set("client.write_p50_us", us(percentile(latencies(m.samples, ofKind(kindSet)), 50)))
	set("client.arg4k_p50_us", us(percentile(latencies(m.samples, ofKind(kindArg4k)), 50)))
	set("client.res4k_p50_us", us(percentile(latencies(m.samples, ofKind(kindRes4k)), 50)))
	if m.w.period > 0 {
		var late []int64
		for _, s := range m.samples {
			late = append(late, s.start-s.due)
		}
		set("client.gen_lateness_p50_us", us(percentile(ascending(late), 50)))
		set("client.gen_lateness_p99_us", us(percentile(late, 99)))
	}
	if m.faultAt > 0 {
		// Samples are ordered by end, so the first one due after the
		// fault is the first completion that owes nothing to the dead
		// primary.
		for i, s := range m.samples {
			if s.ok && s.due >= m.faultAt {
				set("client.outage_ms", float64(s.end-m.faultAt)/1e6)
				if rest := float64(m.after.at-s.end) / 1e9; rest > 0 {
					set("client.post_fault_ops_per_s", float64(len(m.samples)-i)/rest)
				}
				restored := s.end
				set("client.post_fault_p90_us", us(percentile(latencies(m.samples, func(s sample) bool { return s.due >= restored }), 90)))
				break
			}
		}
	}

	batches := float64(m.after.core.ExecutedBatches - m.before.core.ExecutedBatches)
	if batches > 0 {
		set("core.reqs_per_batch", float64(m.after.core.ExecutedRequests-m.before.core.ExecutedRequests)/batches)
	}
	set("core.batches_per_s", batches/o.Seconds)
	set("core.stable_checkpoints", float64(m.after.core.StableCheckpoints-m.before.core.StableCheckpoints))
	for _, c := range m.final {
		o.Metrics["core.view_changes"] += float64(c.ViewChanges)
		o.Metrics["core.state_transfers"] += float64(c.StateTransfers)
		o.Metrics["core.dropped_messages"] += float64(c.DroppedMessages)
		o.Metrics["core.divergences"] += float64(c.Divergences)
	}
	set("core.exec_skew", float64(m.execSkew()))
	set("core.phase_prepare_p50_us", us(m.phaseP50["phase.prepare_ns"]))
	set("core.phase_commit_p50_us", us(m.phaseP50["phase.commit_ns"]))
	set("core.phase_execute_p50_us", us(m.phaseP50["phase.execute_ns"]))

	var sent [8]int64
	var bytes int64
	var send, deliver, execute, snaps, digests histogram
	m.rec.each(func(_ int, n *nodeRecord) {
		for k, c := range n.sentByKind {
			sent[k] += c
		}
		bytes += n.sentBytes
		send.merge(&n.send)
		deliver.merge(&n.deliver)
		execute.merge(&n.execute)
		snaps.merge(&n.snapshots)
		digests.merge(&n.digests)
	})
	for k, c := range sent {
		set("transport.msgs_per_op."+msgKinds[k], perOp(float64(c)))
	}
	set("transport.msgs_per_op", perOp(float64(send.n)))
	set("transport.bytes_per_op", perOp(float64(bytes)))
	set("transport.send_us_per_op", perOp(float64(send.sum)/1e3))
	set("transport.send_p50_us", us(send.quantile(0.50)))
	set("transport.send_p99_us", us(send.quantile(0.99)))
	set("transport.deliver_us_per_op", perOp(float64(deliver.sum)/1e3))
	set("transport.inbox_drops", float64(m.inboxDrops))
	set("transport.udp_oversized", float64(m.udpOversized))
	set("transport.udp_backpressure", float64(m.udpBackpress))
	if m.echoP50 > 0 {
		set("transport.echo_rtt_p50_us", us(m.echoP50))
		set("transport.overhead_vs_echo", float64(percentile(all, 50))/float64(m.echoP50))
	}

	set("service.executes_per_op", perOp(float64(execute.n)))
	set("service.execute_us_per_op", perOp(float64(execute.sum)/1e3))
	set("service.snapshots", float64(snaps.n))
	set("service.snapshot_p50_ms", float64(snaps.quantile(0.50))/1e6)
	set("service.snapshot_us_per_op", perOp(float64(snaps.sum)/1e3))
	set("service.state_digest_us_per_op", perOp(float64(digests.sum)/1e3))

	if m.profileErr == nil {
		for _, l := range layers {
			set(cpuMetric(l), m.profile.share(l)*cpuPerOp)
		}
	}
	for name, v := range microResults {
		set(name, v)
	}

	set("runtime.alloc_bytes_per_op", perOp(float64(m.after.mem.TotalAlloc-m.before.mem.TotalAlloc)))
	set("runtime.allocs_per_op", perOp(float64(m.after.mem.Mallocs-m.before.mem.Mallocs)))
	set("runtime.gc_cycles", float64(m.after.mem.NumGC-m.before.mem.NumGC))
	set("runtime.gc_pause_total_ms", float64(m.after.mem.PauseTotalNs-m.before.mem.PauseTotalNs)/1e6)
	set("runtime.peak_rss_mb", peakRSSMB())
	set("trace.ops_per_s", opsPerS)
	set("trace.cpu_us_per_op", cpuPerOp)
	if m.refFrom > 0 {
		var ref float64
		for _, samples := range m.clientSpans {
			for _, s := range samples {
				if s.ok && s.due >= m.refFrom && s.due < m.before.at {
					ref++
				}
			}
		}
		if ref > 0 {
			set("trace.overhead_frac", 1-opsPerS/(ref/(float64(m.before.at-m.refFrom)/1e9)))
		}
	}
}
