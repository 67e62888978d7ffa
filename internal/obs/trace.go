// Package obs is the deterministic observability layer: a per-node trace
// recorder for typed protocol events (a fixed-size ring plus, optionally,
// live per-phase latency histograms fed by the same events), a metrics
// registry unifying gauges and log-linear latency histograms behind one
// snapshot API, and per-request span assembly that computes the paper-style
// critical-path breakdown (client → pre-prepare → prepared → executed →
// reply).
//
// The package honors the repo's two standing contracts. Determinism: events
// are stamped exclusively with timestamps the caller obtained from
// proc.Env.Now — obs never reads a clock, spawns goroutines, or imports
// sync, so it is listed among the bft-vet engine packages. Allocation-free
// steady state: Record writes into a preallocated ring and Histogram.Observe
// increments a preallocated bucket array, so enabled hooks cost zero
// allocations and disabled hooks (nil *Recorder) cost a single branch.
package obs

import (
	"sort"
	"time"
)

// Kind identifies a protocol trace event.
type Kind uint8

// Protocol event kinds. Request-scoped events carry (client, timestamp) in
// (Aux, Aux2); batch-scoped events carry the sequence number in Seq.
// EvExecRequest carries all three, linking a request to the batch that
// ordered it.
const (
	EvNone             Kind = iota
	EvRequestIn             // request authenticated at a replica; Aux=client, Aux2=timestamp
	EvPrePrepareSent        // primary multicast a pre-prepare; Seq, Aux=view, Aux2=batch size
	EvPrePrepareRecv        // backup accepted a pre-prepare; Seq, Aux=view
	EvPrepared              // prepared predicate became true; Seq, Aux=view
	EvCommitted             // committed batch reached the execution frontier; Seq
	EvExecuted              // batch executed; Seq, Aux=1 if tentative
	EvExecRequest           // one request executed; Seq, Aux=client, Aux2=timestamp
	EvReplySent             // reply left the replica; Aux=client, Aux2=timestamp
	EvCheckpoint            // checkpoint taken; Seq
	EvCheckpointStable      // checkpoint became stable; Seq
	EvViewChangeStart       // replica moved to a view change; Aux=new view
	EvViewChangeDone        // replica entered the new view; Aux=view
	EvStateFetch            // state transfer started; Seq=target checkpoint
	EvStateRestored         // state transfer completed; Seq=restored checkpoint
	EvClientSend            // client transmitted a request; Aux=client, Aux2=timestamp
	EvClientResend          // client retransmitted; Aux=client, Aux2=timestamp
	EvClientDone            // client assembled a reply certificate; Aux=client, Aux2=timestamp
	numKinds
)

var kindNames = [numKinds]string{
	EvNone:             "none",
	EvRequestIn:        "request-in",
	EvPrePrepareSent:   "pre-prepare-sent",
	EvPrePrepareRecv:   "pre-prepare-recv",
	EvPrepared:         "prepared",
	EvCommitted:        "committed",
	EvExecuted:         "executed",
	EvExecRequest:      "exec-request",
	EvReplySent:        "reply-sent",
	EvCheckpoint:       "checkpoint",
	EvCheckpointStable: "checkpoint-stable",
	EvViewChangeStart:  "view-change-start",
	EvViewChangeDone:   "view-change-done",
	EvStateFetch:       "state-fetch",
	EvStateRestored:    "state-restored",
	EvClientSend:       "client-send",
	EvClientResend:     "client-resend",
	EvClientDone:       "client-done",
}

// String returns the event kind's wire-stable name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "invalid"
}

// Event is one fixed-size trace record. At is the node's virtual (or
// monotonic host) time from proc.Env.Now; Node is the recording node.
type Event struct {
	At   time.Duration
	Seq  int64
	Aux  int64
	Aux2 int64
	Node int32
	Kind Kind
}

// Recorder is a node's one sink for trace events: a fixed-capacity ring
// buffer of them and, once TrackPhases attaches it, the live phase
// histograms that consume the same events. It is written from exactly one
// engine's event context (engines are single-threaded by contract) and read
// after the run or between events. When the ring is full the oldest events
// are overwritten.
//
// A nil Recorder is the disabled state: engines guard every hook with a nil
// check, so tracing off costs one branch and zero allocations. Engines also
// ask Wants before reading the clock, so a ring-less recorder feeding only
// phase histograms costs a clock read at batch boundaries and nowhere else.
type Recorder struct {
	node    int32
	events  []Event
	next    int
	wrapped bool
	wants   uint32 // bit k set: some consumer reads events of Kind k
	phases  *phaseHistograms
}

// allKinds is the wants mask of a recorder with a ring.
const allKinds = 1<<numKinds - 1

// NewRecorder returns a recorder for the given node id holding up to
// capacity events; capacity 0 means no ring (see TrackPhases).
func NewRecorder(node int32, capacity int) *Recorder {
	r := &Recorder{node: node}
	if capacity > 0 {
		r.events = make([]Event, capacity)
		r.wants = allKinds
	}
	return r
}

// Wants reports whether any consumer reads events of the given kind, so an
// engine can skip the clock read for an event nothing would keep.
//
//bftvet:allocfree
func (r *Recorder) Wants(kind Kind) bool { return r.wants&(1<<kind) != 0 }

// Record appends one event stamped at the caller-supplied time and feeds
// it to the phase histograms, if attached. It never allocates: full rings
// overwrite the oldest slot.
//
//bftvet:allocfree
func (r *Recorder) Record(at time.Duration, kind Kind, seq, aux, aux2 int64) {
	if len(r.events) > 0 {
		r.events[r.next] = Event{At: at, Seq: seq, Aux: aux, Aux2: aux2, Node: r.node, Kind: kind}
		r.next++
		if r.next == len(r.events) {
			r.next = 0
			r.wrapped = true
		}
	}
	p := r.phases
	if p == nil {
		return
	}
	// The phase histograms' consumer, written out here rather than as a
	// method: a second call per event made hostbench's PhaseTrackerObserve
	// about a quarter slower. A pre-prepare marks the
	// batch's ordering start; re-marking the same seq (a view-change
	// reissue) keeps the first instant. The later boundaries observe
	// their duration from that start.
	s := &p.slots[uint64(seq)%phaseSlots]
	if kind == EvPrePrepareSent || kind == EvPrePrepareRecv {
		if s.seq != seq+1 {
			s.seq, s.pp = seq+1, at
		}
		return
	}
	if int(kind) >= len(p.hist) || p.hist[kind] == nil {
		return
	}
	if s.seq != seq+1 {
		p.missed++ // evicted, or the pre-prepare was never observed
		return
	}
	p.hist[kind].Observe(int64(at - s.pp))
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r.wrapped {
		return len(r.events)
	}
	return r.next
}

// Events returns the retained events oldest-first, appended to dst.
func (r *Recorder) Events(dst []Event) []Event {
	if r.wrapped {
		dst = append(dst, r.events[r.next:]...)
	}
	return append(dst, r.events[:r.next]...)
}

// Merge collects the retained events of all recorders into one slice
// ordered by timestamp. Ties preserve recorder order and then each
// recorder's own recording order, so the merge is deterministic for a
// deterministic run.
func Merge(recs ...*Recorder) []Event {
	total := 0
	for _, r := range recs {
		if r != nil {
			total += r.Len()
		}
	}
	out := make([]Event, 0, total)
	for _, r := range recs {
		if r != nil {
			out = r.Events(out)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
