package obs

import (
	"fmt"
	"time"
)

// Phase indexes one segment of a request's critical path.
type Phase int

// Critical-path phases, in order. They partition the client-observed
// latency exactly: request = client send → first replica acceptance,
// ordering = acceptance → pre-prepare multicast, prepare = pre-prepare →
// prepared, commit = prepared → committed (zero when tentative execution
// takes the batch off the commit critical path), execute = → execution of
// the request, reply = → the client's reply certificate.
const (
	PhaseRequest Phase = iota
	PhaseOrdering
	PhasePrepare
	PhaseCommit
	PhaseExecute
	PhaseReply
	NumPhases
)

var phaseNames = [NumPhases]string{
	"request", "ordering", "prepare", "commit", "execute", "reply",
}

// String returns the phase's stable name.
func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return "invalid"
}

// Span is one request's assembled critical path. Boundary times come from
// different nodes' recorders; under the simulator they share one virtual
// clock, and phase durations are clamped to be non-negative so the phases
// always telescope to exactly Done-Send.
type Span struct {
	Client    int32
	Timestamp int64
	Seq       int64 // batch that ordered the request

	Send       time.Duration // client transmitted (EvClientSend)
	RequestIn  time.Duration // earliest replica acceptance (EvRequestIn)
	PrePrepare time.Duration // pre-prepare multicast for Seq (EvPrePrepareSent)
	Prepared   time.Duration // ordering replica prepared Seq (EvPrepared)
	Committed  time.Duration // Seq reached the committed frontier (EvCommitted)
	Executed   time.Duration // the request executed (EvExecRequest)
	Done       time.Duration // client certificate assembled (EvClientDone)

	Tentative bool // executed before commit
	Complete  bool // all critical-path boundaries observed
}

// Phases returns the six phase durations. Boundaries are clamped
// monotonically first, so the durations are non-negative and sum to
// exactly Done-Send for a complete span.
func (s *Span) Phases() [NumPhases]time.Duration {
	commit := s.Committed
	if s.Tentative || s.Committed == 0 || s.Committed > s.Executed {
		// Commit was off the critical path (tentative execution) or not
		// observed; the commit phase collapses to zero.
		commit = s.Prepared
	}
	b := [NumPhases + 1]time.Duration{
		s.Send, s.RequestIn, s.PrePrepare, s.Prepared, commit, s.Executed, s.Done,
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			b[i] = b[i-1]
		}
	}
	var out [NumPhases]time.Duration
	for i := range out {
		out[i] = b[i+1] - b[i]
	}
	return out
}

// Latency returns the client-observed end-to-end latency.
func (s *Span) Latency() time.Duration { return s.Done - s.Send }

type spanKey struct {
	client int32
	ts     int64
}

type batchTimes struct {
	node       int32
	prePrepare time.Duration
	prepared   time.Duration
	committed  time.Duration
	tentative  bool
	havePP     bool
}

// AssembleSpans correlates a merged event stream (see Merge) into
// per-request spans. Only the first occurrence of each boundary counts, so
// retransmissions and duplicate arrivals do not move spans around. Spans
// missing a boundary (ring overwrote it, or the request never finished)
// are returned with Complete == false.
func AssembleSpans(events []Event) []Span {
	spans := make(map[spanKey]*Span)
	order := make([]spanKey, 0, 64)
	batches := make(map[int64]*batchTimes)

	get := func(client int32, ts int64) *Span {
		k := spanKey{client, ts}
		s := spans[k]
		if s == nil {
			s = &Span{Client: client, Timestamp: ts, Seq: -1}
			spans[k] = s
			order = append(order, k)
		}
		return s
	}
	batch := func(seq int64) *batchTimes {
		b := batches[seq]
		if b == nil {
			b = &batchTimes{}
			batches[seq] = b
		}
		return b
	}

	for _, e := range events {
		switch e.Kind {
		case EvClientSend:
			s := get(int32(e.Aux), e.Aux2)
			if s.Send == 0 {
				s.Send = e.At
			}
		case EvRequestIn:
			s := get(int32(e.Aux), e.Aux2)
			if s.RequestIn == 0 {
				s.RequestIn = e.At
			}
		case EvPrePrepareSent:
			b := batch(e.Seq)
			if !b.havePP {
				b.havePP = true
				b.node = e.Node
				b.prePrepare = e.At
			}
		case EvPrepared:
			b := batch(e.Seq)
			// The prepared instant that matters is the ordering replica's
			// (the pre-prepare sender); backups prepare at their own times.
			if b.havePP && e.Node == b.node && b.prepared == 0 {
				b.prepared = e.At
			}
		case EvCommitted:
			b := batch(e.Seq)
			if b.havePP && e.Node == b.node && b.committed == 0 {
				b.committed = e.At
			}
		case EvExecuted:
			b := batch(e.Seq)
			if b.havePP && e.Node == b.node {
				b.tentative = b.tentative || e.Aux != 0
			}
		case EvExecRequest:
			s := get(int32(e.Aux), e.Aux2)
			b := batch(e.Seq)
			if s.Executed == 0 && (!b.havePP || e.Node == b.node) {
				s.Executed = e.At
				s.Seq = e.Seq
			}
		case EvClientDone:
			s := get(int32(e.Aux), e.Aux2)
			if s.Done == 0 {
				s.Done = e.At
			}
		}
	}

	out := make([]Span, 0, len(order))
	for _, k := range order {
		s := spans[k]
		if b := batches[s.Seq]; s.Seq >= 0 && b != nil && b.havePP {
			s.PrePrepare = b.prePrepare
			s.Prepared = b.prepared
			s.Committed = b.committed
			s.Tentative = b.tentative
		}
		s.Complete = s.Send != 0 && s.RequestIn != 0 && s.PrePrepare != 0 &&
			s.Prepared != 0 && s.Executed != 0 && s.Done != 0
		out = append(out, *s)
	}
	return out
}

// Breakdown aggregates complete spans into mean per-phase durations.
type Breakdown struct {
	Count      int                      `json:"count"`      // complete spans aggregated
	Incomplete int                      `json:"incomplete"` // spans dropped for missing boundaries
	Phases     [NumPhases]time.Duration `json:"-"`          // mean duration per phase
	Total      time.Duration            `json:"total_ns"`   // mean end-to-end latency
	PhaseNS    map[string]time.Duration `json:"phases_ns"`  // Phases keyed by name, for JSON
}

// Summarize aggregates the spans that completed at or after the given
// cutoff (use the warmup duration to exclude cold-start requests; zero
// keeps everything). For each complete span the phases sum exactly to its
// latency, so the aggregated phase means sum exactly to the mean latency.
func Summarize(spans []Span, after time.Duration) Breakdown {
	var bd Breakdown
	var totals [NumPhases]time.Duration
	var total time.Duration
	for i := range spans {
		s := &spans[i]
		if !s.Complete {
			bd.Incomplete++
			continue
		}
		if s.Done < after {
			continue
		}
		ph := s.Phases()
		for p, d := range ph {
			totals[p] += d
		}
		total += s.Latency()
		bd.Count++
	}
	if bd.Count > 0 {
		for p := range totals {
			bd.Phases[p] = totals[p] / time.Duration(bd.Count)
		}
		bd.Total = total / time.Duration(bd.Count)
	}
	bd.PhaseNS = make(map[string]time.Duration, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		bd.PhaseNS[p.String()] = bd.Phases[p]
	}
	return bd
}

// PhaseSum returns the sum of the mean phase durations; by construction it
// differs from Total only by per-span integer-division rounding.
func (b *Breakdown) PhaseSum() time.Duration {
	var sum time.Duration
	for _, d := range b.Phases {
		sum += d
	}
	return sum
}

// Row renders one breakdown as tab-separated microsecond columns in phase
// order followed by the total, for table output.
func (b *Breakdown) Row() []string {
	out := make([]string, 0, NumPhases+1)
	for _, d := range b.Phases {
		out = append(out, fmt.Sprintf("%.1f", float64(d)/1e3))
	}
	return append(out, fmt.Sprintf("%.1f", float64(b.Total)/1e3))
}
