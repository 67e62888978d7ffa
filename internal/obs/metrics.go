package obs

import (
	"fmt"
	"math/bits"
	"sort"
)

// Histogram bucket layout: values below subBuckets get one bucket each;
// larger values get log-linear buckets — one power-of-two range per leading
// bit position, split into subBuckets linear sub-buckets. Relative bucket
// width is 1/subBuckets (~6%), which bounds quantile error well below the
// run-to-run noise of any latency measurement.
const (
	subBits    = 4
	subBuckets = 1 << subBits // 16
	numBuckets = subBuckets + (63-subBits)*subBuckets
)

// Histogram is a fixed-size log-linear histogram of non-negative int64
// samples (typically latencies in nanoseconds). Observe is allocation-free;
// the bucket array is part of the struct.
type Histogram struct {
	buckets [numBuckets]int64
	count   int64
	sum     int64
	max     int64
}

// bucketIndex maps a sample to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	top := bits.Len64(uint64(v)) // >= subBits+1
	return subBuckets + (top-subBits-1)*subBuckets + int((v>>(top-subBits-1))&(subBuckets-1))
}

// bucketMid returns the midpoint of bucket i, the value quantiles report.
func bucketMid(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	r := (i - subBuckets) / subBuckets
	sub := int64((i - subBuckets) % subBuckets)
	width := int64(1) << r
	lower := int64(1)<<(r+subBits) + sub*width
	return lower + width/2
}

// Observe records one sample; negative samples clamp to zero.
//
//bftvet:allocfree
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the q-quantile (q in [0,1]) as the midpoint of the
// bucket holding the q-th ordered sample; 0 if the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.count-1))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > rank {
			return bucketMid(i)
		}
	}
	return h.max
}

// Reset discards all samples.
func (h *Histogram) Reset() { *h = Histogram{} }

// MetricKind discriminates snapshot entries.
type MetricKind uint8

// Snapshot entry kinds. The values appear in snapshot JSON and stay fixed.
const (
	KindGauge     MetricKind = 1
	KindHistogram MetricKind = 2
)

func (k MetricKind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "invalid"
}

// Metric is one read-only snapshot entry. Histograms fill Count/Sum and the
// quantile fields; gauges fill Value.
type Metric struct {
	Name  string     `json:"name"`
	Kind  MetricKind `json:"kind"`
	Value int64      `json:"value,omitempty"`
	Count int64      `json:"count,omitempty"`
	Sum   int64      `json:"sum,omitempty"`
	P50   int64      `json:"p50,omitempty"`
	P90   int64      `json:"p90,omitempty"`
	P99   int64      `json:"p99,omitempty"`
	Max   int64      `json:"max,omitempty"`
}

type registration struct {
	name string
	h    *Histogram
	f    func() int64
}

// Registry is the unified metrics surface: components register gauge
// functions (read-through views over existing counters such as
// core.Counters, ClientStats, sim.NodeStats, or the UDP transport's
// Oversized count) and histograms under unique names, and Snapshot renders
// them all in one deterministic, name-sorted list.
type Registry struct {
	entries []registration
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

func (r *Registry) lookup(name string) (registration, bool) {
	if i, ok := r.byName[name]; ok {
		return r.entries[i], true
	}
	return registration{}, false
}

func (r *Registry) add(e registration) {
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", e.name))
	}
	r.byName[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// GaugeFunc registers a read-through gauge whose value is computed by f at
// snapshot time. The name must be unused.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	r.add(registration{name: name, f: f})
}

// Histogram returns the histogram registered under name, creating it if new.
func (r *Registry) Histogram(name string) *Histogram {
	if e, ok := r.lookup(name); ok {
		if e.h == nil {
			panic(fmt.Sprintf("obs: metric %q is not a histogram", name))
		}
		return e.h
	}
	h := &Histogram{}
	r.add(registration{name: name, h: h})
	return h
}

// Snapshot renders every registered metric, sorted by name so output is
// deterministic regardless of registration order.
func (r *Registry) Snapshot() []Metric {
	out := make([]Metric, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.metric())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the snapshot entry for one metric by name.
func (r *Registry) Get(name string) (Metric, bool) {
	e, ok := r.lookup(name)
	if !ok {
		return Metric{}, false
	}
	return e.metric(), true
}

// metric renders one registration as a snapshot entry.
func (e registration) metric() Metric {
	m := Metric{Name: e.name}
	if e.f != nil {
		m.Kind, m.Value = KindGauge, e.f()
		return m
	}
	m.Kind = KindHistogram
	m.Count, m.Sum = e.h.Count(), e.h.Sum()
	m.P50, m.P90, m.P99 = e.h.Quantile(0.50), e.h.Quantile(0.90), e.h.Quantile(0.99)
	m.Max = e.h.Max()
	return m
}

// CommitCounts says how a replica's commit votes left it (core's settleCommits).
type CommitCounts struct {
	Piggybacked     int64 `json:"piggybacked"`       // votes that rode a pre-prepare or prepare
	Standalone      int64 `json:"standalone"`        // Commit messages sent, retransmissions included
	FlushHeldRead   int64 `json:"flush_held_read"`   // a read-only reply was waiting on the frontier
	FlushPeerCommit int64 `json:"flush_peer_commit"` // a peer's commit for a held batch arrived first
	FlushWindow     int64 `json:"flush_window"`      // the leader's own window was closed on them
	FlushTimer      int64 `json:"flush_timer"`       // the idle-link fallback fired
}
