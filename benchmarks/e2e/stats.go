package main

import (
	"math"
	"math/bits"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, or 0 when it is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the tail percentiles a report may quote, ascending,
// each with the share of samples beyond it written as one in so many.
var tailPercentiles = []struct {
	p     float64
	oneIn int
}{{90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10_000}}

// highestPercentile returns the highest entry of tailPercentiles that still
// has at least ten of n samples beyond it, or 50 when none has: a tail
// figure resting on fewer samples is one run's luck.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, t := range tailPercentiles {
		if n/t.oneIn >= 10 {
			best = t.p
		}
	}
	return best
}

// ascending sorts v in place and returns it.
func ascending(v []int64) []int64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), which is what the benchmark contract's
// spread rule is stated in. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	switch len(v) {
	case 0:
		return 0
	case 1:
		return v[0]
	}
	_, q2, _ := quartiles(v)
	return q2
}

// spread is the interquartile distance as a share of the median; 0 when
// fewer than two values give no quartiles.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// histogram is a log-linear histogram of non-negative durations in
// nanoseconds: eight sub-buckets per power of two (at most 12.5 % wide),
// cheap enough to sit on every Send of a saturated run where keeping each
// sample would not be.
type histogram struct {
	counts [64 * histSub]int64
	n      int64
	sum    int64
}

const histSub = 8

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	sub := int(v>>(uint(exp)-3)) & (histSub - 1)
	return (exp-2)*histSub + sub
}

// histUpper is the largest value that lands in bucket b.
func histUpper(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	exp := uint(b/histSub + 2)
	sub := int64(b % histSub)
	return (1 << exp) + (sub+1)<<(exp-3) - 1
}

func (h *histogram) observe(v int64) {
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the upper edge of the bucket holding the q-quantile.
func (h *histogram) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return histUpper(b)
		}
	}
	return histUpper(len(h.counts) - 1)
}
