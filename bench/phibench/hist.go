package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear latency histogram over nanoseconds: 64
// sub-buckets per power of two, so a bucket is at most 1.6 % wide. It is
// a value with no pointers; a run preallocates one per worker and
// segment, and the harness's heap stays constant while it measures.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxBits = 36 // values at or above 2^36 ns (~69 s) land in the last bucket
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	if ns >= 1<<histMaxBits {
		return histBuckets - 1
	}
	shift := bits.Len64(uint64(ns)) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(ns>>shift) - histSub
}

// bucketBounds returns the first value of bucket b and the bucket's width.
func bucketBounds(b int) (lo, width int64) {
	if b < histSub {
		return int64(b), 1
	}
	shift := b>>histSubBits - 1
	return int64(histSub+b&(histSub-1)) << shift, 1 << shift
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it, so the result moves with the counts
// and is not pinned to bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(b)
			return float64(lo) + float64(width)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(histBuckets - 1)
	return float64(lo + width)
}

// quartiles returns the three quartiles the way Python's
// statistics.quantiles(n=4) does (exclusive method), which is what the
// benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}
