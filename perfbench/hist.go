package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative int64 samples (ns):
// values below 2^histSubBits are exact, larger ones land in one of
// 2^histSubBits buckets per power of two, so a reported quantile is
// within 1/256 of the true sample (obs.Histogram's ±12.5% buckets are
// too coarse for the benchmark's bounds). One goroutine owns it.
type hist struct {
	counts []uint64
	n      uint64
}

const histSubBits = 7

func histBucket(v int64) int {
	if v < 1<<histSubBits {
		return int(max(v, 0))
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(v>>shift) - 1<<histSubBits
}

// histBounds returns bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi int64) {
	s := i >> histSubBits
	if s == 0 {
		return int64(i), int64(i) + 1
	}
	shift := s - 1
	lo = int64(i-s<<histSubBits+1<<histSubBits) << shift
	return lo, lo + 1<<shift
}

func (h *hist) observe(v int64) {
	i := histBucket(v)
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
}

// quantile returns the q-quantile (0 < q <= 1): the value of the
// ceil(q*n)-th smallest sample, interpolated linearly inside its
// bucket. NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, hi := histBounds(i)
		if hi-lo == 1 {
			return float64(lo)
		}
		return float64(lo) + float64(hi-lo)*float64(rank-seen)/float64(c+1)
	}
	return math.NaN() // unreachable: rank <= n
}

// median returns the median of xs (mean of the middle two for an even
// count), NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
