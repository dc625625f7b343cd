package main

import "math/bits"

// hist is a log-linear latency histogram: values below 64 ns get exact
// buckets, and every octave above is split into 32 linear sub-buckets, so a
// bucket is at most 1/32 (3.125%) of its lower bound wide.  Recording is one
// bits.Len64 and an increment; the fixed array never allocates.
type hist struct {
	counts [32 * 60]uint64
	n      uint64
}

func bucketOf(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 6 // shift that leaves the top 6 bits, 32..63
	return e*32 + int(v>>e)
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width uint64) {
	if i < 64 {
		return uint64(i), 1
	}
	e := i/32 - 1
	return uint64(i%32+32) << e, 1 << e
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated linearly inside the bucket
// that holds it, so it lies in the same bucket as the exact order statistic.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, w := bucketRange(i)
			return float64(lo) + float64(w)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return float64(lo + w)
}
