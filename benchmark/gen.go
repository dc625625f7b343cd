package main

import (
	"math"
	"math/bits"
)

// The benchmark owns its input generator instead of importing the
// repository's load package, so a rewrite of that package cannot move the
// ruler the rewrite is measured with.

// rng is one worker's xorshift64* stream.
type rng struct{ s uint64 }

// newRNG derives stream id's state from the run seed with a splitmix64 step:
// every (seed, id) pair gives its own reproducible stream.
func newRNG(seed uint64, id int) rng {
	z := seed + uint64(id+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1 // xorshift's one fixed point
	}
	return rng{s: z}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// below returns a uniform integer in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// zipf samples ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^s in O(1) through
// Vose's alias table.  A binary search over the cumulative weights would
// cost ~16 dependent cache misses per draw at 65k keys, a visible share of
// a sub-microsecond map operation.
type zipf struct {
	n     uint64
	prob  []uint32 // column i keeps rank i when the 32-bit draw is below prob[i]
	alias []uint32 // the rank column i yields otherwise
}

func newZipf(n int, s float64) *zipf {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	z := &zipf{n: uint64(n), prob: make([]uint32, n), alias: make([]uint32, n)}
	var small, large []int
	for i := range w {
		w[i] *= float64(n) / sum // mean column height 1
		z.alias[i] = uint32(i)
		if w[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		z.prob[s] = uint32(w[s] * (1 << 32))
		z.alias[s] = uint32(l)
		w[l] -= 1 - w[s]
		if w[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// What is left is full up to rounding.
	for _, i := range append(small, large...) {
		z.prob[i] = math.MaxUint32
	}
	return z
}

// sample draws one rank.  The high product word picks the column and the
// low word, independent of it, decides between the column and its alias.
func (z *zipf) sample(r *rng) uint64 {
	col, frac := bits.Mul64(r.next(), z.n)
	if uint32(frac>>32) < z.prob[col] {
		return col
	}
	return uint64(z.alias[col])
}

// Operation classes.  For the stack a write is a push or a pop; the worker
// alternates them.
const (
	opRead   = iota // Get or Peek
	opPut           // Put (map) or the next push/pop (stack)
	opDelete        // Delete (map only)
)

// stream is one worker's operation generator: an op class from the mix and
// a key from the workload's key space (1..keys).
type stream struct {
	r       rng
	keys    uint64
	z       *zipf  // nil draws keys uniformly
	readPct uint64 // ops below readPct are reads
	putPct  uint64 // ops in [readPct, readPct+putPct) are puts; the rest deletes
}

func newStream(w *workload, z *zipf, seed uint64, id int) *stream {
	return &stream{r: newRNG(seed, id), keys: uint64(w.keys), z: z, readPct: uint64(w.readPct), putPct: uint64(w.putPct)}
}

// next returns the next operation class and key.
func (s *stream) next() (op int, key uint64) {
	pick := s.r.below(100)
	if s.z != nil {
		// Scatter the hot ranks over the key space with an odd-multiplier
		// bijection (keys is a power of two), so popularity does not
		// follow insertion order and node index.
		key = (s.z.sample(&s.r)*0x9E3779B1)&(s.keys-1) + 1
	} else {
		key = s.r.below(s.keys) + 1
	}
	switch {
	case pick < s.readPct:
		return opRead, key
	case pick < s.readPct+s.putPct:
		return opPut, key
	}
	return opDelete, key
}
