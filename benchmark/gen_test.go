package main

import (
	"math"
	"slices"
	"testing"
)

func TestStreamRepeatsPerSeedAndWorker(t *testing.T) {
	for _, w := range workloads {
		var z *zipf
		if w.zipfS > 0 {
			z = newZipf(w.keys, w.zipfS)
		}
		for _, seed := range []uint64{0, 1, 42} {
			for pid := 0; pid < procs; pid++ {
				a, b := newStream(w, z, seed, pid), newStream(w, z, seed, pid)
				other := newStream(w, z, seed, pid+1)
				same := 0
				for i := 0; i < 10000; i++ {
					opA, kA := a.next()
					opB, kB := b.next()
					if opA != opB || kA != kB {
						t.Fatalf("%s seed %d pid %d: op %d differs between two streams: (%d,%d) vs (%d,%d)", w.name, seed, pid, i, opA, kA, opB, kB)
					}
					if kA < 1 || kA > uint64(w.keys) && !w.stack {
						t.Fatalf("%s: key %d outside 1..%d", w.name, kA, w.keys)
					}
					if opO, kO := other.next(); opO == opA && kO == kA {
						same++
					}
				}
				if !w.stack && same > 5000 {
					t.Errorf("%s seed %d: streams of pid %d and %d agree on %d of 10000 ops", w.name, seed, pid, pid+1, same)
				}
			}
		}
	}
}

func TestStreamMix(t *testing.T) {
	for _, w := range workloads {
		s := newStream(w, nil, 7, 0)
		var counts [3]int
		const n = 200000
		for i := 0; i < n; i++ {
			op, _ := s.next()
			counts[op]++
		}
		want := [3]float64{float64(w.readPct), float64(w.putPct), float64(100 - w.readPct - w.putPct)}
		for op, c := range counts {
			if got := 100 * float64(c) / n; math.Abs(got-want[op]) > 0.5 {
				t.Errorf("%s: op class %d is %.2f%% of ops, want %.0f%%", w.name, op, got, want[op])
			}
		}
	}
}

// The alias table must encode the Zipf weights exactly, up to the 2^-32
// rounding of each column's threshold.
func TestZipfAliasTableMatchesWeights(t *testing.T) {
	const n, s = 65536, 0.99
	z := newZipf(n, s)
	mass := make([]float64, n)
	for col := 0; col < n; col++ {
		keep := float64(z.prob[col]) / (1 << 32)
		mass[col] += keep
		mass[z.alias[col]] += 1 - keep
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
	}
	for i := 0; i < n; i++ {
		want := math.Pow(float64(i+1), -s) / sum
		if got := mass[i] / n; math.Abs(got-want) > 1e-9+want*1e-6 {
			t.Fatalf("rank %d: table gives probability %.9g, want %.9g", i, got, want)
		}
	}
}

func TestZipfSamplesFollowWeights(t *testing.T) {
	const n, draws = 1024, 2_000_000
	z := newZipf(n, 0.99)
	r := newRNG(3, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.sample(&r)]++
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -0.99)
	}
	for _, rank := range []int{0, 1, 9, 99} {
		want := math.Pow(float64(rank+1), -0.99) / sum * draws
		if got := float64(counts[rank]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want %.0f ± %.0f", rank, got, want, 5*math.Sqrt(want))
		}
	}
}

func TestHistQuantileWithinBucketError(t *testing.T) {
	r := newRNG(11, 0)
	var h hist
	xs := make([]int64, 0, 200000)
	for i := 0; i < cap(xs); i++ {
		// Log-uniform from 32 ns to 10 ms, the range op latencies span.
		// (Below 32 ns the exact 1 ns buckets are more than 1/32 wide.)
		v := int64(32 * math.Pow(3e5, float64(r.next()>>11)/(1<<53)))
		xs = append(xs, v)
		h.add(v)
	}
	slices.Sort(xs)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(xs[int(math.Ceil(q*float64(len(xs))))-1])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.032 {
			t.Errorf("q%.3f: histogram gives %.1f, exact %.1f: error %.2f%% > 3.2%%", q, got, exact, 100*rel)
		}
	}
}

func TestHistBucketsTileTheLine(t *testing.T) {
	next := uint64(0)
	for i := 0; i < len(hist{}.counts); i++ {
		lo, w := bucketRange(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if bucketOf(lo) != i || bucketOf(lo+w-1) != i {
			t.Fatalf("bucket %d = [%d, %d) does not map back to itself", i, lo, lo+w)
		}
		if lo >= 64 && float64(w)/float64(lo) > 1.0/32 {
			t.Fatalf("bucket %d is %.2f%% wide", i, 100*float64(w)/float64(lo))
		}
		next = lo + w
	}
}
