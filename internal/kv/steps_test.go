package kv

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// stepMix is a seeded single-handle operation mix over a prepopulated map,
// shaped like one of the benchmark's map workloads.
type stepMix struct {
	name    string
	prot    Protection
	tagBits uint
	keys    int     // key space 1..keys, all prepopulated
	zipfS   float64 // Zipf exponent of key popularity; 0 = uniform
	readPct int
	putPct  int // the rest are Deletes

	// The most steps per op a Get, Put and Delete may take: the counts of
	// the separate fixed-bucket protocol this map replaced, on the same mix.
	maxGet, maxPut, maxDel float64
}

// zipfKeys returns a sampler of keys 1..n with P(k) proportional to 1/k^s.
func zipfKeys(r *rand.Rand, n int, s float64) func() Word {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	return func() Word {
		return Word(sort.SearchFloat64s(cdf, r.Float64()*sum) + 1)
	}
}

// TestMapStepsPerOp prices Get, Put and Delete in shared-memory steps — the
// paper's t(n), exact for a given seed — on a counting substrate that every
// base object of the map, its guards and its hp reclaimer is allocated from.
// Both mixes run 2,048 nodes and 2,048 buckets, like map-read (LL/SC, Zipf
// keys, 90% Gets) and map-churn (16-bit tags, uniform keys, 80% writes).
func TestMapStepsPerOp(t *testing.T) {
	for _, mix := range []stepMix{
		{name: "map-read", prot: apps.LLSC, keys: 1024, zipfS: 0.99, readPct: 90, putPct: 5,
			maxGet: 5.866, maxPut: 35.128, maxDel: 25.841},
		{name: "map-churn", prot: apps.Tagged, tagBits: 16, keys: 512, readPct: 20, putPct: 40,
			maxGet: 4.734, maxPut: 21.157, maxDel: 15.792},
	} {
		t.Run(mix.name, func(t *testing.T) {
			const capacity, ops = 2048, 20_000
			f := shmem.NewCounting(shmem.NewNativeFactory(), 2)
			m, err := NewMap(f, 2, capacity, capacity, mix.prot, mix.tagBits, apps.WithReclaimer(reclaim.NewHazard))
			if err != nil {
				t.Fatal(err)
			}
			h, err := m.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= mix.keys; k++ {
				if !h.Put(Word(k), Word(k)) {
					t.Fatalf("prepopulate Put(%d) failed", k)
				}
			}
			r := rand.New(rand.NewSource(1))
			key := func() Word { return Word(r.Intn(mix.keys) + 1) }
			if mix.zipfS > 0 {
				key = zipfKeys(r, mix.keys, mix.zipfS)
			}
			var steps, count [3]int64 // Get, Put, Delete
			for i := 0; i < ops; i++ {
				k, roll := key(), r.Intn(100)
				before := f.Steps(0)
				op := 0
				switch {
				case roll < mix.readPct:
					h.Get(k)
				case roll < mix.readPct+mix.putPct:
					op = 1
					if !h.Put(k, Word(i)) {
						t.Fatalf("Put(%d) failed at op %d", k, i)
					}
				default:
					op = 2
					h.Delete(k)
				}
				steps[op] += f.Steps(0) - before
				count[op]++
			}
			per := func(op int) float64 { return float64(steps[op]) / float64(count[op]) }
			t.Logf("steps per op: Get %.3f  Put %.3f  Delete %.3f", per(0), per(1), per(2))
			for op, limit := range []float64{mix.maxGet, mix.maxPut, mix.maxDel} {
				if got := per(op); got > limit {
					t.Errorf("%s takes %.3f steps per op, want at most %.3f", [...]string{"Get", "Put", "Delete"}[op], got, limit)
				}
			}
			if a := m.Audit(); a.Corrupt() {
				t.Errorf("audit after the mix: %s", a)
			}
		})
	}
}
