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

// stepMix is a seeded single-handle operation mix, shaped like one of the
// benchmark's map workloads.
type stepMix struct {
	name     string
	prot     Protection
	tagBits  uint
	capacity int     // initial nodes, and buckets
	growTo   int     // apps.WithGrowth ceiling; 0 = the capacity is fixed
	keys     int     // key space 1..keys
	prepop   bool    // bind every key before the mix
	zipfS    float64 // Zipf exponent of key popularity; 0 = uniform
	readPct  int
	putPct   int // the rest are Deletes

	// The most steps per op a Get, Put and Delete may take: the counts this
	// protocol takes on the mix, rounded up in the third decimal.
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
// The mixes are shaped like map-read (2,048 nodes and buckets, LL/SC, Zipf
// keys, 90% Gets), map-churn (the same map with 16-bit tags, uniform keys,
// 80% writes) and map-grow (32 nodes and buckets growing to 4,096, LL/SC,
// uniform keys, not prepopulated).
//
// The bounds are the counts of this protocol, where each write walks its
// run once in the common case: a Delete kills the binding it finds unless a
// k-node follows it, and a Put kills the binding it shadows through links
// it already holds armed, and hp's Clear writes only the hazard slots the
// operation published.  Every step a change adds to an operation fails
// the test.  The Get bound guards the read path against the writes' own
// commits: a handle's Commit or Store leaves its next Load of that link
// dirty, under LL/SC a full LL, so every write re-arms the links it wrote.
// Gets on map-read and map-churn then take exactly the steps they took when
// writes re-walked their runs; without Put's closing Loads map-read's Gets
// take 5.726 steps, and without Delete's 5.379.
func TestMapStepsPerOp(t *testing.T) {
	for _, mix := range []stepMix{
		{name: "map-read", prot: apps.LLSC, capacity: 2048, keys: 1024, prepop: true, zipfS: 0.99, readPct: 90, putPct: 5,
			maxGet: 5.295, maxPut: 26.237, maxDel: 13.317},
		{name: "map-churn", prot: apps.Tagged, tagBits: 16, capacity: 2048, keys: 512, prepop: true, readPct: 20, putPct: 40,
			maxGet: 4.141, maxPut: 13.297, maxDel: 7.607},
		{name: "map-grow", prot: apps.LLSC, capacity: 32, growTo: 4096, keys: 2048, readPct: 40, putPct: 50,
			maxGet: 11.427, maxPut: 39.494, maxDel: 23.331},
	} {
		t.Run(mix.name, func(t *testing.T) {
			const ops = 20_000
			opts := []apps.StructOption{apps.WithReclaimer(reclaim.NewHazard)}
			if mix.growTo > 0 {
				opts = append(opts, apps.WithGrowth(mix.growTo))
			}
			f := shmem.NewCounting(shmem.NewNativeFactory(), 2)
			m, err := NewMap(f, 2, mix.capacity, mix.capacity, mix.prot, mix.tagBits, opts...)
			if err != nil {
				t.Fatal(err)
			}
			h, err := m.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; mix.prepop && k <= mix.keys; k++ {
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
