package kv

import (
	"math/rand"
	"runtime"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// BenchmarkMapOps prices the map's hot operations on one handle of a
// 2,048-node, 2,048-bucket map with hazard pointers.  GetHit, GetMiss,
// PutOverwrite and DeletePut run on map-read's shape: LL/SC guards and 1,024
// bound keys.  Churn runs on map-churn's: 16-bit tags, 512 prepopulated
// keys, and a seeded uniform mix of Puts and Deletes.  Each sub-benchmark
// reports ns/op and allocs/op.
func BenchmarkMapOps(b *testing.B) {
	const capacity, readKeys, churnKeys = 2048, 1024, 512
	for _, bc := range []struct {
		name    string
		prot    Protection
		tagBits uint
		keys    int
		churn   bool // keys come and go; otherwise every key stays bound
		op      func(h *Handle, r *rand.Rand, i int)
	}{
		{"GetHit", apps.LLSC, 0, readKeys, false, func(h *Handle, _ *rand.Rand, i int) { h.Get(Word(i%readKeys + 1)) }},
		{"GetMiss", apps.LLSC, 0, readKeys, false, func(h *Handle, _ *rand.Rand, i int) { h.Get(Word(readKeys + 1 + i%readKeys)) }},
		{"PutOverwrite", apps.LLSC, 0, readKeys, false, func(h *Handle, _ *rand.Rand, i int) { h.Put(Word(i%readKeys+1), Word(i)) }},
		{"DeletePut", apps.LLSC, 0, readKeys, false, func(h *Handle, _ *rand.Rand, i int) {
			k := Word(i%readKeys + 1)
			h.Delete(k)
			h.Put(k, Word(i))
		}},
		{"Churn", apps.Tagged, 16, churnKeys, true, func(h *Handle, r *rand.Rand, i int) {
			if k := Word(r.Intn(churnKeys) + 1); r.Intn(2) == 0 {
				h.Put(k, Word(i))
			} else {
				h.Delete(k)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := NewMap(shmem.NewNativeFactory(), 2, capacity, capacity, bc.prot, bc.tagBits, apps.WithReclaimer(reclaim.NewHazard))
			if err != nil {
				b.Fatal(err)
			}
			h, err := m.Handle(0)
			if err != nil {
				b.Fatal(err)
			}
			for k := 1; k <= bc.keys; k++ {
				if !h.Put(Word(k), Word(k)) {
					b.Fatalf("prepopulate Put(%d) failed", k)
				}
			}
			r := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op(h, r, i)
			}
			b.StopTimer()
			if a := m.Audit(); a.Corrupt() || a.Live > bc.keys || !bc.churn && a.Live != bc.keys {
				b.Fatalf("audit after the run: %s", a)
			}
		})
	}
}

// BenchmarkMapGrow prices the map's two growth steps on map-grow's shape: a
// 32-node LL/SC map with hazard pointers, 32 buckets and a 4,096-node
// ceiling, one handle.  Each iteration grows a fresh map as far as the step
// goes: Append runs segment appends to the ceiling (4,064 nodes), Split runs
// directory doublings to the largest directory (480 buckets).  Besides the
// per-iteration figures, each reports ns, allocs and bytes per appended node
// or per split bucket.
func BenchmarkMapGrow(b *testing.B) {
	const capacity, ceiling = 32, 4096
	for _, bc := range []struct {
		name, unit string
		grow       func(m *Map, h *Handle) int // grows m, returns the nodes or buckets added
	}{
		{"Append", "node", func(m *Map, _ *Handle) int {
			for m.growNodes(0, m.Capacity()) {
			}
			return m.Capacity() - capacity
		}},
		{"Split", "bucket", func(m *Map, h *Handle) int {
			for h.GrowBuckets() {
			}
			return m.Buckets() - capacity // the directory starts at capacity buckets
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var added, mallocs, bytes uint64
			var before, after runtime.MemStats
			b.ReportAllocs()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewMap(shmem.NewNativeFactory(), 2, capacity, capacity, apps.LLSC, 0,
					apps.WithGrowth(ceiling), apps.WithReclaimer(reclaim.NewHazard))
				if err != nil {
					b.Fatal(err)
				}
				h, err := m.Handle(0)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				b.StartTimer()
				added += uint64(bc.grow(m, h))
				b.StopTimer()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(added), "ns/"+bc.unit)
			b.ReportMetric(float64(mallocs)/float64(added), "allocs/"+bc.unit)
			b.ReportMetric(float64(bytes)/float64(added), "B/"+bc.unit)
		})
	}
}
