package kv

import (
	"runtime"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// BenchmarkMapOps prices the map's hot operations on map-read's shape:
// 2,048 nodes and buckets, 1,024 bound keys, LL/SC guards and hazard
// pointers, one handle.  Each sub-benchmark reports ns/op and allocs/op.
func BenchmarkMapOps(b *testing.B) {
	const capacity, keys = 2048, 1024
	for _, bc := range []struct {
		name string
		op   func(h *Handle, i int)
	}{
		{"GetHit", func(h *Handle, i int) { h.Get(Word(i%keys + 1)) }},
		{"GetMiss", func(h *Handle, i int) { h.Get(Word(keys + 1 + i%keys)) }},
		{"PutOverwrite", func(h *Handle, i int) { h.Put(Word(i%keys+1), Word(i)) }},
		{"DeletePut", func(h *Handle, i int) {
			k := Word(i%keys + 1)
			h.Delete(k)
			h.Put(k, Word(i))
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := NewMap(shmem.NewNativeFactory(), 2, capacity, capacity, apps.LLSC, 0, apps.WithReclaimer(reclaim.NewHazard))
			if err != nil {
				b.Fatal(err)
			}
			h, err := m.Handle(0)
			if err != nil {
				b.Fatal(err)
			}
			for k := Word(1); k <= keys; k++ {
				if !h.Put(k, k) {
					b.Fatalf("prepopulate Put(%d) failed", k)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.op(h, i)
			}
			b.StopTimer()
			if a := m.Audit(); a.Corrupt() || a.Live != keys {
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
// per-iteration figures, each reports ns and allocs per appended node or
// per split bucket.
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
			var added, mallocs uint64
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
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(added), "ns/"+bc.unit)
			b.ReportMetric(float64(mallocs)/float64(added), "allocs/"+bc.unit)
		})
	}
}
