package kv

import (
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
