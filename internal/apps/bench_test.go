package apps

import (
	"testing"

	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// BenchmarkPoolCycle prices the node allocator's rung of the cost ladder on
// stack-traced's shape: one handle of a 1,024-node, two-process pool runs
// Alloc, Protect(0, idx), Clear and Release(idx) per iteration.  It covers
// the FIFO pool and the guarded free list (with a detector head guard),
// each under the none, hp and epoch reclaimers, and reports ns/op and
// allocs/op.  Under hp every eighth Release ends in a scan that frees eight
// nodes; under epoch every fourth Release drains.
func BenchmarkPoolCycle(b *testing.B) {
	const n, capacity = 2, 1024
	for _, pool := range []struct {
		name    string
		guarded bool
	}{{"fifo", false}, {"guarded", true}} {
		for _, rc := range []struct {
			name string
			mk   reclaim.Maker
		}{{"none", reclaim.NewNone}, {"hp", reclaim.NewHazard}, {"epoch", reclaim.NewEpoch}} {
			b.Run(pool.name+"+"+rc.name, func(b *testing.B) {
				f := shmem.NewNativeFactory()
				cfg := StructConfig{Maker: guard.NewMaker(f, n, Detector, 0), GuardedPool: pool.guarded, Reclaim: rc.mk}
				p, err := NewPool(f, cfg, "bench", n, capacity, capacity, shmem.BitsFor(capacity+1))
				if err != nil {
					b.Fatal(err)
				}
				h, err := p.Handle(0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					idx := h.Alloc()
					if idx == 0 {
						b.Fatalf("Alloc exhausted the pool at iteration %d", i)
					}
					h.Protect(0, idx)
					h.Clear()
					h.Release(idx)
				}
			})
		}
	}
}
