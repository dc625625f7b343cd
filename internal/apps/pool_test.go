package apps

import (
	"slices"
	"testing"

	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// recordingPool is a FIFO pool that logs every release call reaching it.
type recordingPool struct {
	*fifoPool
	calls []releaseCall
}

// releaseCall is one logged release: a Release of one node, or a
// ReleaseBatch.
type releaseCall struct {
	batch bool
	idxs  []int
}

func (p *recordingPool) Handle(int) (PoolHandle, error) { return p, nil }

func (p *recordingPool) Release(idx int) {
	p.calls = append(p.calls, releaseCall{false, []int{idx}})
	p.fifoPool.Release(idx)
}

func (p *recordingPool) ReleaseBatch(idxs []int) {
	p.calls = append(p.calls, releaseCall{true, slices.Clone(idxs)})
	p.fifoPool.ReleaseBatch(idxs)
}

// TestReclaimedPoolReleasesOnePassAsOneBatch puts a recording pool under an
// hp-reclaimed pool of two processes and 16 nodes, whose scan threshold is
// 8, with every node allocated.  Each reclamation pass must reach the inner
// pool as one call after the reclaimer returns, in retire order: a pass of
// several nodes as one ReleaseBatch, never as Releases, and a pass of one
// node as one Release.
func TestReclaimedPoolReleasesOnePassAsOneBatch(t *testing.T) {
	const n, capacity = 2, 16
	batch := func(idxs ...int) releaseCall { return releaseCall{true, idxs} }
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, h PoolHandle)
		want []releaseCall
	}{
		{"threshold", func(t *testing.T, h PoolHandle) {
			for idx := 1; idx <= 8; idx++ {
				h.Release(idx)
			}
		}, []releaseCall{batch(1, 2, 3, 4, 5, 6, 7, 8)}},
		{"retire-batch", func(t *testing.T, h PoolHandle) {
			h.ReleaseBatch([]int{3, 1, 2})
			h.ReleaseBatch([]int{8, 7, 6, 5, 4})
		}, []releaseCall{batch(3, 1, 2, 8, 7, 6, 5, 4)}},
		{"drain", func(t *testing.T, h PoolHandle) {
			for idx := 5; idx >= 1; idx-- {
				h.Release(idx)
			}
			if got := h.Drain(); got != 5 {
				t.Errorf("Drain freed %d nodes, want 5", got)
			}
		}, []releaseCall{batch(5, 4, 3, 2, 1)}},
		{"alloc-exhaustion", func(t *testing.T, h PoolHandle) {
			for idx := 1; idx <= 5; idx++ {
				h.Release(idx)
			}
			if got := h.Alloc(); got != 1 {
				t.Errorf("Alloc after the exhaustion drain = %d, want 1", got)
			}
		}, []releaseCall{batch(1, 2, 3, 4, 5)}},
		{"one-node", func(t *testing.T, h PoolHandle) {
			h.Release(9)
			h.Drain()
		}, []releaseCall{{false, []int{9}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := &recordingPool{fifoPool: newFIFOPool(capacity)}
			rec, err := reclaim.NewHazard(shmem.NewNativeFactory(), "t", n, capacity)
			if err != nil {
				t.Fatal(err)
			}
			p := &reclaimedPool{inner: inner, rec: rec, exhaustions: shmem.NewStripedCounter()}
			h, err := p.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			for idx := 1; idx <= capacity; idx++ {
				if got := h.Alloc(); got != idx {
					t.Fatalf("fill Alloc = %d, want %d", got, idx)
				}
			}
			inner.calls = nil
			tc.run(t, h)
			if !slices.EqualFunc(inner.calls, tc.want, func(a, b releaseCall) bool {
				return a.batch == b.batch && slices.Equal(a.idxs, b.idxs)
			}) {
				t.Errorf("the inner pool saw %+v, want %+v", inner.calls, tc.want)
			}
		})
	}
}

// TestGuardedReleaseBatchMatchesReleases: a batch leaves the guarded free
// list exactly as the same Releases in sequence would, so routing a
// reclamation pass through ReleaseBatch keeps the pool's reuse order.
func TestGuardedReleaseBatchMatchesReleases(t *testing.T) {
	const capacity = 8
	build := func() (*guardedPool, PoolHandle) {
		f := shmem.NewNativeFactory()
		p, err := newGuardedPool(f, guard.NewMaker(f, 1, LLSC, 0), "t", capacity, capacity, shmem.BitsFor(capacity+1))
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.Handle(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			h.Alloc() // nodes 1..5 out; 6..8 stay on the free list
		}
		return p, h
	}
	for _, idxs := range [][]int{{2}, {1, 2}, {4, 1, 3}, {5, 4, 3, 2, 1}} {
		seq, hs := build()
		for _, idx := range idxs {
			hs.Release(idx)
		}
		bat, hb := build()
		hb.ReleaseBatch(idxs)
		if got, want := bat.Snapshot(), seq.Snapshot(); !slices.Equal(got, want) {
			t.Errorf("ReleaseBatch(%v) left %v, the same Releases leave %v", idxs, got, want)
		}
	}
}
