package reclaim

import (
	"testing"

	"abadetect/internal/shmem"
)

// Tests for the reclamation engine: zero-shared-step retirement
// (stamp-at-drain), batched retirement, capacity resizing, and the
// epoch:auto self-tuning cadence.

// TestEpochRetireTakesNoSharedSteps pins the satellite fix: Retire used to
// read the shared global epoch register on every call; now the epoch is
// read once per drain boundary, so the first threshold-1 retires take zero
// shared-memory steps (measured through the counting backend).
func TestEpochRetireTakesNoSharedSteps(t *testing.T) {
	cf := shmem.NewCounting(shmem.NewNativeFactory(), 2)
	r, err := NewEpochEvery(8)(cf, "t", 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	h, err := r.Handle(0, c.free)
	if err != nil {
		t.Fatal(err)
	}
	cf.Reset()
	for idx := 1; idx < 8; idx++ {
		h.Retire(idx)
	}
	if got := cf.Steps(0); got != 0 {
		t.Errorf("7 below-cadence retires took %d shared steps, want 0", got)
	}
	// The cadence-crossing retire pays the single stamp read plus the
	// drain's sweep; everything still frees, in retire order.
	h.Retire(8)
	if got := cf.Steps(0); got == 0 {
		t.Error("the draining retire took no shared steps — the sweep cannot have run")
	}
	for i := 0; i < 4 && len(c.freed) < 8; i++ {
		h.Drain()
	}
	if len(c.freed) != 8 {
		t.Fatalf("freed %d of 8: %v", len(c.freed), c.freed)
	}
	for i, idx := range c.freed {
		if idx != i+1 {
			t.Fatalf("free order %v is not retire order", c.freed)
		}
	}
}

// TestRetireBatchFreesInOrder: a batch retire behaves exactly like the
// per-node loop — same frees, same order — while counting one batch.
func TestRetireBatchFreesInOrder(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			r, err := mk(shmem.NewNativeFactory(), "t", 2, 16)
			if err != nil {
				t.Fatal(err)
			}
			var c collector
			h, err := r.Handle(0, c.free)
			if err != nil {
				t.Fatal(err)
			}
			h.RetireBatch(nil) // empty batches are free no-ops
			h.RetireBatch([]int{1, 2, 3})
			h.RetireBatch([]int{4, 5, 6, 7, 8})
			for i := 0; i < 4 && len(c.freed) < 8; i++ {
				h.Drain()
			}
			if len(c.freed) != 8 {
				t.Fatalf("freed %d of 8: %v", len(c.freed), c.freed)
			}
			for i, idx := range c.freed {
				if idx != i+1 {
					t.Fatalf("free order %v is not retire order", c.freed)
				}
			}
			m := r.Metrics()
			if m.Retired != 8 || m.Freed != 8 {
				t.Errorf("metrics: %s", m)
			}
			if m.Batches != 2 {
				t.Errorf("batches = %d, want 2 (empty batches don't count)", m.Batches)
			}
		})
	}
}

// TestRetireBatchRespectsProtections: batched retirement must defer exactly
// like the per-node path under a live protection.
func TestRetireBatchRespectsProtections(t *testing.T) {
	r, err := NewHazard(shmem.NewNativeFactory(), "t", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var c0, c1 collector
	h0, _ := r.Handle(0, c0.free)
	h1, _ := r.Handle(1, c1.free)
	h1.Protect(0, 3)
	h0.RetireBatch([]int{1, 2, 3, 4})
	h0.Drain()
	if len(c0.freed) != 3 {
		t.Fatalf("freed %v, want all but the hazarded node", c0.freed)
	}
	if got := r.Limbo(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("limbo = %v, want [3]", got)
	}
	h1.Clear()
	h0.Drain()
	if len(c0.freed) != 4 {
		t.Fatalf("after clear: freed %v", c0.freed)
	}
}

// TestResizeRecomputesThreshold: the capacity/n cadence clamp must follow
// the live capacity through Resize in both directions.
func TestResizeRecomputesThreshold(t *testing.T) {
	// hp: built for a 64-node ceiling (threshold min(2·n·Slots, 64/2) = 8),
	// resized down to 4 live nodes: threshold must clamp to 4/2 = 2.
	hr, err := NewHazard(shmem.NewNativeFactory(), "t", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	hp := hr.(*hpReclaimer)
	if got := hp.threshold.Load(); got != 8 {
		t.Fatalf("hp ceiling threshold = %d, want 8", got)
	}
	hr.(Resizer).Resize(4)
	if got := hp.threshold.Load(); got != 2 {
		t.Errorf("hp resized threshold = %d, want 2", got)
	}
	hr.(Resizer).Resize(64)
	if got := hp.threshold.Load(); got != 8 {
		t.Errorf("hp re-grown threshold = %d, want 8", got)
	}

	// epoch: same shape with the min(2n, c/n) clamp.
	er, err := NewEpoch(shmem.NewNativeFactory(), "t", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	ep := er.(*epochReclaimer)
	if got := ep.threshold.Load(); got != 4 {
		t.Fatalf("epoch ceiling threshold = %d, want 4", got)
	}
	er.(Resizer).Resize(2)
	if got := ep.threshold.Load(); got != 1 {
		t.Errorf("epoch resized threshold = %d, want 1", got)
	}

	// An explicit epoch:k cadence is pinned by the caller: Resize keeps it.
	kr, err := NewEpochEvery(5)(shmem.NewNativeFactory(), "t", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	kr.(Resizer).Resize(4)
	if got := kr.(*epochReclaimer).threshold.Load(); got != 5 {
		t.Errorf("epoch:k threshold after Resize = %d, want the pinned 5", got)
	}

	// none has no cadence and no Resizer — the seam is optional.
	nr, err := NewNone(shmem.NewNativeFactory(), "t", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := nr.(Resizer); ok {
		t.Error("none should not implement Resizer")
	}
}

// TestEpochAutoTightensUnderPressure: an alloc miss collapses the cadence
// to 1 (drain per retire) and the counters record the move; empty drains
// relax it back toward the default ceiling.
func TestEpochAutoTightensUnderPressure(t *testing.T) {
	r, err := NewEpochAuto(shmem.NewNativeFactory(), "t", 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheme() != "epoch:auto" {
		t.Fatalf("scheme = %q", r.Scheme())
	}
	var c collector
	h, err := r.Handle(0, c.free)
	if err != nil {
		t.Fatal(err)
	}
	eh := h.(*epochHandle)
	ceiling := int(eh.r.threshold.Load())
	if eh.k != ceiling {
		t.Fatalf("initial cadence %d, want the ceiling %d", eh.k, ceiling)
	}
	// Below-cadence retires do not drain...
	h.Retire(1)
	if m := r.Metrics(); m.Scans != 0 {
		t.Fatalf("scans = %d before any pressure", m.Scans)
	}
	// ...but after backpressure, every retire drains.
	h.(Pressured).AllocMiss()
	if eh.k != 1 {
		t.Fatalf("cadence after AllocMiss = %d, want 1", eh.k)
	}
	m := r.Metrics()
	if m.Pressure != 1 || m.Tightens != 1 {
		t.Fatalf("pressure counters: %s", m)
	}
	h.Retire(2)
	if m := r.Metrics(); m.Scans == 0 {
		t.Error("tightened cadence did not drain on retire")
	}
	// Drains that empty the pending list relax the cadence back up.
	for i := 0; i < 8 && len(c.freed) < 2; i++ {
		h.Drain()
	}
	if len(c.freed) != 2 {
		t.Fatalf("freed %d of 2", len(c.freed))
	}
	for i := 0; i < 8 && eh.k < ceiling; i++ {
		h.Retire(3)
		for j := 0; j < 4 && eh.k < ceiling; j++ {
			h.Drain()
		}
	}
	if eh.k != ceiling {
		t.Errorf("cadence did not relax back to the ceiling: k=%d want %d", eh.k, ceiling)
	}
	if m := r.Metrics(); m.Relaxes == 0 {
		t.Error("relaxations not counted")
	}
}

// TestEpochAutoStallTightens: a drain that frees nothing while nodes wait
// (a pinned straggler) halves the cadence — the limbo-pressure feedback.
func TestEpochAutoStallTightens(t *testing.T) {
	r, err := NewEpochAuto(shmem.NewNativeFactory(), "t", 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	var c0, c1 collector
	h0, _ := r.Handle(0, c0.free)
	h1, _ := r.Handle(1, c1.free)
	eh := h0.(*epochHandle)
	before := eh.k
	h1.Protect(0, 0) // pin the epoch
	h0.Retire(1)
	h0.Drain() // stalls: cannot advance past the pin
	if eh.k >= before {
		t.Errorf("cadence after a stalled drain = %d, want < %d", eh.k, before)
	}
	if m := r.Metrics(); m.Tightens == 0 || m.Stalls == 0 {
		t.Errorf("stall feedback not counted: %s", m)
	}
	h1.Clear()
	for i := 0; i < 4 && len(c0.freed) < 1; i++ {
		h0.Drain()
	}
	if len(c0.freed) != 1 {
		t.Fatal("node never freed after the pin cleared")
	}
}

// TestEpochAutoConformance: epoch:auto must keep every epoch safety
// property — deferred frees under a pin, retire-order frees, clean limbo.
func TestEpochAutoConformance(t *testing.T) {
	r, err := NewEpochAuto(shmem.NewNativeFactory(), "t", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var c0, c1 collector
	h0, _ := r.Handle(0, c0.free)
	h1, _ := r.Handle(1, c1.free)
	h1.Protect(0, 3)
	for idx := 1; idx <= 10; idx++ {
		h0.Retire(idx)
	}
	for i := 0; i < 4; i++ {
		h0.Drain()
	}
	if len(c0.freed) != 0 {
		t.Fatalf("epoch:auto freed %v under a pinned straggler", c0.freed)
	}
	h1.Clear()
	for i := 0; i < 4 && len(c0.freed) < 10; i++ {
		h0.Drain()
	}
	if len(c0.freed) != 10 {
		t.Fatalf("freed %d of 10 after unpin", len(c0.freed))
	}
	for i, idx := range c0.freed {
		if idx != i+1 {
			t.Fatalf("free order %v is not retire order", c0.freed)
		}
	}
	if len(r.Limbo()) != 0 {
		t.Errorf("limbo not empty: %v", r.Limbo())
	}
}

// TestHotPathBatchAllocFree extends the zero-allocation pins to the batch
// seam and the sorted/cached hazard scan: RetireBatch + Drain cycles must
// run allocation-free on every scheme, snapshot sorting included.
func TestHotPathBatchAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   Maker
	}{
		{"hp", NewHazard},
		{"epoch", NewEpoch},
		{"epoch:auto", NewEpochAuto},
		{"none", NewNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// n=16 puts the hp snapshot (32 slots) over the sort cutover, so
			// the sorted binary-search path is the one being pinned.
			r, err := tc.mk(shmem.NewSlabFactory(), "t", 16, 256)
			if err != nil {
				t.Fatal(err)
			}
			handles := make([]Handle, 16)
			for pid := range handles {
				if handles[pid], err = r.Handle(pid, func(int) {}); err != nil {
					t.Fatal(err)
				}
			}
			for pid, h := range handles {
				h.Protect(0, pid*2+1)
				h.Protect(1, pid*2+2)
			}
			h := handles[0]
			batch := []int{0, 0, 0, 0}
			base := 33
			if got := testing.AllocsPerRun(500, func() {
				for i := range batch {
					batch[i] = base + i
				}
				base = (base+4)%200 + 33
				h.RetireBatch(batch)
				h.Drain()
			}); got != 0 {
				t.Errorf("RetireBatch/Drain allocates %.1f/op, want 0", got)
			}
		})
	}
}
