package reclaim

import (
	"slices"
	"testing"

	"abadetect/internal/shmem"
)

// collector is a test Free sink recording freed indices in order.
type collector struct{ freed []int }

func (c *collector) free(idx int) { c.freed = append(c.freed, idx) }

func makers() map[string]Maker {
	return map[string]Maker{
		"none":  NewNone,
		"hp":    NewHazard,
		"epoch": NewEpoch,
	}
}

// TestRetireEventuallyFrees: with no protections anywhere, every retired
// node comes back through the free callback after at most a few drains,
// and the counters balance.
func TestRetireEventuallyFrees(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			r, err := mk(shmem.NewNativeFactory(), "t", 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			var c collector
			h, err := r.Handle(0, c.free)
			if err != nil {
				t.Fatal(err)
			}
			for idx := 1; idx <= 8; idx++ {
				h.Retire(idx)
			}
			for i := 0; i < 4 && len(c.freed) < 8; i++ {
				h.Drain()
			}
			if len(c.freed) != 8 {
				t.Fatalf("freed %d of 8 retired nodes: %v", len(c.freed), c.freed)
			}
			// Retire order is preserved so FIFO allocators stay FIFO.
			for i, idx := range c.freed {
				if idx != i+1 {
					t.Fatalf("free order %v is not retire order", c.freed)
				}
			}
			m := r.Metrics()
			if m.Retired != 8 || m.Freed != 8 || m.Deferred() != 0 {
				t.Errorf("metrics: %s", m)
			}
			if len(r.Limbo()) != 0 {
				t.Errorf("limbo not empty: %v", r.Limbo())
			}
		})
	}
}

// TestProtectDefersFree: a node protected by another process must stay in
// limbo across drains, and must be freed once the protection clears.  The
// none scheme is the documented exception: it frees immediately — that
// pass-through IS the ABA vulnerability.
func TestProtectDefersFree(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			r, err := mk(shmem.NewNativeFactory(), "t", 2, 8)
			if err != nil {
				t.Fatal(err)
			}
			var c0, c1 collector
			h0, err := r.Handle(0, c0.free)
			if err != nil {
				t.Fatal(err)
			}
			h1, err := r.Handle(1, c1.free)
			if err != nil {
				t.Fatal(err)
			}
			h1.Protect(0, 3) // process 1 holds node 3 (pins its window)
			h0.Retire(3)
			h0.Drain()
			if name == "none" {
				if len(c0.freed) != 1 {
					t.Fatalf("none must free immediately, freed %v", c0.freed)
				}
				return
			}
			if len(c0.freed) != 0 {
				t.Fatalf("%s freed %v under a live protection", name, c0.freed)
			}
			if got := r.Limbo(); len(got) != 1 || got[0] != 3 {
				t.Fatalf("limbo = %v, want [3]", got)
			}
			h1.Clear()
			for i := 0; i < 4 && len(c0.freed) == 0; i++ {
				h0.Drain()
			}
			if len(c0.freed) != 1 || c0.freed[0] != 3 {
				t.Fatalf("after clear: freed %v, want [3]", c0.freed)
			}
		})
	}
}

// TestHPStalledProcessDefersOnlyItsSlots: hp's robustness claim — a stalled
// process defers at most the nodes it protects; unrelated retires drain.
func TestHPStalledProcessDefersOnlyItsSlots(t *testing.T) {
	r, err := NewHazard(shmem.NewNativeFactory(), "t", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var c0, c1 collector
	h0, _ := r.Handle(0, c0.free)
	h1, _ := r.Handle(1, c1.free)
	h1.Protect(0, 1)
	h1.Protect(1, 2)
	// Process 1 stalls forever.  Process 0 retires nodes 1..10.
	for idx := 1; idx <= 10; idx++ {
		h0.Retire(idx)
	}
	h0.Drain()
	if len(c0.freed) != 8 {
		t.Fatalf("freed %d nodes, want 8 (all but the 2 hazarded)", len(c0.freed))
	}
	if got := r.Limbo(); len(got) != 2 {
		t.Fatalf("limbo = %v, want the two hazarded nodes", got)
	}
}

// TestHPStepsPerCall pins hp's shared-memory steps per call on the counting
// backend: Protect is one register write; Clear is one write per slot
// published since the last Clear, and Slots on a fresh handle's first Clear,
// which withdraws whatever an earlier handle of its process left published;
// a drain with nodes pending reads all n·Slots hazard registers — whether
// or not a hazard changed since the last drain — and a drain with nothing
// pending reads none.
func TestHPStepsPerCall(t *testing.T) {
	const n = 3
	cf := shmem.NewCounting(shmem.NewNativeFactory(), n)
	r, err := NewHazard(cf, "t", n, 64)
	if err != nil {
		t.Fatal(err)
	}
	var c0, c1 collector
	h0, _ := r.Handle(0, c0.free)
	h1, _ := r.Handle(1, c1.free)
	steps := func(pid int, call func()) int64 {
		cf.Reset()
		call()
		return cf.Steps(pid)
	}
	drain := func() { h0.Drain() }

	if got := steps(1, func() { h1.Protect(0, 50) }); got != 1 {
		t.Errorf("Protect took %d steps, want 1", got)
	}
	h0.Retire(1)
	if got := steps(0, drain); got != n*Slots {
		t.Errorf("drain after a Protect took %d steps, want n·Slots = %d", got, n*Slots)
	}
	h0.Retire(2)
	if got := steps(0, drain); got != n*Slots {
		t.Errorf("drain with unchanged hazards took %d steps, want n·Slots = %d", got, n*Slots)
	}
	if got := steps(0, drain); got != 0 {
		t.Errorf("drain with nothing pending took %d steps, want 0", got)
	}
	if !slices.Equal(c0.freed, []int{1, 2}) {
		t.Errorf("freed %v, want [1 2]", c0.freed)
	}
	// The protected node stays in limbo until its protector clears.
	h0.Retire(50)
	h0.Drain()
	if got := steps(1, h1.Clear); got != Slots {
		t.Errorf("a fresh handle's first Clear took %d steps, want Slots = %d", got, Slots)
	}
	if got := steps(0, drain); got != n*Slots {
		t.Errorf("drain after a Clear took %d steps, want n·Slots = %d", got, n*Slots)
	}
	if !slices.Equal(c0.freed, []int{1, 2, 50}) {
		t.Errorf("freed %v, want [1 2 50]", c0.freed)
	}
	for _, tc := range []struct {
		name     string
		protects []int // the slots protected since the last Clear
		want     int64
	}{
		{"none published", nil, 0},
		{"slot 0", []int{0}, 1},
		{"slot 0 twice", []int{0, 0}, 1},
		{"slot 1", []int{1}, 1},
		{"both slots", []int{0, 1}, 2},
	} {
		for _, slot := range tc.protects {
			h1.Protect(slot, 60+slot)
		}
		if got := steps(1, h1.Clear); got != tc.want {
			t.Errorf("Clear with %s took %d steps, want %d", tc.name, got, tc.want)
		}
	}
	// Whatever a Clear skipped was never published: every hazard reads 0.
	for i, hz := range r.(*hpReclaimer).hazards {
		if w := hz.Read(-1); w != 0 {
			t.Errorf("hazard %d reads %d after the Clears, want 0", i, w)
		}
	}
	// A new handle of pid 1 withdraws what the old one left published.
	h1.Protect(1, 70)
	h1b, _ := r.Handle(1, c1.free)
	if got := steps(1, h1b.Clear); got != Slots {
		t.Errorf("a new handle's first Clear took %d steps, want Slots = %d", got, Slots)
	}
	h0.Retire(70)
	h0.Drain()
	if !slices.Equal(c0.freed, []int{1, 2, 50, 70}) {
		t.Errorf("freed %v, want [1 2 50 70]: the new handle's Clear left 70 published", c0.freed)
	}
}

// TestEpochStalledProcessBlocksAllReuse: epoch's failure mode — one pinned
// process freezes the epoch, so nothing retired after its pin ever frees.
func TestEpochStalledProcessBlocksAllReuse(t *testing.T) {
	r, err := NewEpoch(shmem.NewNativeFactory(), "t", 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var c0, c1 collector
	h0, _ := r.Handle(0, c0.free)
	h1, _ := r.Handle(1, c1.free)
	h1.Protect(0, 0) // pid 1 pins the epoch and stalls
	for idx := 1; idx <= 10; idx++ {
		h0.Retire(idx)
	}
	for i := 0; i < 4; i++ {
		h0.Drain()
	}
	if len(c0.freed) != 0 {
		t.Fatalf("epoch freed %v with a pinned straggler", c0.freed)
	}
	m := r.Metrics()
	if m.Stalls == 0 {
		t.Error("blocked advances not counted as stalls")
	}
	// The straggler moves: reuse resumes.
	h1.Clear()
	for i := 0; i < 4 && len(c0.freed) < 10; i++ {
		h0.Drain()
	}
	if len(c0.freed) != 10 {
		t.Fatalf("after unpin: freed %d of 10", len(c0.freed))
	}
}

// TestEpochRepin: pin/unpin cycles must track the moving epoch, and a
// re-pin after the epoch advanced must not resurrect the old announcement.
func TestEpochRepin(t *testing.T) {
	r, err := NewEpoch(shmem.NewNativeFactory(), "t", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var c collector
	h0, _ := r.Handle(0, c.free)
	h1, _ := r.Handle(1, c.free)
	for round := 0; round < 5; round++ {
		h1.Protect(0, 0)
		h0.Retire(round + 1)
		h1.Clear()
		h0.Drain()
		h0.Drain()
	}
	if len(c.freed) == 0 {
		t.Fatal("pin/unpin cycles starved reclamation entirely")
	}
}

// TestHandleValidation: bad pids and nil callbacks are rejected.
func TestHandleValidation(t *testing.T) {
	for name, mk := range makers() {
		t.Run(name, func(t *testing.T) {
			if _, err := mk(shmem.NewNativeFactory(), "t", 0, 4); err == nil {
				t.Error("want error for n=0")
			}
			if _, err := mk(shmem.NewNativeFactory(), "t", 2, 0); err == nil {
				t.Error("want error for capacity=0")
			}
			r, err := mk(shmem.NewNativeFactory(), "t", 2, 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Handle(2, func(int) {}); err == nil {
				t.Error("want error for pid out of range")
			}
			if _, err := r.Handle(0, nil); err == nil {
				t.Error("want error for nil free callback")
			}
			if r.NumProcs() != 2 {
				t.Errorf("NumProcs = %d", r.NumProcs())
			}
		})
	}
}

// TestHotPathAllocFree pins the reclamation hot paths to zero allocations
// per op on the slab substrate: hp Protect/Clear/Retire(+scan) and the
// epoch pin/unpin/retire cycle all run on preallocated state.
func TestHotPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   Maker
	}{
		{"hp", NewHazard},
		{"epoch", NewEpoch},
		{"none", NewNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.mk(shmem.NewSlabFactory(), "t", 4, 64)
			if err != nil {
				t.Fatal(err)
			}
			h, err := r.Handle(0, func(int) {})
			if err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(500, func() {
				h.Protect(0, 7)
				h.Protect(1, 9)
				h.Clear()
			}); got != 0 {
				t.Errorf("Protect/Clear allocates %.1f/op, want 0", got)
			}
			idx := 1
			if got := testing.AllocsPerRun(500, func() {
				h.Retire(idx)
				idx = idx%64 + 1
				h.Drain()
			}); got != 0 {
				t.Errorf("Retire/Drain allocates %.1f/op, want 0", got)
			}
		})
	}
}
