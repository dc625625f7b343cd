package apps

import (
	"sort"
	"testing"

	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// poolBooks checks the conservation law across a growth sequence: at every
// quiescent point, Snapshot (free + limbo + cached + wilderness) plus the
// indices the test still holds must be exactly 1..capacity, no duplicates.
func poolBooks(t *testing.T, p Pool, held map[int]bool, capacity int, when string) {
	t.Helper()
	seen := make(map[int]int)
	for _, idx := range p.Snapshot() {
		seen[idx]++
	}
	for idx := range held {
		seen[idx]++
	}
	var missing, doubled []int
	for i := 1; i <= capacity; i++ {
		switch seen[i] {
		case 0:
			missing = append(missing, i)
		case 1:
		default:
			doubled = append(doubled, i)
		}
	}
	var stray []int
	for idx := range seen {
		if idx < 1 || idx > capacity {
			stray = append(stray, idx)
		}
	}
	sort.Ints(missing)
	sort.Ints(doubled)
	sort.Ints(stray)
	if len(missing)+len(doubled)+len(stray) > 0 {
		t.Fatalf("%s: books off: missing=%v doubled=%v stray=%v (capacity %d)",
			when, missing, doubled, stray, capacity)
	}
}

// TestPoolGrowRetunesReclaimer pins the capacity seam: NewPool hands the
// reclaimer (built for the growth ceiling) the *initial* capacity, and
// Pool.Grow hands it each new live capacity (reclaim.Resizer), so the
// capacity-derived drain cadence always reflects the pool the allocator is
// actually running — a young pool drains eagerly, a grown pool lazily.
// The cadence is observed behaviorally: the retire count at which a
// scan/drain attempt fires, before and after growth.
func TestPoolGrowRetunesReclaimer(t *testing.T) {
	const (
		n       = 4
		initial = 8
		ceiling = 64
	)
	for _, tc := range []struct {
		name   string
		maker  reclaim.Maker
		before int // drain cadence at the initial capacity
		after  int // drain cadence once grown to the ceiling
	}{
		// hp: threshold = min(2·n·Slots, c/n) = min(16, 8/4) young, min(16,
		// 64/4) grown.
		{"hp", reclaim.NewHazard, 2, 16},
		// epoch: threshold = min(2n, c/n) = min(8, 2) young, min(8, 16)
		// grown.
		{"epoch", reclaim.NewEpoch, 2, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := shmem.NewNativeFactory()
			mk := guard.NewMaker(f, n, guard.LLSC, 0)
			cfg := StructConfig{Maker: mk, Reclaim: tc.maker}
			p, err := NewPool(f, cfg, "tune", n, initial, ceiling, shmem.BitsFor(ceiling+1))
			if err != nil {
				t.Fatal(err)
			}
			h, err := p.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			// sweeps counts drain attempts: epoch advance passes or hazard
			// scans.
			sweeps := func() int64 { return p.Stats().Reclaim.Scans }
			// cycle allocates k nodes and retires them all.
			cycle := func(k int) {
				t.Helper()
				idxs := make([]int, 0, k)
				for i := 0; i < k; i++ {
					idx := h.Alloc()
					if idx == 0 {
						t.Fatalf("alloc %d/%d failed", i+1, k)
					}
					idxs = append(idxs, idx)
				}
				for _, idx := range idxs {
					h.Release(idx)
				}
			}
			// Young pool: the cadence must derive from the LIVE capacity,
			// not the construction ceiling the buffers are sized for.
			cycle(tc.before - 1)
			if s := sweeps(); s != 0 {
				t.Fatalf("drain before the young-pool cadence (%d retires): sweeps=%d", tc.before-1, s)
			}
			cycle(1)
			base := sweeps()
			if base == 0 {
				t.Fatalf("no drain at the young-pool cadence %d", tc.before)
			}
			// Grown pool: the cadence must be recomputed for the new
			// capacity, not left at the young pool's eager setting.
			if got, err := p.Grow(0, ceiling); err != nil || got != ceiling {
				t.Fatalf("Grow(%d) = %d, %v", ceiling, got, err)
			}
			cycle(tc.after - 1)
			if s := sweeps(); s != base {
				t.Fatalf("drain before the grown cadence (%d retires): sweeps=%d, want %d", tc.after-1, s, base)
			}
			cycle(1)
			if s := sweeps(); s <= base {
				t.Fatalf("no drain at the grown cadence %d: sweeps=%d", tc.after, s)
			}
		})
	}
}

// TestPoolGrowthBooks drives every pool composition (fifo/guarded base,
// hp/epoch reclaimer, with and without a local cache) through a geometric
// growth sequence under live alloc/release traffic and checks that Snapshot
// and PoolStats stay exact across every segment append.
func TestPoolGrowthBooks(t *testing.T) {
	const (
		n       = 2
		initial = 4
		ceiling = 32
	)
	for _, tc := range []struct {
		name string
		cfg  func(mk guard.Maker) StructConfig
	}{
		{"fifo+hp", func(mk guard.Maker) StructConfig {
			return StructConfig{Maker: mk, Reclaim: reclaim.NewHazard}
		}},
		{"fifo+epoch", func(mk guard.Maker) StructConfig {
			return StructConfig{Maker: mk, Reclaim: reclaim.NewEpoch}
		}},
		{"guarded+hp", func(mk guard.Maker) StructConfig {
			return StructConfig{Maker: mk, GuardedPool: true, Reclaim: reclaim.NewHazard}
		}},
		{"guarded+epoch", func(mk guard.Maker) StructConfig {
			return StructConfig{Maker: mk, GuardedPool: true, Reclaim: reclaim.NewEpoch}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := shmem.NewNativeFactory()
			mk := guard.NewMaker(f, n, guard.LLSC, 0)
			p, err := NewPool(f, tc.cfg(mk), "grow", n, initial, ceiling, shmem.BitsFor(ceiling+1))
			if err != nil {
				t.Fatal(err)
			}
			h, err := p.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			held := make(map[int]bool)
			alloc := func() bool {
				idx := h.Alloc()
				if idx == 0 {
					return false
				}
				if held[idx] {
					t.Fatalf("double allocation of %d (held %v)", idx, held)
				}
				held[idx] = true
				return true
			}

			// Drain the initial capacity dry.
			for i := 0; i < initial; i++ {
				if !alloc() {
					t.Fatalf("exhausted before initial capacity (%d held)", len(held))
				}
			}
			if alloc() {
				t.Fatalf("alloc past capacity %d succeeded", initial)
			}
			if st := p.Stats(); st.Exhaustions == 0 {
				t.Errorf("exhaustion at initial capacity not counted: %+v", st)
			}
			poolBooks(t, p, held, initial, "at initial capacity")

			// Geometric appends; after each one the new wilderness must be
			// allocatable and the books exact.
			for cap := initial * 2; cap <= ceiling; cap *= 2 {
				got, err := p.Grow(0, cap)
				if err != nil || got != cap {
					t.Fatalf("Grow(%d) = %d, %v", cap, got, err)
				}
				poolBooks(t, p, held, cap, "after grow")
				// Churn: release half of what we hold (into limbo), then
				// allocate back up to the new capacity.
				i := 0
				for idx := range held {
					if i++; i%2 == 0 {
						h.Release(idx)
						delete(held, idx)
					}
				}
				for alloc() {
				}
				h.Clear()
				for h.Drain() > 0 {
				}
				poolBooks(t, p, held, cap, "after churn")
			}

			st := p.Stats()
			if want := int64(3); st.Grows != want { // 8, 16, 32
				t.Errorf("Grows = %d, want %d", st.Grows, want)
			}
			if got, err := p.Grow(0, ceiling/2); err != nil || got != ceiling {
				t.Errorf("shrink request = %d, %v; want no-op at %d", got, err, ceiling)
			}
			if st := p.Stats(); st.Grows != 3 {
				t.Errorf("no-op Grow counted: Grows = %d", st.Grows)
			}
		})
	}
}
