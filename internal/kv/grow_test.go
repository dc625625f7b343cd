package kv

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// growMap builds a growth-mode map for tests: small initial capacity, the
// given ceiling, one initial bucket so splitting has real work to do.
func growMap(t *testing.T, n, initial, ceiling int, prot Protection, tagBits uint, opts ...apps.StructOption) *Map {
	t.Helper()
	f := shmem.NewNativeFactory()
	opts = append(opts, apps.WithGrowth(ceiling))
	m, err := NewMap(f, n, initial, 1, prot, tagBits, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGrowMapOracle drives a growing map against a Go-map oracle through a
// deterministic put/get/delete mix that crosses several segment appends and
// directory doublings mid-run (sequential-oracle conformance for a map that
// grows mid-run).
func TestGrowMapOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		prot Protection
		bits uint
		opts []apps.StructOption
	}{
		{"llsc", apps.LLSC, 0, nil},
		{"tag16", apps.Tagged, 16, nil},
		{"detector", apps.Detector, 0, nil},
		{"raw+hp", apps.Raw, 0, []apps.StructOption{apps.WithReclaimer(reclaim.NewHazard)}},
		{"llsc+epoch", apps.LLSC, 0, []apps.StructOption{apps.WithReclaimer(reclaim.NewEpoch)}},
		{"llsc+guarded", apps.LLSC, 0, []apps.StructOption{apps.WithGuardedPool()}},
		{"llsc+hp", apps.LLSC, 0, []apps.StructOption{apps.WithReclaimer(reclaim.NewHazard)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const keys = 600 // well past the initial capacity of 8
			m := growMap(t, 1, 8, 2048, tc.prot, tc.bits, tc.opts...)
			h, err := m.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			oracle := make(map[Word]Word)
			check := func(step string, k Word) {
				want, wantOK := oracle[k]
				got, gotOK := h.Get(k)
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("%s: Get(%d) = %d,%v; oracle %d,%v", step, k, got, gotOK, want, wantOK)
				}
			}
			// Phase 1: fill past several appends and splits.
			for k := Word(1); k <= keys; k++ {
				if !h.Put(k, k*10) {
					t.Fatalf("Put(%d) failed at capacity %d", k, m.Capacity())
				}
				oracle[k] = k * 10
				check("fill", k)
			}
			// Phase 2: overwrite a third, delete a third, probe everything.
			for k := Word(1); k <= keys; k++ {
				switch k % 3 {
				case 0:
					if !h.Put(k, k*100) {
						t.Fatalf("overwrite Put(%d) failed", k)
					}
					oracle[k] = k * 100
				case 1:
					if got := h.Delete(k); got != true {
						t.Fatalf("Delete(%d) = %v, want true", k, got)
					}
					delete(oracle, k)
				}
			}
			for k := Word(1); k <= keys+50; k++ {
				check("probe", k)
			}
			// Quiesce and audit.
			h.pool.Clear()
			for h.pool.Drain() > 0 {
			}
			a := m.Audit()
			if a.Corrupt() {
				t.Fatalf("audit corrupt: %s", a)
			}
			if a.Live != len(oracle) {
				t.Errorf("audit live = %d, oracle has %d", a.Live, len(oracle))
			}
			if a.SegmentAppends == 0 {
				t.Errorf("no segment appends recorded across %d keys from capacity 8: %s", keys, a)
			}
			if a.Splits == 0 {
				t.Errorf("no directory splits recorded: %s", a)
			}
			if m.Capacity() <= 8 || m.Capacity() > 2048 {
				t.Errorf("capacity %d out of growth range (8, 2048]", m.Capacity())
			}
			if m.Buckets() <= 1 {
				t.Errorf("directory never doubled: %d buckets", m.Buckets())
			}
		})
	}
}

// TestGrowMapCeiling checks the exhaustion report at the growth ceiling:
// Put fails only once every segment append up to MaxCapacity is used, and
// deleting frees capacity again.
func TestGrowMapCeiling(t *testing.T) {
	const ceiling = 64
	m := growMap(t, 1, 4, ceiling, apps.LLSC, 0)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	var stored []Word
	for k := Word(1); ; k++ {
		if !h.Put(k, k) {
			break
		}
		stored = append(stored, k)
	}
	// We must have far exceeded the initial capacity and stopped at (or just
	// under) the ceiling.
	if len(stored) < ceiling/2 {
		t.Fatalf("only %d puts before exhaustion at ceiling %d", len(stored), ceiling)
	}
	if m.Capacity() != ceiling {
		t.Fatalf("capacity at exhaustion = %d, want the ceiling %d", m.Capacity(), ceiling)
	}
	if st := m.PoolStats(); st.Exhaustions == 0 {
		t.Errorf("exhaustion at ceiling not counted: %+v", st)
	}
	// Freeing makes room: delete two, the next two puts succeed.
	for _, k := range stored[:2] {
		if !h.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	for i := 0; i < 2; i++ {
		k := Word(100000 + i)
		if !h.Put(k, k) {
			t.Fatalf("Put after frees failed (capacity %d)", m.Capacity())
		}
	}
	a := m.Audit()
	if a.Corrupt() {
		t.Fatalf("audit corrupt at ceiling: %s", a)
	}
}

// TestGrowBucketsHook checks the forced-doubling scenario hook and that the
// directory never exceeds its ceiling.
func TestGrowBucketsHook(t *testing.T) {
	m := growMap(t, 1, 4, 256, apps.LLSC, 0)
	if m.Buckets() != 1 {
		t.Fatalf("initial buckets = %d, want 1", m.Buckets())
	}
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	doubles := 0
	for h.GrowBuckets() {
		doubles++
		if doubles > 20 {
			t.Fatalf("GrowBuckets never hit the ceiling")
		}
	}
	maxB := floorPow2(256 / growThreshold)
	if m.Buckets() != maxB {
		t.Errorf("buckets at ceiling = %d, want %d", m.Buckets(), maxB)
	}
	a := m.Audit()
	if a.Corrupt() {
		t.Fatalf("audit corrupt after forced doubling: %s", a)
	}
	if a.Splits != int64(doubles) {
		t.Errorf("splits = %d, want %d", a.Splits, doubles)
	}
	// Puts still conform with a fully pre-split directory.
	for k := Word(1); k <= 100; k++ {
		if !h.Put(k, k+7) {
			t.Fatalf("Put(%d) after pre-split failed", k)
		}
	}
	for k := Word(1); k <= 100; k++ {
		if v, ok := h.Get(k); !ok || v != k+7 {
			t.Fatalf("Get(%d) = %d,%v after pre-split", k, v, ok)
		}
	}
	if a := m.Audit(); a.Corrupt() {
		t.Fatalf("audit corrupt after pre-split traffic: %s", a)
	}
}

// TestGrowMapConcurrent hammers a growing map from several goroutines under
// every sound regime × reclaimer cell, then audits: zero lost, zero doubled,
// split order intact.  (Run under -race in CI.)
func TestGrowMapConcurrent(t *testing.T) {
	const (
		n       = 4
		ops     = 4000
		keys    = 512
		initial = 8
		ceiling = 4096
	)
	for _, tc := range []struct {
		name string
		prot Protection
		bits uint
		opts []apps.StructOption
	}{
		{"llsc+none", apps.LLSC, 0, nil},
		{"tag16+hp", apps.Tagged, 16, []apps.StructOption{apps.WithReclaimer(reclaim.NewHazard)}},
		{"detector+epoch", apps.Detector, 0, []apps.StructOption{apps.WithReclaimer(reclaim.NewEpoch)}},
		{"raw+hp", apps.Raw, 0, []apps.StructOption{apps.WithReclaimer(reclaim.NewHazard)}},
		{"llsc+epoch+guarded", apps.LLSC, 0, []apps.StructOption{apps.WithReclaimer(reclaim.NewEpoch), apps.WithGuardedPool()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := growMap(t, n, initial, ceiling, tc.prot, tc.bits, tc.opts...)
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				h, err := m.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				h.MaxSpin = 200_000
				wg.Add(1)
				go func(pid int, h *Handle) {
					defer wg.Done()
					rng := Word(pid*2654435761 + 1)
					for i := 0; i < ops; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						k := rng%keys + 1
						switch i % 4 {
						case 0, 1:
							h.Get(k)
						case 2:
							h.Put(k, rng)
						case 3:
							h.Delete(k)
						}
					}
					h.pool.Clear()
					for h.pool.Drain() > 0 {
					}
				}(pid, h)
			}
			wg.Wait()
			a := m.Audit()
			if a.Corrupt() {
				t.Fatalf("audit corrupt after concurrent growth: %s", a)
			}
			if a.SegmentAppends == 0 {
				t.Errorf("no segment appends under %d-key traffic from capacity %d: %s", keys, initial, a)
			}
		})
	}
}

// TestGrowMapRejectsBadCeiling documents ceiling validation.
func TestGrowMapRejectsBadCeiling(t *testing.T) {
	f := shmem.NewNativeFactory()
	if _, err := NewMap(f, 2, 8, 1, apps.LLSC, 0, apps.WithGrowth(4)); err == nil {
		t.Fatal("ceiling below initial capacity accepted; want a construction error")
	}
}

// TestGrowMapFastPathBound checks that the wait-free read's hop bound is the
// ceiling's, not the initial capacity's, so runs longer than the *initial*
// capacity don't spuriously tear every fast read.
func TestGrowMapFastPathBound(t *testing.T) {
	const initial = 4
	m := growMap(t, 1, initial, 1024, apps.LLSC, 0)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	// With one bucket and no splits the global list is a single chain far
	// longer than the initial capacity.  (Suppress doubling by keeping the
	// put count under a threshold check window... it isn't — so force all
	// keys through bucket 0 by probing before any split can trigger.)
	const keys = 30 // under growCheckEvery, so no threshold check fires
	for k := Word(1); k <= keys; k++ {
		if !h.Put(k, k*3) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	if m.Buckets() != 1 {
		t.Skipf("directory doubled during fill; chain-length premise gone")
	}
	before := m.Audit().ReadFallbacks
	for k := Word(1); k <= keys; k++ {
		if v, ok := h.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if after := m.Audit().ReadFallbacks; after != before {
		t.Errorf("quiescent reads fell back %d times on a %d-node chain (capacity %d): stale hop bound",
			after-before, keys, m.Capacity())
	}
}

// TestGrowMapSortInvariant checks split ordering end to end with a directory
// that doubles while keys with colliding and distinct hashes interleave.
func TestGrowMapSortInvariant(t *testing.T) {
	m := growMap(t, 1, 8, 512, apps.Detector, 0)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := Word(1); k <= 200; k++ {
		if !h.Put(k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
		if k%17 == 0 {
			h.GrowBuckets() // force splits at awkward moments
		}
		if k%5 == 0 {
			h.Delete(k - 2)
		}
	}
	a := m.Audit()
	if a.Disordered {
		t.Fatalf("split order violated: %s", a)
	}
	if a.BadShortcuts > 0 {
		t.Fatalf("bad bucket shortcuts: %s", a)
	}
	if a.Corrupt() {
		t.Fatalf("audit corrupt: %s", a)
	}
	if a.Dummies < 2 {
		t.Errorf("expected multiple dummies after forced splits, got %d", a.Dummies)
	}
}

// TestGrowMapHandlesAfterResize builds handles before any growth, grows, and
// checks the old handles keep operating (lazy handle-table extension).
func TestGrowMapHandlesAfterResize(t *testing.T) {
	m := growMap(t, 2, 4, 512, apps.LLSC, 0)
	h0, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := m.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	for k := Word(1); k <= 150; k++ {
		if !h0.Put(k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	// h1 was built when capacity was 4 and the directory had 1 bucket; it
	// must still see every binding and be able to write.
	for k := Word(1); k <= 150; k++ {
		if v, ok := h1.Get(k); !ok || v != k {
			t.Fatalf("stale handle Get(%d) = %d,%v", k, v, ok)
		}
	}
	if !h1.Put(9999, 1) || !h1.Delete(9999) {
		t.Fatal("stale handle write path failed after resize")
	}
	if a := m.Audit(); a.Corrupt() {
		t.Fatalf("audit corrupt: %s", a)
	}
}

func TestFloorPow2(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8}, {1000, 512},
	} {
		if got := floorPow2(tc.in); got != tc.want {
			t.Errorf("floorPow2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestAfterIsReversedOrder: after compares unreversed sort keys exactly as
// the bit-reversed values order the list.
func TestAfterIsReversedOrder(t *testing.T) {
	x := Word(0x9e3779b97f4a7c15)
	for i := 0; i < 10000; i++ {
		a := x
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// A random pair, and a pair differing in bit i%64 alone.
		for _, b := range []Word{x, a ^ 1<<(i%64)} {
			if got, want := after(a, b), bits.Reverse64(a) > bits.Reverse64(b); got != want {
				t.Fatalf("after(%#x, %#x) = %v, want %v", a, b, got, want)
			}
		}
	}
	if !after(sortKeyData(7), sortKeyDummy(int(hash64(7)&3))) {
		t.Error("a key does not sort after its bucket's dummy")
	}
}

// String-format sanity for the new audit fields.
func TestGrowAuditString(t *testing.T) {
	a := MapAudit{Live: 1, Dummies: 2, Splits: 3, SegmentAppends: 4}
	s := a.String()
	for _, want := range []string{"dummies=2", "splits=3", "appends=4"} {
		if !containsStr(s, want) {
			t.Errorf("audit string %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

var _ = fmt.Sprintf // keep fmt for debug edits

// TestMapNodeBuildAllocs gates what a segment append pays per node on an
// untraced LL/SC map: two registers and one link guard, and no label
// formatted for a recorder that is not there.
func TestMapNodeBuildAllocs(t *testing.T) {
	const capacity, ceiling = 32, 4096
	m := growMap(t, 2, capacity, ceiling, apps.LLSC, 0, apps.WithReclaimer(reclaim.NewHazard))
	i := capacity
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		if _, err := m.buildNode(i); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("building one node allocates %.1f times, want at most 6", allocs)
	}
}
