package guard

import (
	"math/rand"
	"runtime"
	"testing"

	"abadetect/internal/shmem"
)

// regimeCases are the four default guards of NewMaker, tagged at 16 bits as
// on map-churn.
var regimeCases = []struct {
	name    string
	regime  Regime
	tagBits uint
}{{"raw", Raw, 0}, {"tag16", Tagged, 16}, {"llsc", LLSC, 0}, {"detector", Detector, 0}}

// TestHandleSize pins what a handle costs on a direct substrate: one
// allocation, at most 32 B for raw and tagged handles (the guarded word and
// the tag shift are bound into the handle) and at most 64 B for LL/SC and
// detector handles over Figure 3 (Figure 3's per-process state is held by
// value, not behind a second object).
func TestHandleSize(t *testing.T) {
	maxBytes := map[Regime]uint64{Raw: 32, Tagged: 32, LLSC: 64, Detector: 64}
	for _, rc := range regimeCases {
		t.Run(rc.name, func(t *testing.T) {
			g := mustGuard(t, NewMaker(shmem.NewNativeFactory(), 2, rc.regime, rc.tagBits), "ref", 16, 0)
			handle := func() {
				if _, err := g.Handle(1); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(100, handle); allocs != 1 {
				t.Errorf("Handle allocates %.1f times, want 1", allocs)
			}
			const handles = 10_000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range handles {
				handle()
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / handles; per > maxBytes[rc.regime] {
				t.Errorf("Handle allocates %d B, want at most %d", per, maxBytes[rc.regime])
			}
		})
	}
}

// TestGuardStepsPerCall pins each guard call's shared-memory steps on a
// counting substrate at n = 2, a sequence one handle runs alone.  Raw calls
// are one step each, and a tagged Store reads then CASes.  LL/SC and
// detector calls are Figure 3's: a Load is a VL, or an LL when the link is
// gone — the first Load's LL finds its bit clear (1 step), but a Load after
// the handle's own Commit or Store re-links past the bits that SC set
// (VL, read, read, CAS: 4); a Commit is an SC (read, CAS) and a Store an LL
// plus an SC (3).
func TestGuardStepsPerCall(t *testing.T) {
	calls := []struct {
		name string
		do   func(t *testing.T, h Handle)
	}{
		{"first Load", load},
		{"clean Load", load},
		{"Validate", func(t *testing.T, h Handle) {
			if !h.Validate() {
				t.Fatal("Validate after a clean Load failed")
			}
		}},
		{"Commit", func(t *testing.T, h Handle) {
			if !h.Commit(7) {
				t.Fatal("uncontended Commit failed")
			}
		}},
		{"Load after Commit", load},
		{"Store", func(_ *testing.T, h Handle) { h.Store(9) }},
		{"Load after Store", load},
	}
	want := map[Regime][]int64{
		Raw:      {1, 1, 1, 1, 1, 1, 1},
		Tagged:   {1, 1, 1, 1, 1, 2, 1},
		LLSC:     {1, 1, 1, 2, 4, 3, 4},
		Detector: {1, 1, 1, 2, 4, 3, 4},
	}
	for _, rc := range regimeCases {
		t.Run(rc.name, func(t *testing.T) {
			f := shmem.NewCounting(shmem.NewNativeFactory(), 2)
			g := mustGuard(t, NewMaker(f, 2, rc.regime, rc.tagBits), "ref", 8, 5)
			h := mustHandle(t, g, 0)
			for i, c := range calls {
				before := f.Steps(0)
				c.do(t, h)
				if got := f.Steps(0) - before; got != want[rc.regime][i] {
					t.Errorf("%s takes %d steps, want %d", c.name, got, want[rc.regime][i])
				}
			}
		})
	}
}

func load(_ *testing.T, h Handle) { h.Load() }

// guardSink keeps BenchmarkGuardLoad's loads live.
var guardSink Word

// BenchmarkGuardLoad prices the guard rung of the cost ladder: one Load and
// one Validate, the pair a map Get spends on each link it walks, for each of
// NewMaker's guards on the native substrate (two processes, handle 0).  hot
// loads one guard, so its handle and word stay in L1; cold visits the
// handles of 4,096 guards of one maker in a fixed shuffled order, as
// map-read's walks visit links, so each pair also pays for the lines its
// handle's layout makes it touch.
func BenchmarkGuardLoad(b *testing.B) {
	const n = 2
	for _, rc := range regimeCases {
		for _, c := range []struct {
			name   string
			guards int
		}{{"hot", 1}, {"cold", 4096}} {
			b.Run(rc.name+"/"+c.name, func(b *testing.B) {
				mk := NewMaker(shmem.NewNativeFactory(), n, rc.regime, rc.tagBits)
				hs := make([]Handle, c.guards)
				for i := range hs {
					g, err := mk("ref", 16, Word(i))
					if err != nil {
						b.Fatal(err)
					}
					if hs[i], err = g.Handle(0); err != nil {
						b.Fatal(err)
					}
				}
				rand.New(rand.NewSource(1)).Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
				var sum Word
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h := hs[i%len(hs)]
					v, _ := h.Load()
					if !h.Validate() {
						b.Fatal("Validate failed with no writer")
					}
					sum += v
				}
				guardSink = sum
			})
		}
	}
}
