package kv

import (
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
	"abadetect/internal/sim"
)

// TestWaitFreeGetTornReadMatrix sweeps the interleaving the seqlock fence
// exists for: after every prefix of a reader's Get(1) on the one-node,
// one-bucket map 1=100, a writer deletes that binding and recycles the
// node under a *different* key, Put(5, 999).  A reader that accepts a key
// match read before the recycle with a value read after it returns a
// (key, value) pair that never coexisted, (999, true).
//
// Value-blind raw+none is the documented §1 victim: at the cut between its
// key load and its fence the recycled node restores the head link
// bit-for-bit, Validate accepts it, and the mixed pair escapes.  The sound
// regimes never return it, and at every cut whose block recycled the node
// inside the Get they miss, since the fence turns the attempt torn (counted
// in MapAudit.ReadRetries) and the re-read finds key 1 gone.  Raw under a
// reclaimer disables the fast path (Handle.fastOK) and reads through the
// protected path: its protection makes the writer's Put starve at some
// cuts, which is prevention, and it never returns the mixed pair either.
// Whatever the reader saw, the writer's operations were well formed, and
// the map must audit clean at every cut.
func TestWaitFreeGetTornReadMatrix(t *testing.T) {
	type cfg struct {
		name    string
		prot    Protection
		tagBits uint
		rc      reclaim.Maker
	}
	var cfgs []cfg
	prots := []struct {
		name    string
		prot    Protection
		tagBits uint
	}{
		{"raw", apps.Raw, 0},
		{"tag16", apps.Tagged, 16},
		{"llsc", apps.LLSC, 0},
		{"detector", apps.Detector, 0},
	}
	rcs := []struct {
		name string
		mk   reclaim.Maker
	}{
		{"none", nil},
		{"hp", reclaim.NewHazard},
		{"epoch", reclaim.NewEpoch},
	}
	for _, p := range prots {
		for _, r := range rcs {
			cfgs = append(cfgs, cfg{name: p.name + "+" + r.name, prot: p.prot, tagBits: p.tagBits, rc: r.mk})
		}
	}

	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			victim := c.prot == apps.Raw && c.rc == nil
			cuts, mixedCuts, tornCuts, starvedCuts := 0, 0, 0, 0
			for cut, finished := 0, false; !finished; cut++ {
				// One bucket and one node: key 5 *must* recycle key 1's
				// node at the same index.  Under hp/epoch the exhaustion
				// path drains eagerly, so a reader holding no protection
				// leaves the node free to recycle.
				setUp, recycled := false, false
				var v Word
				var ok bool
				runner, m := simMap(t, c.prot, c.tagBits, c.rc, 1, 2, func(hs []*Handle) []sim.Program {
					if hs[1].fastOK != (c.prot != apps.Raw || c.rc == nil) {
						t.Errorf("fastOK = %v", hs[1].fastOK)
					}
					return []sim.Program{
						func(*sim.Proc) {
							if !hs[0].Put(1, 100) {
								panic("set-up Put(1, 100) failed")
							}
							setUp = true
							if !hs[0].Delete(1) {
								panic("block Delete(1) failed")
							}
							recycled = hs[0].Put(5, 999)
						},
						func(*sim.Proc) { v, ok = hs[1].Get(1) },
					}
				})
				// The writer's set-up, then the reader's cut, the writer's
				// block, and the reader's end.
				_, err := runner.StepUntil(0, sweepLimit, func(int) bool { return setUp })
				if err == nil {
					finished, err = playCut(runner, 1, cut, 0, 1)
				}
				runner.Close()
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				cuts++
				a := m.Audit()
				if a.Corrupt() {
					t.Fatalf("cut %d: audit: %s", cut, a)
				}
				if a.ReadRetries > 0 {
					tornCuts++
				}
				if !recycled {
					starvedCuts++
				}
				if ok && v == 999 {
					mixedCuts++
					if !victim {
						t.Errorf("cut %d: Get(1) = (999, true): mixed (key, value) snapshot escaped the fence", cut)
					}
				} else if ok && v != 100 {
					t.Errorf("cut %d: Get(1) = (%d, true), a value never bound to key 1", cut, v)
				}
				if c.prot != apps.Raw && !finished && recycled && ok {
					t.Errorf("cut %d: Get(1) = (%d, true) across the recycle, want the re-read's miss", cut, v)
				}
			}
			t.Logf("%d cuts: %d mixed, %d torn, %d starved", cuts, mixedCuts, tornCuts, starvedCuts)
			switch {
			case victim:
				if mixedCuts == 0 {
					t.Error("value-blind raw+none never returned the mixed pair (999, true)")
				}
			case c.prot == apps.Raw:
				if starvedCuts == 0 {
					t.Error("the reader's protection never held the node")
				}
			default:
				if tornCuts == 0 {
					t.Error("no cut counted a torn attempt")
				}
				if starvedCuts != 0 {
					t.Errorf("the fast path holds no protection, yet %d cuts starved", starvedCuts)
				}
			}
		})
	}
}

// TestHotPathAllocsWaitFreeGet pins the two costs the wait-free fast path
// eliminates: heap allocations (none per clean Get) and safe-memory-
// reclamation traffic (zero shared-memory steps on the reclaimer's hazard
// registers — no slot publish, no pin, no drain).  The reclaimer's state is
// allocated through a step-counting factory, so "no hazard-slot traffic" is
// a measured zero, not an argument; a guarded writer op on the same handle
// shows the counter is live.
func TestHotPathAllocsWaitFreeGet(t *testing.T) {
	counting := shmem.NewCounting(shmem.NewNativeFactory(), 2)
	countedHazard := func(f shmem.Factory, name string, n, capacity int) (reclaim.Reclaimer, error) {
		return reclaim.NewHazard(counting, name, n, capacity)
	}
	m := buildMap(t, 2, 8, 4, apps.LLSC, 0, countedHazard)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Put(1, 100) || !w.Put(2, 200) {
		t.Fatal("setup Puts failed")
	}

	allocs := testing.AllocsPerRun(200, func() {
		if v, ok := h.Get(1); !ok || v != 100 {
			t.Fatalf("Get(1) = (%d, %v)", v, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("clean Get allocates %.1f objects/op, want 0", allocs)
	}

	base := counting.Steps(0)
	for i := 0; i < 100; i++ {
		h.Get(1) // hit
		h.Get(2) // hit, different chain position
		h.Get(7) // clean miss
	}
	if d := counting.Steps(0) - base; d != 0 {
		t.Errorf("300 clean Gets took %d reclaimer steps, want 0 (the fast path must not touch hazard slots)", d)
	}

	base = counting.Steps(0)
	if !h.Delete(1) {
		t.Fatal("Delete(1) failed")
	}
	if d := counting.Steps(0) - base; d == 0 {
		t.Error("guarded Delete took no reclaimer steps — the counter is not observing the hazard slots")
	}
}
