package verify

import (
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/kv"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// Reclamation verification: the deterministic §1 corruption scripts must be
// *prevented* — not detected — by hazard-pointer and epoch reclamation under
// a raw guard, the stalled-process experiment must separate the two schemes
// (hp keeps draining, epoch freezes), and sequential conformance must hold
// with deferred reuse underneath.

func reclaimMakers() []struct {
	name string
	mk   reclaim.Maker
} {
	return []struct {
		name string
		mk   reclaim.Maker
	}{
		{"hp", reclaim.NewHazard},
		{"epoch", reclaim.NewEpoch},
	}
}

// TestReclaimPreventsScenariosWithZeroNearMisses: raw+hp and raw+epoch pass
// the deterministic Stack/QueueABAScenario that raw+none provably corrupts,
// and they do it with zero guard near-misses — reclamation stops the ABA
// the guard never sees, which is exactly the distinction between
// *prevention* (allocation discipline) and *detection* (tag/LL/SC/detector
// machinery) the issue names.
func TestReclaimPreventsScenariosWithZeroNearMisses(t *testing.T) {
	for _, rc := range reclaimMakers() {
		t.Run("stack/raw+"+rc.name, func(t *testing.T) {
			res, err := apps.StackABAScenario(apps.Raw, 0, apps.WithReclaimer(rc.mk))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled || res.Corrupt {
				t.Fatalf("fooled=%v corrupt=%v (%s)", res.Fooled, res.Corrupt, res.Detail)
			}
			if res.Guard.NearMisses != 0 {
				t.Errorf("guard near-misses = %d, want 0 (prevention, not detection)", res.Guard.NearMisses)
			}
		})
		t.Run("queue/raw+"+rc.name, func(t *testing.T) {
			res, err := apps.QueueABAScenario(apps.Raw, 0, apps.WithReclaimer(rc.mk))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled || res.Corrupt {
				t.Fatalf("fooled=%v corrupt=%v (%s)", res.Fooled, res.Corrupt, res.Detail)
			}
			if res.Guard.NearMisses != 0 {
				t.Errorf("guard near-misses = %d, want 0 (prevention, not detection)", res.Guard.NearMisses)
			}
		})
	}
	// The control arm: the pass-through reclaimer must reproduce the §1
	// corruption under a raw guard.
	res, err := apps.StackABAScenario(apps.Raw, 0, apps.WithReclaimer(reclaim.NewNone))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fooled || !res.Corrupt {
		t.Errorf("raw+none: fooled=%v corrupt=%v, want the corruption back", res.Fooled, res.Corrupt)
	}
}

// TestStalledProcessEpochStallsHPDrains is the robustness separation the
// issue names: with one process stalled inside its window, hp defers only
// the nodes that process protects while everything else keeps draining;
// epoch reclamation freezes — the stalled pin blocks the epoch, nothing
// frees, and the pool eventually exhausts.  Once the straggler moves, epoch
// recovers.
func TestStalledProcessEpochStallsHPDrains(t *testing.T) {
	run := func(t *testing.T, mk reclaim.Maker) (stalledStats, finalStats apps.PoolStats) {
		f := shmem.NewNativeFactory()
		s, err := apps.NewStack(f, 2, 8, apps.Raw, 0, apps.WithReclaimer(mk))
		if err != nil {
			t.Fatal(err)
		}
		victim, err := s.Handle(0)
		if err != nil {
			t.Fatal(err)
		}
		churner, err := s.Handle(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if !churner.Push(apps.Word(i)) {
				t.Fatalf("setup push %d failed", i)
			}
		}
		// The victim stalls mid-pop, protection published (hp: a hazard on
		// the top node; epoch: a pin on the current epoch).
		if _, _, empty := victim.PopBegin(); empty {
			t.Fatal("stack unexpectedly empty")
		}
		// The churner keeps working around the stall.
		for i := 0; i < 100; i++ {
			churner.Push(apps.Word(100 + i))
			churner.Pop()
		}
		stalledStats = s.PoolStats()
		// The straggler moves: its commit (win or lose) withdraws the
		// protection, and the churner's next operations drain the backlog.
		victim.PopCommit()
		for i := 0; i < 20; i++ {
			churner.Push(apps.Word(200 + i))
			churner.Pop()
		}
		if a := s.Audit(); a.Corrupt() {
			t.Errorf("audit after recovery: %s", a)
		}
		return stalledStats, s.PoolStats()
	}

	t.Run("hp", func(t *testing.T) {
		stalled, final := run(t, reclaim.NewHazard)
		if stalled.Reclaim.Freed == 0 {
			t.Errorf("hp froze under a stalled process: %s", stalled.Reclaim)
		}
		if d := stalled.Reclaim.Deferred(); d > reclaim.Slots {
			t.Errorf("hp deferred %d nodes under one stalled process, want at most its %d slots", d, reclaim.Slots)
		}
		if final.Reclaim.Freed <= stalled.Reclaim.Freed {
			t.Errorf("hp stopped draining after recovery: %s -> %s", stalled.Reclaim, final.Reclaim)
		}
	})
	t.Run("epoch", func(t *testing.T) {
		stalled, final := run(t, reclaim.NewEpoch)
		if stalled.Reclaim.Freed != 0 {
			t.Errorf("epoch freed %d nodes despite the stalled pin, want 0 (one straggler blocks all reuse)", stalled.Reclaim.Freed)
		}
		if stalled.Exhaustions == 0 {
			t.Error("the frozen pool never reported exhaustion: saturation is invisible")
		}
		if stalled.Reclaim.Stalls == 0 {
			t.Error("blocked reclamation passes were not counted as stalls")
		}
		if final.Reclaim.Freed == 0 {
			t.Errorf("epoch did not recover after the straggler moved: %s", final.Reclaim)
		}
	})
}

// TestConformWithReclamation: sequential scripts (no concurrency, no open
// windows) must conform to the LIFO/FIFO oracles under every protection ×
// reclaimer combination — deferred reuse must never change what a caller
// observes, only when a node index reappears.
func TestConformWithReclamation(t *testing.T) {
	script := conformScript(997, 400)
	for _, prot := range []apps.Protection{apps.Raw, apps.LLSC} {
		for _, rc := range reclaimMakers() {
			name := prot.String() + "+" + rc.name
			t.Run("stack/"+name, func(t *testing.T) {
				s, err := apps.NewStack(shmem.NewNativeFactory(), 3, 4, prot, 0, apps.WithReclaimer(rc.mk))
				if err != nil {
					t.Fatal(err)
				}
				if err := ConformStack(s, script); err != nil {
					t.Error(err)
				}
			})
			t.Run("queue/"+name, func(t *testing.T) {
				q, err := apps.NewQueue(shmem.NewNativeFactory(), 3, 4, prot, 0, apps.WithReclaimer(rc.mk))
				if err != nil {
					t.Fatal(err)
				}
				if err := ConformQueue(q, script); err != nil {
					t.Error(err)
				}
			})
			t.Run("map/"+name, func(t *testing.T) {
				m, err := kv.NewMap(shmem.NewNativeFactory(), 3, 5, 2, prot, 0, apps.WithReclaimer(rc.mk))
				if err != nil {
					t.Fatal(err)
				}
				if err := ConformMap(m, script); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestMapConformAcrossProtectionByReclaimer widens the map's sequential
// conformance to the full canonical protection × reclaimer grid (including
// the explicit pass-through), since the map is the structure whose Put
// success depends on deferred nodes flowing back in time.
func TestMapConformAcrossProtectionByReclaimer(t *testing.T) {
	script := conformScript(1213, 400)
	prots := []struct {
		name    string
		prot    apps.Protection
		tagBits uint
	}{
		{"raw", apps.Raw, 0},
		{"tag16", apps.Tagged, 16},
		{"llsc", apps.LLSC, 0},
		{"detector", apps.Detector, 0},
	}
	schemes := []struct {
		name string
		mk   reclaim.Maker
	}{
		{"none", reclaim.NewNone},
		{"hp", reclaim.NewHazard},
		{"epoch", reclaim.NewEpoch},
	}
	for _, p := range prots {
		for _, rc := range schemes {
			t.Run(p.name+"+"+rc.name, func(t *testing.T) {
				m, err := kv.NewMap(shmem.NewNativeFactory(), 3, 5, 2, p.prot, p.tagBits, apps.WithReclaimer(rc.mk))
				if err != nil {
					t.Fatal(err)
				}
				if err := ConformMap(m, script); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// conformScript generates a deterministic op script (xorshift, like the
// conformance tests').
func conformScript(seed uint32, n int) []byte {
	out := make([]byte, n)
	x := seed
	for i := range out {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		out[i] = byte(x)
	}
	return out
}
