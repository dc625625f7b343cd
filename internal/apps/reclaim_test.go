package apps

import (
	"sync"
	"testing"

	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// This file is the reclamation-axis test suite: the deterministic §1
// scripts prevented by hp/epoch under a *raw* guard (the tentpole claim:
// safe memory reclamation stops the ABA the guard never sees), plus
// race-enabled MPMC accounting across the protection × reclaimer matrix.

func reclaimSchemes() []struct {
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

// TestReclaimPreventsStackABA: the deterministic stack corruption script
// that provably fools a raw guard with immediate reuse is prevented by
// either reclaimer — with zero guard near-misses, because the recycle leg
// never happens and there is no ABA left to detect.  The explicit "none"
// pass-through must reproduce the corruption.
func TestReclaimPreventsStackABA(t *testing.T) {
	for _, tc := range reclaimSchemes() {
		t.Run("raw+"+tc.name, func(t *testing.T) {
			res, err := StackABAScenario(Raw, 0, WithReclaimer(tc.mk))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled || res.Corrupt {
				t.Fatalf("fooled=%v corrupt=%v (%s): reclamation did not prevent the ABA", res.Fooled, res.Corrupt, res.Detail)
			}
			if res.Guard.NearMisses != 0 {
				t.Errorf("near-misses = %d, want 0: prevention must happen below the guard", res.Guard.NearMisses)
			}
			if res.Pool.Reclaim.Retired == 0 {
				t.Error("no node ever retired through the reclaimer")
			}
		})
	}
	t.Run("raw+none", func(t *testing.T) {
		res, err := StackABAScenario(Raw, 0, WithReclaimer(reclaim.NewNone))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fooled || !res.Corrupt {
			t.Fatalf("fooled=%v corrupt=%v: the pass-through must preserve the §1 corruption", res.Fooled, res.Corrupt)
		}
	})
}

// TestReclaimPreventsQueueABA is the Michael–Scott twin.  Under a
// reclaimer the victim's protections cover the snapshotted dummy and its
// successor, so the adversary's re-enqueue starves instead of recycling
// them (Starved), and the stale head commit fails on a moved index.
func TestReclaimPreventsQueueABA(t *testing.T) {
	for _, tc := range reclaimSchemes() {
		t.Run("raw+"+tc.name, func(t *testing.T) {
			res, err := QueueABAScenario(Raw, 0, WithReclaimer(tc.mk))
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled || res.Corrupt {
				t.Fatalf("fooled=%v corrupt=%v (%s): reclamation did not prevent the ABA", res.Fooled, res.Corrupt, res.Detail)
			}
			if res.Guard.NearMisses != 0 {
				t.Errorf("near-misses = %d, want 0: prevention must happen below the guard", res.Guard.NearMisses)
			}
			if !res.Starved {
				t.Error("the tiny pool should starve the adversary's re-enqueue while the victim's protections hold")
			}
			if res.Pool.Exhaustions == 0 {
				t.Error("the starved allocation was not counted as a pool exhaustion")
			}
		})
	}
	t.Run("raw+none", func(t *testing.T) {
		res, err := QueueABAScenario(Raw, 0, WithReclaimer(reclaim.NewNone))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fooled || !res.Corrupt {
			t.Fatalf("fooled=%v corrupt=%v: the pass-through must preserve the §1 corruption", res.Fooled, res.Corrupt)
		}
	})
}

// TestStackStressReclaimedRawIsSound is the headline concurrency claim:
// a *raw-guarded* stack — the §1 victim — satisfies hard MPMC accounting
// under either reclaimer, because a protected node cannot be recycled
// inside any operation's window.  Mirrors TestStackStressLLSCIsSound.
func TestStackStressReclaimedRawIsSound(t *testing.T) {
	for _, tc := range reclaimSchemes() {
		t.Run("raw+"+tc.name, func(t *testing.T) {
			// Default FIFO pool: node reclamation protects the structure's
			// references; a *raw guarded* free list would reintroduce its
			// own unprotected head swing, which is a different experiment.
			runStackStressAccounting(t, Raw, 0, WithReclaimer(tc.mk))
		})
	}
}

func runStackStressAccounting(t *testing.T, prot Protection, tagBits uint, opts ...StructOption) {
	t.Helper()
	const n = 8
	const perProc = 300
	s, err := NewStack(shmem.NewNativeFactory(), n, 16, prot, tagBits, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	popped := make([][]Word, n)
	pushed := make([][]Word, n)
	for pid := 0; pid < n; pid++ {
		h, err := s.Handle(pid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(pid int, h *StackHandle) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				v := Word(pid)<<32 | Word(i)
				if h.Push(v) {
					pushed[pid] = append(pushed[pid], v)
				}
				if i%2 == 1 {
					if v, ok := h.Pop(); ok {
						popped[pid] = append(popped[pid], v)
					}
				}
			}
		}(pid, h)
	}
	wg.Wait()

	counts := map[Word]int{}
	for _, vs := range pushed {
		for _, v := range vs {
			counts[v]++
		}
	}
	for _, vs := range popped {
		for _, v := range vs {
			counts[v]--
			if counts[v] < 0 {
				t.Fatalf("value %#x popped more often than pushed", v)
			}
		}
	}
	h, err := s.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for {
		v, ok := h.Pop()
		if !ok {
			break
		}
		counts[v]--
		if counts[v] < 0 {
			t.Fatalf("drained value %#x was never pushed (or popped twice)", v)
		}
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("value %#x lost (count %d)", v, c)
		}
	}
	if a := s.Audit(); a.Corrupt() {
		t.Errorf("audit: %s", a)
	}
	ps := s.PoolStats()
	if ps.Reclaim.Retired == 0 {
		t.Error("workload never retired a node through the reclaimer")
	}
	t.Logf("pool: exhaustions=%d reclaim: %s", ps.Exhaustions, ps.Reclaim)
}

// TestQueueStressReclaimedRawIsSound runs the strict queue MPMC accounting
// (every value consumed exactly once, per-producer FIFO) with raw guards
// under each reclaimer.
func TestQueueStressReclaimedRawIsSound(t *testing.T) {
	for _, tc := range reclaimSchemes() {
		t.Run("raw+"+tc.name, func(t *testing.T) {
			runQueueMPMC(t, Raw, 0, WithReclaimer(tc.mk))
		})
	}
}

// TestQueueStressMPMCReclaimMatrix extends the sound-regime MPMC matrix
// with the reclamation axis: the stronger guards must stay correct with
// deferred reuse underneath (the schemes compose, not conflict).
func TestQueueStressMPMCReclaimMatrix(t *testing.T) {
	for _, tc := range soundProtections() {
		for _, rc := range reclaimSchemes() {
			t.Run(tc.name+"+"+rc.name, func(t *testing.T) {
				runQueueMPMC(t, tc.prot, tc.tagBits, WithReclaimer(rc.mk))
			})
		}
	}
}

// TestStackReclaimGuardedPoolCompose: a guarded free list AND a reclaimer
// together — retirement defers the release, the release then goes through
// the guarded LIFO head.  The free-list guard still counts its commits.
func TestStackReclaimGuardedPoolCompose(t *testing.T) {
	for _, rc := range reclaimSchemes() {
		t.Run("llsc+"+rc.name, func(t *testing.T) {
			s, err := NewStack(shmem.NewNativeFactory(), 4, 16, LLSC, 0,
				WithGuardedPool(), WithReclaimer(rc.mk))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pid := 0; pid < 4; pid++ {
				h, err := s.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h *StackHandle) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						h.Push(Word(pid)<<32 | Word(i))
						h.Pop()
					}
				}(pid, h)
			}
			wg.Wait()
			if a := s.Audit(); a.Corrupt() {
				t.Errorf("audit: %s", a)
			}
			if m := s.FreelistMetrics(); m.Commits == 0 {
				t.Error("guarded free list never committed under the reclaimer")
			}
			if ps := s.PoolStats(); ps.Reclaim.Freed == 0 {
				t.Error("reclaimer never freed a node")
			}
		})
	}
}
