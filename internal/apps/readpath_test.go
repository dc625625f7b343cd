package apps

import (
	"fmt"
	"testing"

	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
	"abadetect/internal/sim"
)

// The wait-free observers (Peek / IsEmpty) must agree with the mutating ops
// across every protection regime and reclaimer — including the fallback
// configurations where the fast path is disabled (raw under a reclaimer)
// and the guarded peek carries the read.

func readPathConfigs() []struct {
	name    string
	prot    Protection
	tagBits uint
	rc      reclaim.Maker
} {
	type cfg = struct {
		name    string
		prot    Protection
		tagBits uint
		rc      reclaim.Maker
	}
	var out []cfg
	rcs := []struct {
		name string
		mk   reclaim.Maker
	}{
		{"none", nil},
		{"hp", reclaim.NewHazard},
		{"epoch", reclaim.NewEpoch},
	}
	for _, p := range allProtections() {
		for _, r := range rcs {
			out = append(out, cfg{p.name + "+" + r.name, p.prot, p.tagBits, r.mk})
		}
	}
	return out
}

func TestStackPeekMatrix(t *testing.T) {
	for _, c := range readPathConfigs() {
		t.Run(c.name, func(t *testing.T) {
			var opts []StructOption
			if c.rc != nil {
				opts = append(opts, WithReclaimer(c.rc))
			}
			s, err := NewStack(shmem.NewNativeFactory(), 1, 8, c.prot, c.tagBits, opts...)
			if err != nil {
				t.Fatal(err)
			}
			h := stackHandle(t, s, 0)
			if !h.IsEmpty() {
				t.Error("fresh stack not empty")
			}
			if _, ok := h.Peek(); ok {
				t.Error("Peek on an empty stack hit")
			}
			for i := 1; i <= 3; i++ {
				if !h.Push(Word(i * 10)) {
					t.Fatalf("push %d failed", i)
				}
				if v, ok := h.Peek(); !ok || v != Word(i*10) {
					t.Fatalf("Peek after push %d = (%d,%v), want (%d,true)", i, v, ok, i*10)
				}
				if h.IsEmpty() {
					t.Fatalf("IsEmpty true with %d elements", i)
				}
			}
			// Peek must not consume: the pops still see all three values.
			for i := 3; i >= 1; i-- {
				if v, ok := h.Peek(); !ok || v != Word(i*10) {
					t.Fatalf("Peek before pop %d = (%d,%v)", i, v, ok)
				}
				if v, ok := h.Pop(); !ok || v != Word(i*10) {
					t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i*10)
				}
			}
			if !h.IsEmpty() {
				t.Error("drained stack not empty")
			}
			if a := s.Audit(); a.Corrupt() {
				t.Errorf("audit: %s", a)
			}
		})
	}
}

func TestQueuePeekMatrix(t *testing.T) {
	for _, c := range readPathConfigs() {
		t.Run(c.name, func(t *testing.T) {
			var opts []StructOption
			if c.rc != nil {
				opts = append(opts, WithReclaimer(c.rc))
			}
			q, err := NewQueue(shmem.NewNativeFactory(), 1, 8, c.prot, c.tagBits, opts...)
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			if !h.IsEmpty() {
				t.Error("fresh queue not empty")
			}
			if _, ok := h.Peek(); ok {
				t.Error("Peek on an empty queue hit")
			}
			for i := 1; i <= 3; i++ {
				if !h.Enq(Word(i * 10)) {
					t.Fatalf("enq %d failed", i)
				}
				// FIFO: the front stays the first value while the tail grows.
				if v, ok := h.Peek(); !ok || v != 10 {
					t.Fatalf("Peek after enq %d = (%d,%v), want (10,true)", i, v, ok)
				}
			}
			for i := 1; i <= 3; i++ {
				if v, ok := h.Peek(); !ok || v != Word(i*10) {
					t.Fatalf("Peek before deq %d = (%d,%v)", i, v, ok)
				}
				if v, ok := h.Deq(); !ok || v != Word(i*10) {
					t.Fatalf("deq = (%d,%v), want (%d,true)", v, ok, i*10)
				}
			}
			if !h.IsEmpty() {
				t.Error("drained queue not empty")
			}
			if a := q.Audit(); a.Corrupt() {
				t.Errorf("audit: %s", a)
			}
		})
	}
}

// TestPeekAllocsAndNoReclaimerTraffic is the stack/queue analogue of the
// map's hot-path test: a clean Peek allocates nothing and takes zero
// shared-memory steps on the reclaimer's state (no hazard publish, no epoch
// pin), while a mutating op on the same handle proves the counter is live.
func TestPeekAllocsAndNoReclaimerTraffic(t *testing.T) {
	counting := shmem.NewCounting(shmem.NewNativeFactory(), 1)
	counted := func(f shmem.Factory, name string, n, capacity int) (reclaim.Reclaimer, error) {
		return reclaim.NewHazard(counting, name, n, capacity)
	}
	s, err := NewStack(shmem.NewNativeFactory(), 1, 8, LLSC, 0, WithReclaimer(counted))
	if err != nil {
		t.Fatal(err)
	}
	h := stackHandle(t, s, 0)
	if !h.Push(42) {
		t.Fatal("push failed")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if v, ok := h.Peek(); !ok || v != 42 {
			t.Fatalf("Peek = (%d,%v)", v, ok)
		}
	})
	if allocs != 0 {
		t.Errorf("clean Peek allocates %.1f objects/op, want 0", allocs)
	}
	base := counting.Steps(0)
	for i := 0; i < 100; i++ {
		h.Peek()
		h.IsEmpty()
	}
	if d := counting.Steps(0) - base; d != 0 {
		t.Errorf("clean Peeks took %d reclaimer steps, want 0", d)
	}
	base = counting.Steps(0)
	if _, ok := h.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if d := counting.Steps(0) - base; d == 0 {
		t.Error("guarded Pop took no reclaimer steps — the counter is not observing the hazard slots")
	}
}

// sweepLimit bounds every leg of a cut sweep's schedule.
const sweepLimit = 10_000

// playCut plays one cut of a sweep on a started runner: process cut takes
// exactly steps steps (fewer if it finishes), then each process of then runs
// to its end, in order.  It reports whether cut had finished within its
// steps, after which no later cut differs.
func playCut(r *sim.Runner, cut, steps int, then ...int) (bool, error) {
	if _, err := r.StepUntil(cut, sweepLimit, func(taken int) bool { return taken == steps }); err != nil {
		return false, err
	}
	finished := r.Done(cut)
	for _, pid := range then {
		if _, err := r.StepUntil(pid, sweepLimit, nil); err != nil {
			return finished, err
		}
	}
	return finished, nil
}

// peekResult is a Peek's return pair.
type peekResult struct {
	v  Word
	ok bool
}

// peekCut is what one cut of a torn-read sweep saw.
type peekCut struct {
	got peekResult
	// inside: the writer's block ran while the reader's Peek was in
	// progress (it had not finished within the cut).
	inside bool
	// recycled: the writer's recycling write succeeded.  Under raw+hp and
	// raw+epoch the reader's published protection can hold the node, and
	// the write starves instead: prevention by allocation discipline.
	recycled bool
	// torn: the reader's Load of the head after the writer's block
	// reported interference; on the fast path, the retry of an attempt the
	// fence rejected.
	torn bool
}

// playPeekCut plays one cut of a torn-read sweep on runner: the writer (p0)
// runs setUp alone, the reader (p1) takes cut steps of read, the writer
// runs block, and the reader finishes.  It reports whether the reader had
// finished within the cut.  The runner is closed on return.
func playPeekCut(t *testing.T, runner *sim.Runner, cut int, setUp, block, read func()) bool {
	t.Helper()
	defer runner.Close()
	setUpDone := false
	progs := []sim.Program{
		func(*sim.Proc) { setUp(); setUpDone = true; block() },
		func(*sim.Proc) { read() },
	}
	for pid, prog := range progs {
		if err := runner.SetProgram(pid, prog); err != nil {
			t.Fatal(err)
		}
	}
	if err := runner.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.StepUntil(0, sweepLimit, func(int) bool { return setUpDone }); err != nil {
		t.Fatal(err)
	}
	finished, err := playCut(runner, 1, cut, 0, 1)
	if err != nil {
		t.Fatalf("cut %d: %v", cut, err)
	}
	return finished
}

// checkTornSweep holds a torn-read sweep's cuts to the read path's
// contract.  Value-blind raw+none returns the pre-recycle snapshot stale
// at some cut whose block recycled the node inside its Peek.  At every such
// cut a sound regime returns the post-recycle answer fresh, since its fence
// rejects the torn attempt (counted at some cut).  Raw under a reclaimer
// never takes the fast path (checked where the handles are made); it reads
// through the protected path, whose protection makes the recycle starve at
// some cut.
func checkTornSweep(t *testing.T, prot Protection, rc reclaim.Maker, cuts []peekCut, stale, fresh peekResult) {
	t.Helper()
	staleCuts, tornCuts, starvedCuts := 0, 0, 0
	for cut, c := range cuts {
		if c.torn {
			tornCuts++
		}
		if !c.recycled {
			starvedCuts++
		}
		if !c.inside || !c.recycled {
			continue
		}
		if c.got == stale {
			staleCuts++
		}
		if prot != Raw && c.got != fresh {
			t.Errorf("cut %d: Peek = %v, want the post-recycle %v", cut, c.got, fresh)
		}
	}
	t.Logf("%d cuts: %d stale, %d torn, %d starved", len(cuts), staleCuts, tornCuts, starvedCuts)
	switch {
	case prot == Raw && rc == nil:
		if staleCuts == 0 {
			t.Errorf("value-blind raw+none never returned the pre-recycle snapshot %v", stale)
		}
	case prot == Raw:
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
}

// TestStackPeekTornReadMatrix runs a writer's Pop and recycling Push(999)
// after every prefix of a reader's Peek of the one-node stack 100.  Both
// values are linearizable answers, so the sweep measures the detection
// asymmetry: with the node recycled inside the reader's Peek, the sound
// regimes see the two head commits, reject the attempt and re-read 999,
// while value-blind raw+none accepts the pre-recycle snapshot 100 at the
// cut between its value read and its validating fence.  Raw under a real
// reclaimer disables the fast path (StackHandle.fastOK), and the guarded
// peek carries the read.
func TestStackPeekTornReadMatrix(t *testing.T) {
	for _, c := range readPathConfigs() {
		t.Run(c.name, func(t *testing.T) {
			var cuts []peekCut
			for cut, finished := 0, false; !finished; cut++ {
				runner := sim.NewRunner(2)
				var opts []StructOption
				if c.rc != nil {
					opts = append(opts, WithReclaimer(c.rc))
				}
				// Capacity 1: the writer's push *must* recycle the popped
				// node, so the head word is restored bit-for-bit.
				s, err := NewStack(runner.Factory(), 2, 1, c.prot, c.tagBits, opts...)
				if err != nil {
					runner.Close()
					t.Fatal(err)
				}
				w, r := stackHandle(t, s, 0), stackHandle(t, s, 1)
				if r.fastOK != (c.prot != Raw || c.rc == nil) {
					t.Fatalf("fastOK = %v", r.fastOK)
				}
				var pc peekCut
				var dirty int64
				finished = playPeekCut(t, runner, cut,
					func() {
						if !w.Push(100) {
							panic("set-up Push(100) failed")
						}
					},
					func() {
						if v, ok := w.Pop(); !ok || v != 100 {
							panic(fmt.Sprintf("block Pop = (%d, %v), want (100, true)", v, ok))
						}
						pc.recycled = w.Push(999)
						dirty = s.head.Metrics().DirtyLoads
					},
					func() { pc.got.v, pc.got.ok = r.Peek() })
				pc.inside = !finished
				pc.torn = s.head.Metrics().DirtyLoads > dirty
				if a := s.Audit(); a.Corrupt() {
					t.Fatalf("cut %d: audit: %s", cut, a)
				}
				cuts = append(cuts, pc)
			}
			checkTornSweep(t, c.prot, c.rc, cuts, peekResult{100, true}, peekResult{999, true})
		})
	}
}

// TestQueuePeekTornReadMatrix is the queue shape of the same sweep, with a
// sharper victim outcome: after every prefix of a reader's Peek of the
// queue [100], the writer dequeues 100, recycles its node through
// Enq(999), and dequeues again, returning the head word to the reader's
// armed index with the queue now *empty*.  Raw+none validates the restored
// head and reports the long-dequeued 100 as the front of an empty queue;
// the sound regimes reject the attempt and the retry sees a consistent
// empty snapshot.
func TestQueuePeekTornReadMatrix(t *testing.T) {
	for _, c := range readPathConfigs() {
		t.Run(c.name, func(t *testing.T) {
			var cuts []peekCut
			for cut, finished := 0, false; !finished; cut++ {
				runner := sim.NewRunner(2)
				var opts []StructOption
				if c.rc != nil {
					opts = append(opts, WithReclaimer(c.rc))
				}
				// Capacity 1 (one usable node beyond the dummy): the
				// writer's enqueue must recycle the retired dummy, and its
				// second dequeue swings the head back onto that index.
				q, err := NewQueue(runner.Factory(), 2, 1, c.prot, c.tagBits, opts...)
				if err != nil {
					runner.Close()
					t.Fatal(err)
				}
				w, r := queueHandle(t, q, 0), queueHandle(t, q, 1)
				if r.fastOK != (c.prot != Raw || c.rc == nil) {
					t.Fatalf("fastOK = %v", r.fastOK)
				}
				var pc peekCut
				var dirty int64
				finished = playPeekCut(t, runner, cut,
					func() {
						if !w.Enq(100) {
							panic("set-up Enq(100) failed")
						}
					},
					func() {
						if v, ok := w.Deq(); !ok || v != 100 {
							panic(fmt.Sprintf("block Deq = (%d, %v), want (100, true)", v, ok))
						}
						pc.recycled = w.Enq(999)
						if v, ok := w.Deq(); ok != pc.recycled || ok && v != 999 {
							panic(fmt.Sprintf("block Deq = (%d, %v) after Enq(999) = %v", v, ok, pc.recycled))
						}
						dirty = q.head.Metrics().DirtyLoads
					},
					func() { pc.got.v, pc.got.ok = r.Peek() })
				pc.inside = !finished
				pc.torn = q.head.Metrics().DirtyLoads > dirty
				if a := q.Audit(); a.Corrupt() {
					t.Fatalf("cut %d: audit: %s", cut, a)
				}
				cuts = append(cuts, pc)
			}
			checkTornSweep(t, c.prot, c.rc, cuts, peekResult{100, true}, peekResult{0, false})
		})
	}
}
