package apps

import (
	"math/rand"
	"testing"

	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// TestStackStepsPerOp prices Push, Pop and Peek in shared-memory steps — the
// paper's t(n), exact for a given seed — on a counting substrate that every
// base object of the stack, its head guard and its hp reclaimer is allocated
// from.  The mix is shaped like the benchmark's stack-traced workload: a
// detector-guarded head (Figure 5 over Figure 3), 1,024 nodes, 512 tokens
// pushed first, 10% Peeks, and the writes strictly alternating push and pop
// so the depth stays near 512.
//
// The bounds are this protocol's counts, rounded up in the third decimal:
// every step a change adds to an operation fails the test.
func TestStackStepsPerOp(t *testing.T) {
	const (
		n, capacity, prepop = 2, 1024, 512
		ops, peekPct        = 20_000, 10
	)
	const maxPush, maxPop, maxPeek = 7.691, 11.196, 5.665
	f := shmem.NewCounting(shmem.NewNativeFactory(), n)
	s, err := NewStack(f, n, capacity, Detector, 0, WithReclaimer(reclaim.NewHazard))
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= prepop; i++ {
		if !h.Push(Word(i)) {
			t.Fatalf("prepopulate Push(%d) failed", i)
		}
	}
	r := rand.New(rand.NewSource(1))
	var steps, count [3]int64 // Push, Pop, Peek
	popNext := false
	for i := 0; i < ops; i++ {
		before := f.Steps(0)
		op := 0
		switch {
		case r.Intn(100) < peekPct:
			op = 2
			if _, ok := h.Peek(); !ok {
				t.Fatalf("Peek found the stack empty at op %d", i)
			}
		case popNext:
			op = 1
			if _, ok := h.Pop(); !ok {
				t.Fatalf("Pop found the stack empty at op %d", i)
			}
			popNext = false
		default:
			if !h.Push(Word(prepop + i)) {
				t.Fatalf("Push failed at op %d", i)
			}
			popNext = true
		}
		steps[op] += f.Steps(0) - before
		count[op]++
	}
	per := func(op int) float64 { return float64(steps[op]) / float64(count[op]) }
	t.Logf("steps per op: Push %.3f  Pop %.3f  Peek %.3f", per(0), per(1), per(2))
	for op, limit := range []float64{maxPush, maxPop, maxPeek} {
		if got := per(op); got > limit {
			t.Errorf("%s takes %.3f steps per op, want at most %.3f", [...]string{"Push", "Pop", "Peek"}[op], got, limit)
		}
	}
	if a := s.Audit(); a.Corrupt() {
		t.Errorf("audit after the mix: %s", a)
	}
}
