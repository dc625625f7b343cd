package apps

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abadetect/internal/guard"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

func newQueue(t *testing.T, n, capacity int) *Queue {
	t.Helper()
	q, err := NewQueue(shmem.NewNativeFactory(), n, capacity, LLSC, 0)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func queueHandle(t *testing.T, q *Queue, pid int) *QueueHandle {
	t.Helper()
	h, err := q.Handle(pid)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestQueueSequentialFIFO(t *testing.T) {
	q := newQueue(t, 2, 8)
	h := queueHandle(t, q, 0)
	for i := 1; i <= 6; i++ {
		if !h.Enq(Word(i * 10)) {
			t.Fatalf("enq %d failed", i)
		}
	}
	for i := 1; i <= 6; i++ {
		v, ok := h.Deq()
		if !ok || v != Word(i*10) {
			t.Fatalf("deq = (%d,%v), want (%d,true)", v, ok, i*10)
		}
	}
	if _, ok := h.Deq(); ok {
		t.Error("deq from empty queue succeeded")
	}
	if a := q.Audit(); a.Corrupt() {
		t.Errorf("audit: %s", a)
	}
}

func TestQueueEmptyThenReuse(t *testing.T) {
	q := newQueue(t, 1, 3)
	h := queueHandle(t, q, 0)
	for round := 0; round < 30; round++ {
		if !h.Enq(Word(round)) {
			t.Fatalf("round %d: enq failed", round)
		}
		v, ok := h.Deq()
		if !ok || v != Word(round) {
			t.Fatalf("round %d: deq = (%d,%v)", round, v, ok)
		}
		if _, ok := h.Deq(); ok {
			t.Fatalf("round %d: queue should be empty", round)
		}
	}
	// Node recycling must have cycled through the pool several times.
	if a := q.Audit(); a.Corrupt() {
		t.Errorf("audit after reuse: %s", a)
	}
}

func TestQueueCapacity(t *testing.T) {
	q := newQueue(t, 1, 3)
	h := queueHandle(t, q, 0)
	// capacity+1 nodes total, one consumed by the dummy: 3 usable.
	pushed := 0
	for i := 0; i < 10; i++ {
		if h.Enq(Word(i)) {
			pushed++
		}
	}
	if pushed != 3 {
		t.Errorf("enqueued %d values, want 3", pushed)
	}
	if _, ok := h.Deq(); !ok {
		t.Error("deq failed")
	}
	if !h.Enq(99) {
		t.Error("enq after deq should succeed (node recycled)")
	}
}

func TestQueueConstructorValidation(t *testing.T) {
	f := shmem.NewNativeFactory()
	if _, err := NewQueue(f, 0, 4, LLSC, 0); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := NewQueue(f, 2, 0, LLSC, 0); err == nil {
		t.Error("want error for capacity=0")
	}
	if _, err := NewQueue(f, 2, 4, Tagged, 0); err == nil {
		t.Error("want error for tagged with 0 tag bits")
	}
	if _, err := NewQueue(f, 2, 4, Protection(99), 0); err == nil {
		t.Error("want error for unknown protection")
	}
	q := newQueue(t, 2, 4)
	if _, err := q.Handle(-1); err == nil {
		t.Error("want error for bad pid")
	}
}

func TestQueueInterleavedTwoHandles(t *testing.T) {
	q := newQueue(t, 2, 8)
	a := queueHandle(t, q, 0)
	b := queueHandle(t, q, 1)
	a.Enq(1)
	b.Enq(2)
	a.Enq(3)
	if v, ok := b.Deq(); !ok || v != 1 {
		t.Fatalf("deq = (%d,%v), want (1,true)", v, ok)
	}
	if v, ok := a.Deq(); !ok || v != 2 {
		t.Fatalf("deq = (%d,%v), want (2,true)", v, ok)
	}
	if v, ok := b.Deq(); !ok || v != 3 {
		t.Fatalf("deq = (%d,%v), want (3,true)", v, ok)
	}
}

func TestQueueStressMPMC(t *testing.T) {
	// Multi-producer multi-consumer accounting + per-producer FIFO order.
	// Consumers run until every producer has finished AND the queue reads
	// empty — never on a fixed quota or miss budget, which can strand the
	// producers spinning on an exhausted pool with nobody left to drain it
	// (the deadline converts any genuine loss of progress into a clean
	// failure instead of a hang).
	const producers = 4
	const consumers = 4
	const perProducer = 400
	q := newQueue(t, producers+consumers, 32)
	deadline := time.Now().Add(2 * time.Minute)

	var producersDone atomic.Int32
	var wg sync.WaitGroup
	consumed := make([][]Word, consumers)
	for c := 0; c < consumers; c++ {
		h := queueHandle(t, q, producers+c)
		wg.Add(1)
		go func(c int, h *QueueHandle) {
			defer wg.Done()
			for {
				if v, ok := h.Deq(); ok {
					consumed[c] = append(consumed[c], v)
					continue
				}
				// Empty right now.  Only quit once no producer can refill.
				if producersDone.Load() == producers {
					return
				}
				if time.Now().After(deadline) {
					t.Error("consumer timed out waiting for producers")
					return
				}
				runtime.Gosched()
			}
		}(c, h)
	}
	for p := 0; p < producers; p++ {
		h := queueHandle(t, q, p)
		wg.Add(1)
		go func(p int, h *QueueHandle) {
			defer wg.Done()
			defer producersDone.Add(1)
			for i := 0; i < perProducer; i++ {
				v := Word(p)<<32 | Word(i)
				for !h.Enq(v) {
					// Pool momentarily exhausted; consumers will drain.
					if time.Now().After(deadline) {
						t.Errorf("producer %d timed out at item %d", p, i)
						return
					}
					runtime.Gosched()
				}
			}
		}(p, h)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Drain leftovers.
	h := queueHandle(t, q, 0)
	var drained []Word
	for {
		v, ok := h.Deq()
		if !ok {
			break
		}
		drained = append(drained, v)
	}

	// Accounting: every produced value consumed exactly once.
	seen := map[Word]int{}
	lastPerProducer := map[Word]int64{}
	for p := 0; p < producers; p++ {
		lastPerProducer[Word(p)] = -1
	}
	all := append([]Word{}, drained...)
	for c := range consumed {
		// Per-consumer, per-producer FIFO: indices from one producer must
		// arrive in increasing order at any single consumer.
		last := map[Word]int64{}
		for _, v := range consumed[c] {
			p, i := v>>32, int64(v&0xffffffff)
			if prev, ok := last[p]; ok && i <= prev {
				t.Fatalf("consumer %d: producer %d's items out of order: %d after %d", c, p, i, prev)
			}
			last[p] = i
		}
		all = append(all, consumed[c]...)
	}
	for _, v := range all {
		seen[v]++
		if seen[v] > 1 {
			t.Fatalf("value %#x consumed twice", v)
		}
	}
	if len(all) != producers*perProducer {
		t.Fatalf("consumed %d values, want %d", len(all), producers*perProducer)
	}
	if a := q.Audit(); a.Corrupt() {
		t.Errorf("audit: %s", a)
	}
}

// TestEnqTailHelpCannotSwingBackwards replays the backward-swing hazard in
// Enq's post-linearization help: A links its node after the tail and stalls;
// B's enqueue helps the tail past A's node and onto its own; C dequeues
// both values, freeing A's node.  A's deferred tail help must now fail —
// it is armed from A's original Load of the tail — rather than re-arm
// against the current tail and drag it backwards onto the freed node.  A
// value-blind re-armed commit would succeed under every regime, LL/SC
// included, because no tail write intervenes between its re-Load and its
// commit; only arming from the pre-link Load makes the regimes reject it.
func TestEnqTailHelpCannotSwingBackwards(t *testing.T) {
	for _, tc := range allProtections() {
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewQueue(shmem.NewNativeFactory(), 3, 4, tc.prot, tc.tagBits)
			if err != nil {
				t.Fatal(err)
			}
			a := queueHandle(t, q, 0)
			b := queueHandle(t, q, 1)
			c := queueHandle(t, q, 2)

			var tailAfterStall Word
			a.testEnqAfterLink = func() {
				a.testEnqAfterLink = nil
				if !b.Enq(7) {
					t.Fatal("stalled-window enq failed")
				}
				for _, want := range []Word{5, 7} {
					if v, ok := c.Deq(); !ok || v != want {
						t.Fatalf("stalled-window deq = (%d,%v), want (%d,true)", v, ok, want)
					}
				}
				tailAfterStall = q.tail.Peek(-1)
			}
			if !a.Enq(5) {
				t.Fatal("enq 5 failed")
			}
			if got := q.tail.Peek(-1); got != tailAfterStall {
				t.Fatalf("tail swung backwards after stale help: %d -> %d", tailAfterStall, got)
			}
			if audit := q.Audit(); audit.Corrupt() {
				t.Fatalf("audit after stale help: %s", audit)
			}
			// The pool keeps recycling cleanly afterwards: the node A's stale
			// help targeted is reallocated and retired several times over.
			for round := 0; round < 2*q.Capacity(); round++ {
				if !b.Enq(Word(100 + round)) {
					t.Fatalf("round %d: enq failed", round)
				}
				if v, ok := c.Deq(); !ok || v != Word(100+round) {
					t.Fatalf("round %d: deq = (%d,%v)", round, v, ok)
				}
			}
			if audit := q.Audit(); audit.Corrupt() {
				t.Fatalf("final audit: %s", audit)
			}
		})
	}
}

func TestQueueAuditStates(t *testing.T) {
	q := newQueue(t, 1, 4)
	h := queueHandle(t, q, 0)
	a := q.Audit()
	if a.Length != 0 || a.Corrupt() {
		t.Errorf("fresh audit: %s", a)
	}
	h.Enq(5)
	h.Enq(6)
	a = q.Audit()
	if a.Length != 2 || a.Corrupt() {
		t.Errorf("after 2 enqs: %s", a)
	}
}

func TestQueueWorkerStopsAfterSpinBudget(t *testing.T) {
	// A raw queue whose tail sits on a two-node next-cycle livelocks every
	// Enq: the tail-helping loop chases the cycle until MaxSpin runs out.
	// The matrix worker must pay that budget once and then stop issuing
	// operations, reporting the skipped ones, instead of re-spending the
	// whole budget on every remaining op.
	f := shmem.NewCounting(shmem.NewNativeFactory(), 2)
	inst, err := NewQueueInstance(f, 2, 8, guard.NewMaker(f, 2, guard.Raw, 0), InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := inst.(queueInstance).q
	h := queueHandle(t, q, 1)
	a, b := h.pool.Alloc(), h.pool.Alloc()
	h.next[a].Store(Word(b))
	h.next[b].Store(Word(a))
	h.tail.Store(Word(a))

	step, err := inst.Worker(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Reset()
	const ops = 200
	for i := 0; i < ops; i++ {
		step(i)
	}
	// One spent budget (a spin is at most 4 steps) plus a short op's worth
	// for each op; re-spending the budget per op blows far past it.
	if steps, bound := f.TotalSteps(), int64(maxSpin*4+ops*64); steps >= bound {
		t.Errorf("%d ops took %d shared-memory steps, want < %d: the worker kept spinning on a livelocked queue", ops, steps, bound)
	}
	corrupt, detail := inst.Audit()
	if !corrupt || !strings.Contains(detail, "abandoned=") {
		t.Errorf("audit = (%v, %q), want a failed audit reporting abandoned ops", corrupt, detail)
	}
}

// TestQueueTracedNextLabels checks that a traced queue names each node's
// next guard qnext[i]: enqueuing links every node through its predecessor's
// next guard, starting at the dummy (node 1).
func TestQueueTracedNextLabels(t *testing.T) {
	const values = 3
	rec := trace.New(1, 256)
	q, err := NewQueue(shmem.NewNativeFactory(), 1, values, LLSC, 0, WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	h := queueHandle(t, q, 0)
	for v := Word(1); v <= values; v++ {
		if !h.Enq(v) {
			t.Fatalf("Enq(%d) failed", v)
		}
	}
	seen := map[string]bool{}
	for _, e := range rec.Merge() {
		if e.Kind == trace.KindGuardCommit {
			seen[e.Obj] = true
		}
	}
	for i := 1; i <= values; i++ {
		if label := fmt.Sprintf("qnext[%d]", i); !seen[label] {
			t.Errorf("no commit recorded on %s; committed objects: %v", label, seen)
		}
	}
}
