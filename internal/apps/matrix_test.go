package apps

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abadetect/internal/guard"
	"abadetect/internal/shmem"
)

// This file is the protection-matrix test suite the Guard refactor exists
// for: every structure exercised under every regime, race-enabled MPMC for
// the sound regimes, and differential foil tests asserting that the raw
// structures really do corrupt under the deterministic recycling schedules
// while the LL/SC and detector twins do not.

// soundProtections are the regimes whose structures must stay correct under
// arbitrary concurrency (a 16-bit tag cannot realistically wrap inside one
// operation's window).
func soundProtections() []struct {
	name    string
	prot    Protection
	tagBits uint
} {
	return []struct {
		name    string
		prot    Protection
		tagBits uint
	}{
		{"tagged16", Tagged, 16},
		{"llsc", LLSC, 0},
		{"detector", Detector, 0},
	}
}

// --- Queue across the matrix -----------------------------------------------

func TestQueueSequentialFIFOAllProtections(t *testing.T) {
	for _, tc := range allProtections() {
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewQueue(shmem.NewNativeFactory(), 2, 8, tc.prot, tc.tagBits)
			if err != nil {
				t.Fatal(err)
			}
			h, err := q.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
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
			if a := q.Audit(); a.Corrupt() {
				t.Errorf("audit: %s", a)
			}
		})
	}
}

// TestQueueStressMPMCMatrix mirrors stack_test's MPMC accounting across the
// sound regimes: every dequeued value was enqueued exactly once, per-producer
// FIFO order holds, nothing is lost, and the structure audits clean.
func TestQueueStressMPMCMatrix(t *testing.T) {
	for _, tc := range soundProtections() {
		for _, guarded := range []bool{false, true} {
			name := tc.name
			if guarded {
				name += "/guardedpool"
			}
			t.Run(name, func(t *testing.T) {
				var opts []StructOption
				if guarded {
					opts = append(opts, WithGuardedPool())
				}
				runQueueMPMC(t, tc.prot, tc.tagBits, opts...)
			})
		}
	}
}

func runQueueMPMC(t *testing.T, prot Protection, tagBits uint, opts ...StructOption) {
	const producers = 4
	const consumers = 4
	const perProducer = 300
	q, err := NewQueue(shmem.NewNativeFactory(), producers+consumers, 32, prot, tagBits, opts...)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)

	var producersDone atomic.Int32
	var wg sync.WaitGroup
	consumed := make([][]Word, consumers+1) // +1 for the post-run drain
	for c := 0; c < consumers; c++ {
		h, err := q.Handle(producers + c)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int, h *QueueHandle) {
			defer wg.Done()
			for {
				if v, ok := h.Deq(); ok {
					consumed[c] = append(consumed[c], v)
					continue
				}
				// Empty right now.  Only quit once no producer can refill;
				// whatever other consumers left behind is drained below.
				if producersDone.Load() == producers {
					return
				}
				if time.Now().After(deadline) {
					t.Error("consumer timed out")
					return
				}
				// Yield so a spinning consumer cannot monopolize a core
				// (on small GOMAXPROCS the producers would starve).
				runtime.Gosched()
			}
		}(c, h)
	}
	for p := 0; p < producers; p++ {
		h, err := q.Handle(p)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(p int, h *QueueHandle) {
			defer wg.Done()
			defer producersDone.Add(1)
			for i := 0; i < perProducer; i++ {
				for !h.Enq(Word(p)<<32 | Word(i)) {
					if time.Now().After(deadline) {
						t.Error("producer timed out")
						return
					}
					// A full pool means another process must run (a dequeue,
					// or a reclaimer scan) before this Enq can succeed —
					// yield instead of burning the whole time slice.
					runtime.Gosched()
				}
			}
		}(p, h)
	}
	wg.Wait()

	// Drain what the consumers' racy exits left behind.
	drain, err := q.Handle(producers)
	if err != nil {
		t.Fatal(err)
	}
	for {
		v, ok := drain.Deq()
		if !ok {
			break
		}
		consumed[consumers] = append(consumed[consumers], v)
	}

	// Accounting: every value consumed exactly once, per-producer in order.
	perProducerSeen := make([]map[int64]bool, producers)
	for i := range perProducerSeen {
		perProducerSeen[i] = make(map[int64]bool, perProducer)
	}
	for c := range consumed {
		last := make([]int64, producers)
		for i := range last {
			last[i] = -1
		}
		for _, v := range consumed[c] {
			p := int(v >> 32)
			i := int64(v & 0xffffffff)
			if p < 0 || p >= producers {
				t.Fatalf("consumed value %#x from unknown producer", v)
			}
			if perProducerSeen[p][i] {
				t.Fatalf("value %#x consumed twice", v)
			}
			perProducerSeen[p][i] = true
			if i <= last[p] {
				t.Fatalf("consumer %d saw producer %d out of order (%d after %d)", c, p, i, last[p])
			}
			last[p] = i
		}
	}
	total := 0
	for p := range perProducerSeen {
		total += len(perProducerSeen[p])
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d values, want %d", total, producers*perProducer)
	}
	if a := q.Audit(); a.Corrupt() {
		t.Errorf("audit: %s", a)
	}
}

// TestQueueStressRawReportsCorruption is the queue analog of the stack's
// raw-stress test: the raw queue's outcome is whatever the race gods
// allowed (logged, not asserted); the LL/SC twin under the same load must
// audit clean.
func TestQueueStressRawReportsCorruption(t *testing.T) {
	run := func(prot Protection) QueueAudit {
		const n = 8
		const perProc = 300
		q, err := NewQueue(shmem.NewNativeFactory(), n, 4, prot, 0)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for pid := 0; pid < n; pid++ {
			h, err := q.Handle(pid)
			if err != nil {
				t.Fatal(err)
			}
			h.MaxSpin = 10_000 // a corrupted raw queue may livelock its helping loop
			wg.Add(1)
			go func(pid int, h *QueueHandle) {
				defer wg.Done()
				for i := 0; i < perProc; i++ {
					h.Enq(Word(pid)<<32 | Word(i))
					h.Deq()
				}
			}(pid, h)
		}
		wg.Wait()
		return q.Audit()
	}
	rawAudit := run(Raw)
	t.Logf("raw queue audit after stress: %s (corrupt=%v)", rawAudit, rawAudit.Corrupt())
	llscAudit := run(LLSC)
	if llscAudit.Corrupt() {
		t.Errorf("LL/SC queue corrupted: %s", llscAudit)
	}
}

// --- Event flag across the matrix ------------------------------------------

func eventFlag(t *testing.T, prot Protection, tagBits uint) *EventFlag {
	t.Helper()
	e, err := NewProtectedEventFlag(shmem.NewNativeFactory(), 2, prot, tagBits)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEventFlagPulseMatrix is the §1 ladder on the busy-wait flag: an
// in-window pulse (signal, then reset) is missed by the raw flag, missed by
// a 1-bit tag (2 writes wrap it), and detected by a 2-bit tag, LL/SC, and
// detector flags.
func TestEventFlagPulseMatrix(t *testing.T) {
	cases := []struct {
		name      string
		prot      Protection
		tagBits   uint
		wantFired bool
	}{
		{"raw", Raw, 0, false},
		{"tag1", Tagged, 1, false}, // 2 writes ≡ 0 (mod 2): tag wrapped
		{"tag2", Tagged, 2, true},  // 2 writes ≢ 0 (mod 4)
		{"llsc", LLSC, 0, true},
		{"detector", Detector, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := eventFlag(t, tc.prot, tc.tagBits)
			signaler, err := e.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			waiter, err := e.Handle(1)
			if err != nil {
				t.Fatal(err)
			}
			if set, fired := waiter.Poll(); set || fired {
				t.Fatal("initial poll should be quiet")
			}
			signaler.Signal()
			signaler.Reset()
			set, fired := waiter.Poll()
			if set {
				t.Error("flag should be reset")
			}
			if fired != tc.wantFired {
				t.Errorf("fired = %v, want %v", fired, tc.wantFired)
			}
		})
	}
}

// TestEventFlagTagWraparoundThreshold: with k tag bits, a burst of w writes
// inside the waiter's window is invisible iff w ≡ 0 (mod 2^k).
func TestEventFlagTagWraparoundThreshold(t *testing.T) {
	const tagBits = 2
	for pulses := 1; pulses <= 4; pulses++ {
		e := eventFlag(t, Tagged, tagBits)
		signaler, _ := e.Handle(0)
		waiter, _ := e.Handle(1)
		waiter.Poll()
		for i := 0; i < pulses; i++ {
			signaler.Signal()
			signaler.Reset()
		}
		writes := 2 * pulses
		_, fired := waiter.Poll()
		wantFired := writes%(1<<tagBits) != 0
		if fired != wantFired {
			t.Errorf("pulses=%d (writes=%d): fired=%v, want %v", pulses, writes, fired, wantFired)
		}
	}
}

// TestEventFlagMPMCRace races one signaler against several pollers under
// the race detector; for the exact regimes every poller must observe the
// traffic (dirty loads or set flags), and no poll may panic or race.
func TestEventFlagMPMCRace(t *testing.T) {
	for _, tc := range soundProtections() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			const pulses = 2000
			e, err := NewProtectedEventFlag(shmem.NewNativeFactory(), n, tc.prot, tc.tagBits)
			if err != nil {
				t.Fatal(err)
			}
			var fired [n]atomic.Int64
			var stop atomic.Bool
			var ready, wg sync.WaitGroup
			for pid := 1; pid < n; pid++ {
				h, err := e.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				ready.Add(1)
				wg.Add(1)
				go func(pid int, h *EventHandle) {
					defer wg.Done()
					h.Poll() // baseline: arm detection before any traffic
					ready.Done()
					for {
						// Observe stop *before* polling, so the poll that
						// follows a true observation is guaranteed to run
						// after every pulse — exact detection then catches
						// anything this poller slept through.
						done := stop.Load()
						if _, f := h.Poll(); f {
							fired[pid].Add(1)
						}
						if done {
							return
						}
					}
				}(pid, h)
			}
			ready.Wait()
			signaler, err := e.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pulses; i++ {
				signaler.Signal()
				signaler.Reset()
			}
			stop.Store(true)
			wg.Wait()
			for pid := 1; pid < n; pid++ {
				if fired[pid].Load() == 0 {
					t.Errorf("poller %d never observed any of %d pulses", pid, pulses)
				}
			}
		})
	}
}

// --- Differential foil tests ------------------------------------------------

// TestStackFoilDifferential asserts the §1 separation end to end: under the
// same deterministic recycling schedule the raw stack corrupts while the
// LL/SC and detector stacks reject the stale commit and stay intact.
func TestStackFoilDifferential(t *testing.T) {
	cases := []struct {
		name       string
		prot       Protection
		tagBits    uint
		wantFooled bool
	}{
		{"raw", Raw, 0, true},
		{"llsc", LLSC, 0, false},
		{"detector", Detector, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := StackABAScenario(shmem.NewNativeFactory(), tc.prot, tc.tagBits)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled != tc.wantFooled || res.Corrupt != tc.wantFooled {
				t.Fatalf("fooled=%v corrupt=%v (%s), want both %v", res.Fooled, res.Corrupt, res.Detail, tc.wantFooled)
			}
		})
	}
}

// TestQueueFoilDifferential is the queue twin: the raw Michael–Scott queue
// dequeues a long-gone value a second time and strands its head on a free
// node; tagged, LL/SC, and detector queues reject the stale commit.
func TestQueueFoilDifferential(t *testing.T) {
	cases := []struct {
		name       string
		prot       Protection
		tagBits    uint
		wantFooled bool
	}{
		{"raw", Raw, 0, true},
		{"tag16", Tagged, 16, false}, // 3 head swings ≢ 0 (mod 2^16)
		{"llsc", LLSC, 0, false},
		{"detector", Detector, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := QueueABAScenario(shmem.NewNativeFactory(), tc.prot, tc.tagBits)
			if err != nil {
				t.Fatal(err)
			}
			if res.Fooled != tc.wantFooled || res.Corrupt != tc.wantFooled {
				t.Fatalf("fooled=%v corrupt=%v (%s), want both %v", res.Fooled, res.Corrupt, res.Detail, tc.wantFooled)
			}
		})
	}
}

// --- Guarded free list ------------------------------------------------------

// TestGuardedPoolFreeListABA is the free-list ABA scenario the satellite
// task names, deterministically: process A stalls inside alloc's window —
// after loading the free head (node 1) and its link (node 2) but before the
// commit — while process B allocates nodes 1 and 2 and then frees node 1.
// The head *index* is 1 again, but node 2 is now in use.  A raw free list
// accepts A's stale commit and the allocator hands out the in-use node 2
// twice; an LL/SC or detector free list rejects it and counts a near-miss.
func TestGuardedPoolFreeListABA(t *testing.T) {
	for _, tc := range []struct {
		name       string
		prot       Protection
		wantFooled bool
	}{
		{"raw", Raw, true},
		{"llsc", LLSC, false},
		{"detector", Detector, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := shmem.NewNativeFactory()
			mk := guard.NewMaker(f, 2, tc.prot, 0)
			p, err := newGuardedPool(f, mk, "t", 3, 3, shmem.BitsFor(4))
			if err != nil {
				t.Fatal(err)
			}
			ah, err := p.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			a := ah.(*guardedPoolHandle)
			bh, err := p.Handle(1)
			if err != nil {
				t.Fatal(err)
			}
			b := bh.(*guardedPoolHandle)

			// A: the first half of alloc — load head (1) and its link (2).
			top, _ := a.h.Load()
			if top != 1 {
				t.Fatalf("free head = %d, want 1", top)
			}
			aNext := p.next.Get(int(top)).Read(0)

			// B: allocate 1 and 2, then free 1.  Head index is 1 again, but
			// its link now bypasses the in-use node 2.
			if got := b.Alloc(); got != 1 {
				t.Fatalf("B alloc = %d, want 1", got)
			}
			if got := b.Alloc(); got != 2 {
				t.Fatalf("B alloc = %d, want 2", got)
			}
			b.Release(1)

			// A resumes: committing the stale link hands the free list's head
			// to the in-use node 2 iff the guard is fooled.
			fooled := a.h.Commit(aNext)
			if fooled != tc.wantFooled {
				t.Fatalf("stale free-list commit = %v, want %v", fooled, tc.wantFooled)
			}
			if fooled {
				// The corrupted allocator now hands out node 2 although B
				// still owns it: a double allocation.
				if got := b.Alloc(); got != 2 {
					t.Fatalf("corrupted alloc = %d, want the in-use node 2", got)
				}
			} else if m := p.Metrics(); m.NearMisses == 0 {
				t.Errorf("prevented free-list ABA not counted: %s", m)
			}
		})
	}
}

// TestGuardedPoolMetricsVisible: a stack over a guarded pool exposes the
// free-list guard counters, and under the sound regimes a concurrent
// workload leaves the pool consistent.
func TestGuardedPoolMetricsVisible(t *testing.T) {
	for _, tc := range soundProtections() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			s, err := NewStack(shmem.NewNativeFactory(), n, 8, tc.prot, tc.tagBits, WithGuardedPool())
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
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
			m := s.FreelistMetrics()
			if m.Commits == 0 {
				t.Errorf("guarded pool recorded no commits: %s", m)
			}
			t.Logf("freelist metrics: %s", m)
		})
	}
}

// TestGuardedPoolNearMissDeterministic drives the free-list ABA window by
// hand through two handles of one guarded-pool stack: handle A loads the
// free head inside alloc's window while handle B recycles it; the LL/SC
// pool must reject A's stale commit and count a near-miss.
func TestGuardedPoolNearMissDeterministic(t *testing.T) {
	f := shmem.NewNativeFactory()
	s, err := NewStack(f, 2, 4, LLSC, 0, WithGuardedPool())
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	// A pushes and pops so node traffic flows through the free list from
	// both handles; then interleave pushes so commits collide.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			a.Push(1)
			a.Pop()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			b.Push(2)
			b.Pop()
		}
	}()
	wg.Wait()
	if audit := s.Audit(); audit.Corrupt() {
		t.Fatalf("audit: %s", audit)
	}
	m := s.FreelistMetrics()
	t.Logf("freelist metrics after contention: %s", m)
	if m.Commits == 0 {
		t.Fatal("free list never committed")
	}
}

// TestCommitWithoutPending: PopCommit/DeqCommit after an empty Begin (or
// with no Begin at all) must report failure, not dereference node 0.
func TestCommitWithoutPending(t *testing.T) {
	s := newStack(t, 1, 3, LLSC, 0)
	sh := stackHandle(t, s, 0)
	if _, ok := sh.PopCommit(); ok {
		t.Error("PopCommit with no PopBegin succeeded")
	}
	sh.Push(1)
	sh.Pop()
	if _, _, empty := sh.PopBegin(); !empty {
		t.Fatal("stack should be empty")
	}
	if _, ok := sh.PopCommit(); ok {
		t.Error("PopCommit after an empty PopBegin succeeded")
	}
	// Each Begin arms at most one Commit: after a successful PopCommit a
	// second one without a fresh PopBegin must fail, not re-commit the stale
	// snapshot (which double-releases the node once the head cycles back).
	sh.Push(2)
	if _, _, empty := sh.PopBegin(); empty {
		t.Fatal("stack should have one value")
	}
	if v, ok := sh.PopCommit(); !ok || v != 2 {
		t.Fatalf("PopCommit = (%d,%v), want (2,true)", v, ok)
	}
	if _, ok := sh.PopCommit(); ok {
		t.Error("second PopCommit without a fresh PopBegin succeeded")
	}
	// Pop's internal commit path must disarm too: a bare PopCommit after a
	// successful Pop (whose PopBegin armed the snapshot) must fail.
	sh.Push(3)
	if _, _, empty := sh.PopBegin(); empty {
		t.Fatal("stack should have one value")
	}
	if v, ok := sh.Pop(); !ok || v != 3 {
		t.Fatalf("Pop = (%d,%v), want (3,true)", v, ok)
	}
	if _, ok := sh.PopCommit(); ok {
		t.Error("PopCommit after Pop consumed the snapshot succeeded")
	}

	q, err := NewQueue(shmem.NewNativeFactory(), 1, 3, LLSC, 0)
	if err != nil {
		t.Fatal(err)
	}
	qh, err := q.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := qh.DeqCommit(); ok {
		t.Error("DeqCommit with no DeqBegin succeeded")
	}
	qh.Enq(1)
	qh.Deq()
	if _, _, empty := qh.DeqBegin(); !empty {
		t.Fatal("queue should be empty")
	}
	if _, ok := qh.DeqCommit(); ok {
		t.Error("DeqCommit after an empty DeqBegin succeeded")
	}
	// A stale pending from before an empty Begin must not resurface either.
	qh.Enq(2)
	if _, nh, empty := qh.DeqBegin(); empty || nh == 0 {
		t.Fatal("queue should have one value")
	}
	if v, ok := qh.DeqCommit(); !ok || v != 2 {
		t.Fatalf("DeqCommit = (%d,%v), want (2,true)", v, ok)
	}
	if _, ok := qh.DeqCommit(); ok {
		t.Error("second DeqCommit without a fresh DeqBegin succeeded")
	}
	// Deq's internal commit path must disarm too: a DeqBegin snapshot that
	// Deq consumed cannot be replayed by a later bare DeqCommit.
	qh.Enq(3)
	if _, nh, empty := qh.DeqBegin(); empty || nh == 0 {
		t.Fatal("queue should have one value")
	}
	if v, ok := qh.Deq(); !ok || v != 3 {
		t.Fatalf("Deq = (%d,%v), want (3,true)", v, ok)
	}
	if _, ok := qh.DeqCommit(); ok {
		t.Error("DeqCommit after Deq consumed the snapshot succeeded")
	}
	if a := q.Audit(); a.Corrupt() {
		t.Errorf("audit: %s", a)
	}
}
