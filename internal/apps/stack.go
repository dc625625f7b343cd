package apps

import (
	"fmt"

	"abadetect/internal/guard"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Stack is a Treiber stack over a fixed pool of index-based nodes, the
// canonical ABA victim of the paper's §1.
//
// A pop reads the head index, reads the head node's successor, and commits
// the head to the successor.  If, between the two reads and the commit,
// other processes popped the head node, recycled it through the allocator,
// and pushed it back, a raw commit still succeeds — and swings the head to
// a node that may long since have been freed.  The head is a Guard, so the
// same code runs under every Protection regime:
//
//   - Raw: bare CAS on the index.  The deterministic corruption scenario in
//     stack_test.go (and the paper's motivation) breaks it.
//   - Tagged: a k-bit wrap-around tag beside the index.  Safe until exactly
//     2^k head commits occur inside the victim's window, then broken.
//   - LLSC: an LL/SC object (built from a single bounded CAS, Theorem 2).
//     Immune: a stale commit fails after any intervening successful commit.
//   - Detector: the Figure 5 detecting view over LL/SC.  Immune, and every
//     prevented ABA shows up in the guard's NearMisses counter.
//
// Node allocation goes through the pool: by default the mutex FIFO
// allocator model (see pool.go), or — with WithGuardedPool — a lock-free
// free list whose head is a Guard of the same regime.
type Stack struct {
	n        int
	capacity int

	value []shmem.Register // value[i] of node i (1-based)
	next  []shmem.Register // next[i] of node i; 0 = nil

	pool Pool
	head guard.Guard
	tr   *trace.Recorder // nil unless built WithTrace
}

// NewStack builds a stack for n processes with the given node capacity.
// tagBits is only used by the Tagged regime; both prot and tagBits are
// ignored when WithMaker supplies the guards.
func NewStack(f shmem.Factory, n, capacity int, prot Protection, tagBits uint, opts ...StructOption) (*Stack, error) {
	if n < 1 {
		return nil, fmt.Errorf("apps: stack needs n >= 1, got %d", n)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("apps: stack needs capacity >= 1, got %d", capacity)
	}
	o := ResolveStructOptions(f, n, prot, tagBits, opts)
	idxBits := shmem.BitsFor(capacity + 1)
	s := &Stack{
		n:        n,
		capacity: capacity,
		value:    make([]shmem.Register, capacity+1),
		next:     make([]shmem.Register, capacity+1),
		tr:       o.Trace,
	}
	for i := 1; i <= capacity; i++ {
		s.value[i] = f.NewRegister("value", 0)
		s.next[i] = f.NewRegister("next", 0)
	}
	head, err := o.Maker("head", idxBits, 0)
	if err != nil {
		return nil, fmt.Errorf("apps: stack head guard: %w", err)
	}
	if !head.Conditional() {
		return nil, fmt.Errorf("apps: stack head needs a conditional guard; %s guard is detection-only", head.Regime())
	}
	s.head = head
	if s.pool, err = NewPool(f, o, "stack", n, capacity, capacity, idxBits); err != nil {
		return nil, err
	}
	return s, nil
}

// NumProcs returns n.
func (s *Stack) NumProcs() int { return s.n }

// Capacity returns the node-pool capacity.
func (s *Stack) Capacity() int { return s.capacity }

// Protection returns the head-guard regime.
func (s *Stack) Protection() Protection { return s.head.Regime() }

// GuardMetrics returns the head guard's audit counters.
func (s *Stack) GuardMetrics() guard.Metrics { return s.head.Metrics() }

// FreelistMetrics returns the node pool's guard counters (zero unless the
// stack was built WithGuardedPool).
func (s *Stack) FreelistMetrics() guard.Metrics { return s.pool.Metrics() }

// PoolStats returns the allocator's exhaustion and reclamation counters.
func (s *Stack) PoolStats() PoolStats { return s.pool.Stats() }

// Handle returns process pid's handle.  Handles are single-goroutine.
func (s *Stack) Handle(pid int) (*StackHandle, error) {
	if pid < 0 || pid >= s.n {
		return nil, fmt.Errorf("apps: pid %d out of range [0,%d)", pid, s.n)
	}
	head, err := s.head.Handle(pid)
	if err != nil {
		return nil, err
	}
	ph, err := s.pool.Handle(pid)
	if err != nil {
		return nil, err
	}
	sh := &StackHandle{s: s, pid: pid, head: head, pool: ph, smr: ph.Reclaiming(), ring: s.tr.Ring(pid)}
	// The wait-free Peek skips the protection fence; that is sound whenever a
	// torn read is detectable (the sound regimes) or nothing defers frees (no
	// reclaimer, where today's read path is equally value-blind).  Raw under
	// a reclaimer keeps the protected path so its reads stay as sound as the
	// reclaimer makes them — same eligibility rule as the map's fast Get.
	sh.fastOK = !sh.smr || s.head.Regime() != guard.Raw
	return sh, nil
}

// StackHandle is a per-process stack endpoint.
type StackHandle struct {
	s      *Stack
	pid    int
	head   guard.Handle
	pool   PoolHandle
	smr    bool        // pool defers releases: run the protect/revalidate fence
	fastOK bool        // wait-free read fast path is sound for this configuration
	ring   *trace.Ring // nil without WithTrace; Record on nil is a no-op

	pending int // node loaded by PopBegin
	next    int // its successor, as read by PopBegin
}

// Push pushes v.  It returns false when the node pool is exhausted.
func (h *StackHandle) Push(v Word) bool {
	if h.ring == nil {
		return h.push(v)
	}
	h.ring.Begin()
	ok := h.push(v)
	h.ring.End()
	return ok
}

func (h *StackHandle) push(v Word) bool {
	idx := h.pool.Alloc()
	if idx == 0 {
		return false
	}
	h.s.value[idx].Write(h.pid, v)
	for {
		top, _ := h.head.Load()
		h.s.next[idx].Write(h.pid, top)
		if h.head.Commit(Word(idx)) {
			return true
		}
	}
}

// Pop pops the top value.  It returns false when the stack is empty.
func (h *StackHandle) Pop() (Word, bool) {
	if h.ring == nil {
		return h.pop()
	}
	h.ring.Begin()
	v, ok := h.pop()
	h.ring.End()
	return v, ok
}

func (h *StackHandle) pop() (Word, bool) {
	for {
		top, next, empty := h.popBegin()
		if empty {
			return 0, false
		}
		if v, ok := h.popCommit(top, next); ok {
			return v, true
		}
	}
}

// PopBegin performs the vulnerable first half of a pop — load the head and
// read its successor — and stops right before the commit, exposing the ABA
// window for the deterministic corruption experiments.  It returns
// empty=true if the stack was empty.
//
// Under a reclaimer the window is fenced: the loaded head is published as a
// protection *before* the successor dereference, and the head is
// re-validated after the publish.  Once the validation passes, the node is
// currently reachable with the protection visible, so it cannot re-enter
// the allocator — and therefore cannot be recycled back under the head —
// until the protection clears.  The protection stays up through the stall
// and is withdrawn by the commit (either outcome).
func (h *StackHandle) PopBegin() (top, next int, empty bool) {
	if h.ring == nil {
		return h.popBegin()
	}
	h.ring.Begin()
	top, next, empty = h.popBegin()
	h.ring.End()
	return top, next, empty
}

func (h *StackHandle) popBegin() (top, next int, empty bool) {
	for {
		topW, _ := h.head.Load()
		top = int(topW)
		if top == 0 {
			if h.smr {
				h.pool.Clear()
				// An empty pop is this process's idle moment: drain its
				// own deferred nodes so a popper that stops retiring
				// cannot strand them in limbo while pushers starve.
				h.pool.Drain()
			}
			h.pending, h.next = 0, 0
			return 0, 0, true
		}
		if h.smr {
			h.pool.Protect(0, top)
			if !h.head.Validate() {
				continue // head moved before the protection was visible
			}
		}
		next = int(h.s.next[top].Read(h.pid))
		h.pending, h.next = top, next
		h.ring.Record(trace.KindOpBegin, trace.NamePop, uint64(top), uint64(next))
		return top, next, false
	}
}

// PopCommit performs the second half of the pop begun by PopBegin: the
// conditional swing of the head.  On success it returns the popped value
// (read *after* the swing, as the classic implementation does) and recycles
// the node.  On failure nothing changes in the stack; the caller may retry
// with a fresh PopBegin.  Each PopBegin arms at most one PopCommit — with
// no pending pop (an empty PopBegin, a prior PopCommit, or no PopBegin at
// all) it reports failure, so a stale snapshot can never be committed
// twice.
func (h *StackHandle) PopCommit() (Word, bool) {
	if h.pending == 0 {
		return 0, false
	}
	if h.ring == nil {
		return h.popCommit(h.pending, h.next)
	}
	h.ring.Begin()
	v, ok := h.popCommit(h.pending, h.next)
	h.ring.End()
	return v, ok
}

func (h *StackHandle) popCommit(top, next int) (Word, bool) {
	// Any commit attempt — PopCommit's or Pop's own — consumes whatever
	// snapshot a PopBegin armed, so a later bare PopCommit cannot replay it.
	h.pending, h.next = 0, 0
	if !h.head.Commit(Word(next)) {
		if h.smr {
			h.pool.Clear()
		}
		h.ring.Record(trace.KindOpCommit, trace.NamePop, 0, uint64(top))
		return 0, false
	}
	h.ring.Record(trace.KindOpCommit, trace.NamePop, 1, uint64(top))
	v := h.s.value[top].Read(h.pid)
	// The popped node is exclusively ours now; clearing before the release
	// keeps our own protection from deferring its retirement.
	if h.smr {
		h.pool.Clear()
	}
	h.pool.Release(top)
	return v, true
}

// peekRetries bounds the wait-free read path's torn-read restarts before a
// Peek falls back to the protected traversal: the reader's step count stays
// bounded regardless of writer behavior, and sustained write pressure
// degrades to the lock-free mainline instead of starving the read.
const peekRetries = 3

// Peek returns the top value without popping it.  ok=false means empty.
//
// The common case is the seqlock read protocol of guard.ReadConsistent: load
// the head, read the top node's value, and accept the pair only if the head
// still validates — no hazard slot, no pool traffic, and on a clean read not
// a single shared write.  The value read is memory-safe even mid-recycle
// (nodes are array indices), and any recycle under the reader fails the
// validation on the sound regimes.  After peekRetries torn attempts Peek
// falls back to the protected read path.
func (h *StackHandle) Peek() (Word, bool) {
	if h.fastOK {
		var v Word
		top, clean := guard.ReadConsistent(h.head, peekRetries, func(w Word) {
			if w != 0 {
				v = h.s.value[int(w)].Read(h.pid)
			}
		})
		if clean {
			return v, top != 0
		}
	}
	if h.ring == nil {
		return h.peekGuarded()
	}
	h.ring.Begin()
	v, ok := h.peekGuarded()
	h.ring.End()
	return v, ok
}

// peekGuarded is the fallback read: the PopBegin fence (publish a protection,
// re-validate, then dereference) without the commit, so it is exactly as
// sound as a pop under the active configuration.
func (h *StackHandle) peekGuarded() (Word, bool) {
	for {
		topW, _ := h.head.Load()
		top := int(topW)
		if top == 0 {
			if h.smr {
				h.pool.Clear()
			}
			return 0, false
		}
		if h.smr {
			h.pool.Protect(0, top)
			if !h.head.Validate() {
				continue // head moved before the protection was visible
			}
		}
		v := h.s.value[top].Read(h.pid)
		if !h.smr && !h.head.Validate() {
			continue // the node may have been recycled under the read
		}
		if h.smr {
			h.pool.Clear()
		}
		return v, true
	}
}

// IsEmpty reports whether the stack was empty at some point during the call.
// A single head load answers it — wait-free on every regime — and the
// Validate consumes the detection window the way the busy-wait scenarios
// expect.
func (h *StackHandle) IsEmpty() bool {
	top, _ := guard.ReadConsistent(h.head, 1, nil)
	return top == 0
}

// StackAudit is a quiescent-state structural check.
type StackAudit struct {
	// InStack is the number of nodes reachable from the head.
	InStack int
	// InFree is the number of nodes in the allocator's free queue.
	InFree int
	// Doubled lists nodes that are both reachable and free, or reachable
	// twice — the smoking gun of an ABA corruption.
	Doubled []int
	// Lost is the number of nodes neither reachable nor free (leaked).
	Lost int
	// Cycle reports whether the head chain contains a cycle.
	Cycle bool
}

// Corrupt reports whether the audit found structural damage.
func (a StackAudit) Corrupt() bool { return len(a.Doubled) > 0 || a.Lost > 0 || a.Cycle }

// String renders the audit result.
func (a StackAudit) String() string {
	return fmt.Sprintf("inStack=%d inFree=%d doubled=%v lost=%d cycle=%v",
		a.InStack, a.InFree, a.Doubled, a.Lost, a.Cycle)
}

// Audit walks the stack and the free queue.  It must only be called while no
// handle is mid-operation (quiescence); it reads registers with the observer
// pid, taking no scheduled steps under the simulator.
func (s *Stack) Audit() StackAudit {
	var a StackAudit
	seen := make(map[int]int, s.capacity)

	cur := s.headIndex()
	for hops := 0; cur != 0; hops++ {
		if hops > s.capacity {
			a.Cycle = true
			break
		}
		seen[cur]++
		a.InStack++
		cur = int(s.next[cur].Read(-1))
	}
	for _, idx := range s.pool.Snapshot() {
		seen[idx]++
		a.InFree++
	}
	for idx, count := range seen {
		if count > 1 {
			a.Doubled = append(a.Doubled, idx)
		}
	}
	a.Lost = s.capacity - len(seen)
	return a
}

// headIndex reads the head node index with the observer pid.
func (s *Stack) headIndex() int { return int(s.head.Peek(-1)) }
