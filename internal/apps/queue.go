package apps

import (
	"fmt"

	"abadetect/internal/guard"
	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Queue is a Michael–Scott FIFO queue whose mutable references — head, tail,
// and every node's next pointer — are Guards.
//
// The original Michael–Scott queue [24] is the poster child of the tagging
// literature: with raw CAS and recycled nodes it suffers exactly the ABA the
// paper describes, which is why the original used (unbounded) counted
// pointers.  With Guards, the queue runs the whole §1 ladder:
//
//   - Raw: the historical victim.  The deterministic recycling schedule in
//     the foil tests dequeues the same value twice and strands the head on
//     a free node.
//   - Tagged: the IBM-tag fix — sound until the tag wraps inside a victim's
//     window.
//   - LLSC: every commit is an SC; a stale swing fails no matter how the
//     indices cycled (the regime the seed hardwired).
//   - Detector: the Figure 5 detecting view over LL/SC, counting every
//     prevented ABA.
type Queue struct {
	n        int
	capacity int

	value []shmem.Register
	next  []guard.Guard // next[i] holds the successor index of node i
	head  guard.Guard
	tail  guard.Guard
	pool  Pool
	dummy int             // initial dummy node (allocated at construction)
	tr    *trace.Recorder // nil unless built WithTrace
}

// NewQueue builds a queue for n processes with the given capacity (usable
// nodes beyond the mandatory dummy), its references guarded by prot.
// tagBits is only used by the Tagged regime; both are ignored when
// WithMaker supplies the guards.
func NewQueue(f shmem.Factory, n, capacity int, prot Protection, tagBits uint, opts ...StructOption) (*Queue, error) {
	if n < 1 {
		return nil, fmt.Errorf("apps: queue needs n >= 1, got %d", n)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("apps: queue needs capacity >= 1, got %d", capacity)
	}
	o := ResolveStructOptions(f, n, prot, tagBits, opts)
	total := capacity + 1 // one extra node so the dummy never starves callers
	idxBits := shmem.BitsFor(total + 1)
	q := &Queue{
		n:        n,
		capacity: total,
		value:    make([]shmem.Register, total+1),
		next:     make([]guard.Guard, total+1),
		tr:       o.Trace,
	}
	var err error
	for i := 1; i <= total; i++ {
		q.value[i] = f.NewRegister("qvalue", 0)
		if q.next[i], err = o.Maker(o.Trace.Label("qnext", i), idxBits, 0); err != nil {
			return nil, fmt.Errorf("apps: queue next[%d] guard: %w", i, err)
		}
	}
	if q.pool, err = NewPool(f, o, "queue", n, total, total, idxBits); err != nil {
		return nil, err
	}
	boot, err := q.pool.Handle(0)
	if err != nil {
		return nil, err
	}
	q.dummy = boot.Alloc()
	if q.head, err = o.Maker("qhead", idxBits, Word(q.dummy)); err != nil {
		return nil, fmt.Errorf("apps: queue head guard: %w", err)
	}
	if q.tail, err = o.Maker("qtail", idxBits, Word(q.dummy)); err != nil {
		return nil, fmt.Errorf("apps: queue tail guard: %w", err)
	}
	if !q.head.Conditional() {
		return nil, fmt.Errorf("apps: queue needs conditional guards; %s guard is detection-only", q.head.Regime())
	}
	return q, nil
}

// NumProcs returns n.
func (q *Queue) NumProcs() int { return q.n }

// Capacity returns the number of usable nodes (beyond the dummy).
func (q *Queue) Capacity() int { return q.capacity - 1 }

// Protection returns the reference-guard regime.
func (q *Queue) Protection() Protection { return q.head.Regime() }

// GuardMetrics returns the aggregated audit counters of every reference
// guard (head, tail, and all next pointers).
func (q *Queue) GuardMetrics() guard.Metrics {
	m := q.head.Metrics().Add(q.tail.Metrics())
	for i := 1; i < len(q.next); i++ {
		m = m.Add(q.next[i].Metrics())
	}
	return m
}

// FreelistMetrics returns the node pool's guard counters (zero unless the
// queue was built WithGuardedPool).
func (q *Queue) FreelistMetrics() guard.Metrics { return q.pool.Metrics() }

// PoolStats returns the allocator's exhaustion and reclamation counters.
func (q *Queue) PoolStats() PoolStats { return q.pool.Stats() }

// Handle returns process pid's handle.  Handles are single-goroutine.
func (q *Queue) Handle(pid int) (*QueueHandle, error) {
	if pid < 0 || pid >= q.n {
		return nil, fmt.Errorf("apps: pid %d out of range [0,%d)", pid, q.n)
	}
	h := &QueueHandle{q: q, pid: pid, next: make([]guard.Handle, len(q.next)), ring: q.tr.Ring(pid)}
	var err error
	if h.pool, err = q.pool.Handle(pid); err != nil {
		return nil, err
	}
	h.smr = h.pool.Reclaiming()
	// Same eligibility rule as the stack's Peek and the map's fast Get: the
	// wait-free read path skips the protection fence, which is sound unless
	// the configuration is raw *and* reclaiming (where the protected path is
	// what makes reads sound today).
	h.fastOK = !h.smr || q.head.Regime() != guard.Raw
	if h.head, err = q.head.Handle(pid); err != nil {
		return nil, err
	}
	if h.tail, err = q.tail.Handle(pid); err != nil {
		return nil, err
	}
	for i := 1; i < len(q.next); i++ {
		if h.next[i], err = q.next[i].Handle(pid); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// QueueHandle is a per-process queue endpoint.
type QueueHandle struct {
	q      *Queue
	pid    int
	head   guard.Handle
	tail   guard.Handle
	next   []guard.Handle
	pool   PoolHandle
	smr    bool        // pool defers releases: run the protect/revalidate fence
	fastOK bool        // wait-free read fast path is sound for this configuration
	ring   *trace.Ring // nil without WithTrace; Record on nil is a no-op

	// MaxSpin bounds the retry/helping loops of Enq and Deq; 0 means
	// unbounded (the lock-free default).  A raw-guarded queue that has been
	// ABA-corrupted can acquire a cycle through its next chain, turning the
	// tail-helping loop into a livelock — benchmark and race harnesses set a
	// bound so a corrupted foil fails operations instead of hanging.
	MaxSpin int
	// spunOut records that a MaxSpin budget ran out: the queue is livelocked
	// for this handle, and matrix workers stop issuing operations on it.
	spunOut bool
}

// spent reports whether a bounded handle has used up its spin budget, and
// records it in spunOut when it has.
func (h *QueueHandle) spent(spins int) bool {
	if h.MaxSpin > 0 && spins >= h.MaxSpin {
		h.spunOut = true
		return true
	}
	return false
}

// Enq appends v.  It returns false when the node pool is exhausted (or a
// MaxSpin budget ran out).
func (h *QueueHandle) Enq(v Word) bool {
	if h.ring == nil {
		return h.enq(v)
	}
	h.ring.Begin()
	ok := h.enq(v)
	h.ring.End()
	return ok
}

func (h *QueueHandle) enq(v Word) bool {
	idx := h.pool.Alloc()
	if idx == 0 {
		return false
	}
	h.q.value[idx].Write(h.pid, v)
	// Reset the recycled node's next pointer; only we touch a free node.
	h.next[idx].Store(0)
	for spins := 0; ; spins++ {
		if h.spent(spins) {
			if h.smr {
				h.pool.Clear()
			}
			h.pool.Release(idx)
			return false
		}
		t, _ := h.tail.Load()
		// Publish the protection on t, then validate: once the tail still
		// reads t with the protection visible, t cannot be recycled until
		// clear, so the next[t] dereference below is covered.
		if h.smr {
			h.pool.Protect(0, int(t))
		}
		if !h.tail.Validate() {
			continue // t is no longer the tail: the snapshot is stale
		}
		nt, _ := h.next[t].Load()
		if nt == 0 {
			if h.next[t].Commit(Word(idx)) {
				// Linearized.  Help the tail forward using the arm from this
				// iteration's Load of t: the commit only lands while the tail
				// is still t, so a helper that already advanced it makes the
				// swing fail (fine) instead of dragging the tail backwards
				// onto a node that may since have been dequeued and freed.
				h.tail.Commit(Word(idx))
				if h.smr {
					h.pool.Clear()
				}
				return true
			}
			continue
		}
		// Tail is lagging: help it forward and retry.
		h.tail.Commit(nt)
	}
}

// Deq removes the oldest value.  It returns false when the queue is empty
// (or a MaxSpin budget ran out).
func (h *QueueHandle) Deq() (Word, bool) {
	if h.ring == nil {
		return h.deq()
	}
	h.ring.Begin()
	v, ok := h.deq()
	h.ring.End()
	return v, ok
}

func (h *QueueHandle) deq() (Word, bool) {
	for spins := 0; ; spins++ {
		if h.spent(spins) {
			if h.smr {
				h.pool.Clear()
			}
			return 0, false
		}
		hd, nh, empty, ok := h.deqSnapshot()
		if !ok {
			continue
		}
		if empty {
			return 0, false
		}
		if v, ok := h.deqCommit(hd, nh); ok {
			return v, true
		}
	}
}

// Peek returns the oldest value without dequeuing it.  ok=false means empty.
//
// The common case is the wait-free seqlock read: load the head, load its
// successor link, read the successor's value, and accept the result only if
// the head still validates — no hazard slot, no tail helping, and on a clean
// read not a single shared write.  A node's next pointer is written only
// while the node is free (Enq's reset) or 0→idx while linked, so with the
// head unchanged across the fence the loaded successor and its value are a
// consistent front-of-queue snapshot; any recycle under the reader fails the
// validation on the sound regimes.  After peekRetries torn attempts Peek
// falls back to the protected deqSnapshot path, which helps and is lock-free.
func (h *QueueHandle) Peek() (Word, bool) {
	if h.ring == nil {
		return h.peek()
	}
	h.ring.Begin()
	v, ok := h.peek()
	h.ring.End()
	return v, ok
}

func (h *QueueHandle) peek() (Word, bool) {
	if h.fastOK {
		for attempt := 0; attempt < peekRetries; attempt++ {
			hdW, _ := h.head.Load()
			nhW, _ := h.next[hdW].Load()
			if nhW == 0 {
				if h.head.Validate() {
					return 0, false // consistent snapshot of an empty queue
				}
				continue
			}
			v := h.q.value[nhW].Read(h.pid)
			if h.head.Validate() {
				return v, true
			}
		}
	}
	return h.peekGuarded()
}

// peekGuarded is the fallback read: Deq's snapshot fence without the commit,
// exactly as sound as a dequeue under the active configuration.
func (h *QueueHandle) peekGuarded() (Word, bool) {
	for spins := 0; ; spins++ {
		if h.spent(spins) {
			if h.smr {
				h.pool.Clear()
			}
			return 0, false
		}
		_, nh, empty, ok := h.deqSnapshot()
		if !ok {
			continue
		}
		if empty {
			return 0, false
		}
		v := h.q.value[nh].Read(h.pid)
		if !h.head.Validate() {
			continue // the head moved under the value read: stale front
		}
		if h.smr {
			h.pool.Clear()
		}
		return v, true
	}
}

// IsEmpty reports whether the queue was empty at some point during the call:
// a consistent (head, next[head]==0) snapshot.  Wait-free via the same fast
// path as Peek, falling back to the full snapshot loop only on torn reads.
func (h *QueueHandle) IsEmpty() bool {
	if h.ring == nil {
		return h.isEmpty()
	}
	h.ring.Begin()
	empty := h.isEmpty()
	h.ring.End()
	return empty
}

func (h *QueueHandle) isEmpty() bool {
	if h.fastOK {
		for attempt := 0; attempt < peekRetries; attempt++ {
			hdW, _ := h.head.Load()
			nhW, _ := h.next[hdW].Load()
			if h.head.Validate() {
				return nhW == 0
			}
		}
	}
	_, ok := h.peekGuarded()
	return !ok
}

// deqSnapshot reads (head, tail, next[head]) and validates the head.  It
// returns ok=false when the snapshot was stale and must be retried, and
// empty=true on a consistent empty queue; as a side effect it helps a
// lagging tail forward.
//
// The reclamation protocol fences both dereferences: the head node hd is
// protected before its next pointer is read, and the successor nh is
// protected before the value read in deqCommit — each publish followed by a
// head re-validation that proves the protected node was still reachable
// with the protection visible.  The protections persist through a stall
// before the commit, and the commit withdraws them.
func (h *QueueHandle) deqSnapshot() (hd, nh int, empty, ok bool) {
	hdW, _ := h.head.Load()
	if h.smr {
		h.pool.Protect(0, int(hdW))
		if !h.head.Validate() {
			return 0, 0, false, false // hd moved before the protection was visible
		}
	}
	tW, _ := h.tail.Load()
	nhW, _ := h.next[hdW].Load()
	if !h.head.Validate() {
		return 0, 0, false, false // hd is no longer the head: stale snapshot
	}
	if nhW == 0 {
		if h.smr {
			h.pool.Clear()
			// An empty dequeue is this process's idle moment: drain its
			// own deferred nodes so an idle consumer cannot strand every
			// node in limbo while the producers starve (the clear above
			// must come first — an epoch drain cannot advance past its
			// own pin).
			h.pool.Drain()
		}
		return 0, 0, true, true // consistent snapshot of an empty queue
	}
	if h.smr {
		h.pool.Protect(1, int(nhW))
		if !h.head.Validate() {
			return 0, 0, false, false
		}
	}
	if hdW == tW {
		// Tail lagging behind a half-finished enqueue: help.
		h.tail.Commit(nhW)
		return 0, 0, false, false
	}
	return int(hdW), int(nhW), false, true
}

func (h *QueueHandle) deqCommit(hd, nh int) (Word, bool) {
	v := h.q.value[nh].Read(h.pid)
	if h.head.Commit(Word(nh)) {
		h.ring.Record(trace.KindOpCommit, trace.NameDeq, 1, uint64(hd))
		// The old dummy is exclusively ours now; clearing before the
		// release keeps our own protection from deferring its retirement.
		if h.smr {
			h.pool.Clear()
		}
		h.pool.Release(hd)
		return v, true
	}
	if h.smr {
		h.pool.Clear()
	}
	h.ring.Record(trace.KindOpCommit, trace.NameDeq, 0, uint64(hd))
	return 0, false
}

// QueueAudit is a quiescent-state structural check.
type QueueAudit struct {
	// Length is the number of values in the queue (nodes after the dummy).
	Length int
	// InFree is the number of nodes in the allocator's free queue.
	InFree int
	// Doubled lists nodes that are both reachable and free.
	Doubled []int
	// Lost is the number of unaccounted nodes.
	Lost int
	// Cycle reports whether the chain from head contains a cycle.
	Cycle bool
	// TailValid reports whether the tail points at a reachable node.
	TailValid bool
}

// Corrupt reports whether the audit found structural damage.
func (a QueueAudit) Corrupt() bool {
	return len(a.Doubled) > 0 || a.Lost > 0 || a.Cycle || !a.TailValid
}

// String renders the audit result.
func (a QueueAudit) String() string {
	return fmt.Sprintf("length=%d inFree=%d doubled=%v lost=%d cycle=%v tailValid=%v",
		a.Length, a.InFree, a.Doubled, a.Lost, a.Cycle, a.TailValid)
}

// Audit walks the chain and the free queue.  Call only at quiescence.
func (q *Queue) Audit() QueueAudit {
	var a QueueAudit
	seen := make(map[int]int, q.capacity)
	tailIdx := int(q.tail.Peek(-1))

	cur := int(q.head.Peek(-1))
	for hops := 0; cur != 0; hops++ {
		if hops > q.capacity {
			a.Cycle = true
			break
		}
		seen[cur]++
		if cur == tailIdx {
			a.TailValid = true
		}
		if hops > 0 {
			a.Length++
		}
		cur = int(q.next[cur].Peek(-1))
	}
	for _, idx := range q.pool.Snapshot() {
		seen[idx]++
		a.InFree++
	}
	for idx, count := range seen {
		if count > 1 {
			a.Doubled = append(a.Doubled, idx)
		}
	}
	a.Lost = q.capacity - len(seen)
	return a
}
