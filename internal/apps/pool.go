package apps

import (
	"fmt"
	"sync"
	"sync/atomic"

	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// Pool is the node allocator behind every structure.  Nodes are 1-based
// indices; Alloc returns 0 when the pool is exhausted.  The seam is exported
// so structures outside this package (the hash map of internal/kv) share the
// same allocator models and reclamation plumbing instead of growing private
// copies.
//
// Two base implementations exist because the allocator plays two roles in
// the paper's story.  The fifoPool models the *system* allocator: a FIFO
// ring under a mutex, deliberately outside the shared-memory cost model,
// whose FIFO reuse maximizes the realism of the ABA window (a freed node
// comes back exactly when an adversary wants it to).  The guardedPool
// brings the allocator *into* the model: a lock-free LIFO free list whose
// head is a Guard, making the free list itself exactly as ABA-vulnerable —
// or protected — as the structure above it.
//
// Either base can additionally be wrapped by a reclaimedPool (WithReclaimer):
// Release then *retires* nodes through a reclaim.Reclaimer instead of
// freeing them, and the structures' traversal loops publish protections
// before dereferencing — the safe-memory-reclamation defense that stops the
// ABA before any guard has to detect it.
type Pool interface {
	// Handle returns process pid's allocator endpoint.
	Handle(pid int) (PoolHandle, error)
	// Snapshot copies the current free set — deferred (limbo) nodes
	// included — for auditing (quiescence only).
	Snapshot() []int
	// Metrics returns the free-list guard's audit counters (zero for the
	// unguarded FIFO model).
	Metrics() guard.Metrics
	// Stats returns the allocator's own counters: exhaustion events and,
	// when a reclaimer is attached, its reclamation metrics.
	Stats() PoolStats
	// Grow extends the pool to newCapacity nodes (indices up to newCapacity
	// become allocatable) and returns the resulting capacity.  Growth is
	// monotone and idempotent: a newCapacity at or below the current
	// capacity is a no-op.  Existing nodes never move — growth only extends
	// the index space — so outstanding indices, protections, and limbo
	// entries all stay valid across a Grow racing Alloc/Release.  pid is
	// the process that grows the pool; a traced pool records the growth on
	// its ring.
	Grow(pid, newCapacity int) (int, error)
}

// PoolHandle is a per-process allocator endpoint.
type PoolHandle interface {
	// Alloc takes a free node, or 0 when exhausted.
	Alloc() int
	// Release returns a node to the pool — immediately, or through the
	// reclaimer's deferred-free path when one is attached.
	Release(idx int)
	// ReleaseBatch returns a whole batch of nodes in one call: the pool is
	// left as the same Release calls in sequence would leave it, with the
	// per-release bookkeeping (mutex acquisitions, free-list commits,
	// reclaimer stamping) amortized over the batch.  The slice is copied
	// out, never retained.
	ReleaseBatch(idxs []int)
	// Protect publishes that this process may still dereference idx
	// (reclaim slot semantics); a no-op without a reclaimer.
	Protect(slot, idx int)
	// Clear withdraws every protection this process published.
	Clear()
	// Drain makes reclamation progress for this process's deferred nodes.
	// Structures call it when an operation finds nothing to do (empty pop,
	// empty dequeue, map miss): a process that stops retiring would
	// otherwise hold its pending nodes in limbo forever while allocators
	// starve — drains only ride its own alloc/retire path.  A no-op without
	// a reclaimer, and O(1) when nothing is pending.
	Drain() int
	// Reclaiming reports whether releases defer through a reclaimer —
	// structures skip the publish-and-revalidate fence (and the empty-path
	// drains) entirely when it is false, so the non-SMR configurations pay
	// nothing for the seam.
	Reclaiming() bool
}

// PoolStats are an allocator's observability counters, surfaced through the
// public StructureAudit so a saturated benchmark is distinguishable from a
// livelock and reclamation pressure is visible.
//
// Like guard.Metrics, a PoolStats snapshot is relaxed: each counter is read
// atomically, but the struct is assembled from many independent loads (and,
// for the reclaimer, per-handle sums), so a snapshot taken under live
// traffic can catch an operation between its counter bumps.  At quiescence
// the snapshot is exact and repeatable.
type PoolStats struct {
	// Exhaustions counts Alloc calls that found no free node — after
	// draining the reclaimer, when one is attached.
	Exhaustions int64
	// Scheme names the active reclamation scheme; "none" means immediate
	// reuse (the default allocator behavior).
	Scheme string
	// Reclaim holds the reclaimer's counters (zero without one).
	Reclaim reclaim.Metrics
	// Grows counts capacity extensions that actually extended the pool
	// (no-op Grow calls at or below the current capacity don't count).
	Grows int64
}

// NewPool builds the pool selected by the resolved structure configuration:
// nodes 1..capacity, chain links of idxBits bits, optionally wrapped by the
// configuration's reclaimer.  ceiling is the most nodes the structure will
// ever Grow the pool to (its capacity if it never grows); the reclaimer is
// sized for it.
func NewPool(f shmem.Factory, cfg StructConfig, name string, n, capacity, ceiling int, idxBits uint) (Pool, error) {
	var p Pool
	if cfg.GuardedPool {
		gp, err := newGuardedPool(f, cfg.Maker, name, capacity, max(capacity, ceiling), idxBits)
		if err != nil {
			return nil, err
		}
		p = gp
	} else {
		p = newFIFOPool(capacity)
	}
	if cfg.Reclaim != nil {
		// Size the reclaimer for the structure's ceiling up front: limbo
		// buffers never reallocate across Pool.Grow.  The cadence clamps then
		// follow the *live* capacity through the Resizer seam — here for the
		// seed capacity, and again on every growth — so a young pool is not
		// drained on the ceiling's lazy cadence.
		rec, err := cfg.Reclaim(f, name, n, max(capacity, ceiling))
		if err != nil {
			return nil, fmt.Errorf("apps: reclaimer: %w", err)
		}
		if rz, ok := rec.(reclaim.Resizer); ok {
			rz.Resize(capacity)
		}
		if cfg.Trace != nil {
			// Attach before any Handle exists, so reclaim handles can cache
			// their per-process ring at creation.
			if tr, ok := rec.(reclaim.Traced); ok {
				tr.SetTracer(cfg.Trace)
			}
		}
		p = &reclaimedPool{inner: p, rec: rec, exhaustions: shmem.NewStripedCounter()}
	}
	if cfg.Trace != nil {
		// Outermost, so the recorded alloc/release order is the order the
		// structure observed — retires surface as retires, and an alloc that
		// succeeded only after a drain still records as one alloc.
		p = &tracedPool{inner: p, rec: cfg.Trace, name: cfg.Trace.Intern(name)}
	}
	return p, nil
}

// fifoPool is the mutex FIFO allocator model: a preallocated ring, so the
// steady-state alloc/release path never touches the heap.
type fifoPool struct {
	mu    sync.Mutex
	ring  []int
	head  int
	count int
	limit int // highest index ever minted; Grow raises it

	exhaustions atomic.Int64
	grows       atomic.Int64
}

func newFIFOPool(capacity int) *fifoPool {
	p := &fifoPool{ring: make([]int, capacity), count: capacity, limit: capacity}
	for i := 0; i < capacity; i++ {
		p.ring[i] = i + 1
	}
	return p
}

func (p *fifoPool) Handle(int) (PoolHandle, error) { return p, nil }

func (p *fifoPool) Metrics() guard.Metrics { return guard.Metrics{} }

func (p *fifoPool) Stats() PoolStats {
	return PoolStats{Exhaustions: p.exhaustions.Load(), Scheme: "none", Grows: p.grows.Load()}
}

// Grow mints the fresh indices limit+1..newCapacity into the back of the
// ring.  The FIFO model is a mutex allocator, so growth is just more ring.
func (p *fifoPool) Grow(_, newCapacity int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if newCapacity <= p.limit {
		return p.limit, nil
	}
	for i := p.limit + 1; i <= newCapacity; i++ {
		p.releaseLocked(i)
	}
	p.limit = newCapacity
	p.grows.Add(1)
	return newCapacity, nil
}

// Alloc takes the oldest free node, or 0 when exhausted.
func (p *fifoPool) Alloc() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.count == 0 {
		p.exhaustions.Add(1)
		return 0
	}
	idx := p.ring[p.head]
	p.head = (p.head + 1) % len(p.ring)
	p.count--
	return idx
}

// Release returns a node to the back of the queue.
func (p *fifoPool) Release(idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.releaseLocked(idx)
}

// ReleaseBatch returns a batch under one mutex acquisition, in order.
func (p *fifoPool) ReleaseBatch(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, idx := range idxs {
		p.releaseLocked(idx)
	}
}

func (p *fifoPool) releaseLocked(idx int) {
	if p.count == len(p.ring) {
		// An ABA double-release (the corruption arms do this on purpose) or
		// a capacity Grow can overfill the ring.  Grow the backing slice
		// instead of wrapping so the audit still sees a duplicate entry
		// rather than a silently corrupted ring; the steady-state
		// alloc/release path never gets here.
		grown := make([]int, 2*len(p.ring))
		for i := 0; i < p.count; i++ {
			grown[i] = p.ring[(p.head+i)%len(p.ring)]
		}
		p.ring, p.head = grown, 0
	}
	p.ring[(p.head+p.count)%len(p.ring)] = idx
	p.count++
}

// Snapshot copies the free queue, oldest first, for auditing.
func (p *fifoPool) Snapshot() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, p.count)
	for i := 0; i < p.count; i++ {
		out = append(out, p.ring[(p.head+i)%len(p.ring)])
	}
	return out
}

func (p *fifoPool) Protect(int, int) {}
func (p *fifoPool) Clear()           {}
func (p *fifoPool) Drain() int       { return 0 }
func (p *fifoPool) Reclaiming() bool { return false }

// guardedPool is a Treiber-style free list: head is a Guard, chain links are
// registers (a free node is owned by the allocator, so its link needs no
// guard of its own).  With a raw head guard this free list reproduces the
// textbook allocator ABA — Alloc reads the head and its link, and a stale
// commit can hand out a node that was re-freed in between; the guard's
// NearMisses counter records every such ABA a stronger regime caught.
type guardedPool struct {
	head     guard.Guard
	next     *shmem.Spine[shmem.Register] // next.Get(i) links free node i; 0 ends the list
	capacity int                          // initial capacity (the pre-chained nodes)

	// Growth state.  limit publishes the current capacity: indices 1..limit
	// are mintable.  frontier is the next never-allocated ("wilderness")
	// index — Alloc claims it by CAS when the recycled free list is empty.
	// The claim is a monotone counter, not a pointer swing, so the frontier
	// path is ABA-free under every regime.  Grow extends the link spine
	// *before* raising limit, so an allocator that observes frontier<=limit
	// always finds next.Get(frontier) built.
	limit    shmem.Register
	frontier shmem.CAS
	factory  shmem.Factory
	linkName string // every chain link's label: links are registers, never traced

	growMu sync.Mutex // serializes Grow; keeps limit monotone
	grows  atomic.Int64

	// Striped: exhaustion bursts hit every allocating process at once, which
	// is exactly when a shared counter word would add contention.
	exhaustions *shmem.StripedCounter
}

func newGuardedPool(f shmem.Factory, mk guard.Maker, name string, capacity, ceiling int, idxBits uint) (*guardedPool, error) {
	p := &guardedPool{
		capacity:    capacity,
		factory:     f,
		linkName:    name + ".free",
		exhaustions: shmem.NewStripedCounter(),
	}
	// Initial chain 1 -> 2 -> ... -> capacity, so the first allocations come
	// out in index order like the FIFO model's.  The links live in a Spine
	// so Grow can extend the index space without moving a single register —
	// a plain slice append would relocate links under unsynchronized readers.
	next, err := shmem.NewSpine(capacity+1, ceiling+1, func(i int) (shmem.Register, error) {
		if i == 0 {
			return nil, nil // index 0 is the nil link, never dereferenced
		}
		init := Word(i + 1)
		if i == capacity {
			init = 0
		}
		return f.NewRegister(p.linkName, init), nil
	})
	if err != nil {
		return nil, err
	}
	p.next = next
	p.limit = f.NewRegister(name+".limit", Word(capacity))
	p.frontier = f.NewCAS(name+".frontier", Word(capacity+1))
	head, err := mk(name+".freelist", idxBits, 1)
	if err != nil {
		return nil, fmt.Errorf("apps: free-list guard: %w", err)
	}
	if !head.Conditional() {
		return nil, fmt.Errorf("apps: free-list needs a conditional guard; %s guard is detection-only", head.Regime())
	}
	p.head = head
	return p, nil
}

// Grow extends the pool to newCapacity: the link spine grows first (new
// registers published segment-at-a-time, old ones never move), then limit is
// raised, releasing the wilderness [old limit+1, newCapacity] to Alloc's
// frontier claims.  New nodes are handed out through the frontier counter
// rather than being chained, so Grow never touches the free-list head and
// cannot race its guard.
func (p *guardedPool) Grow(_, newCapacity int) (int, error) {
	p.growMu.Lock()
	defer p.growMu.Unlock()
	cur := int(p.limit.Read(-1))
	if newCapacity <= cur {
		return cur, nil
	}
	_, err := p.next.Grow(newCapacity+1, func(i int) (shmem.Register, error) {
		return p.factory.NewRegister(p.linkName, 0), nil
	})
	if err != nil {
		return cur, err
	}
	p.limit.Write(-1, Word(newCapacity))
	p.grows.Add(1)
	return newCapacity, nil
}

func (p *guardedPool) Handle(pid int) (PoolHandle, error) {
	h, err := p.head.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &guardedPoolHandle{p: p, h: h, pid: pid, lane: shmem.StripeFor(pid)}, nil
}

func (p *guardedPool) Metrics() guard.Metrics { return p.head.Metrics() }

func (p *guardedPool) Stats() PoolStats {
	return PoolStats{Exhaustions: p.exhaustions.Load(), Scheme: "none", Grows: p.grows.Load()}
}

// Snapshot walks the free chain as the observer, then appends the unclaimed
// wilderness [frontier, limit] — never-allocated nodes are free nodes, and
// audits must see them that way.  A chain cycle (possible only after a
// raw-guard ABA) is truncated at limit hops; the structure audit surfaces
// the damage as doubled or lost nodes.
func (p *guardedPool) Snapshot() []int {
	limit := int(p.limit.Read(-1))
	var out []int
	cur := int(p.head.Peek(-1))
	for hops := 0; cur != 0 && hops < limit; hops++ {
		out = append(out, cur)
		cur = int(p.next.Get(cur).Read(-1))
	}
	for i := int(p.frontier.Read(-1)); i <= limit; i++ {
		out = append(out, i)
	}
	return out
}

type guardedPoolHandle struct {
	p    *guardedPool
	h    guard.Handle
	pid  int
	lane int // counter stripe, shmem.StripeFor(pid)
}

// Alloc pops the free-list head; when the recycled list is empty it claims
// the next wilderness index below limit instead.  The list pop is the
// vulnerable shape: between loading the head and committing its successor,
// the head node can be allocated, released, and re-chained — under a raw
// guard the stale commit still succeeds and installs a dangling link.  The
// wilderness claim is a monotone fetch-and-increment: immune by shape.
func (h *guardedPoolHandle) Alloc() int {
	for {
		top, _ := h.h.Load()
		if top != 0 {
			next := h.p.next.Get(int(top)).Read(h.pid)
			if h.h.Commit(next) {
				return int(top)
			}
			continue
		}
		fr := h.p.frontier.Read(h.pid)
		if fr > h.p.limit.Read(h.pid) {
			h.p.exhaustions.Add(h.lane, 1)
			return 0
		}
		if h.p.frontier.CompareAndSwap(h.pid, fr, fr+1) {
			return int(fr)
		}
	}
}

// Release pushes idx back onto the free list.
func (h *guardedPoolHandle) Release(idx int) {
	for {
		top, _ := h.h.Load()
		h.p.next.Get(idx).Write(h.pid, top)
		if h.h.Commit(Word(idx)) {
			return
		}
	}
}

// ReleaseBatch chains the batch locally — idxs[last] -> ... -> idxs[0] —
// and swings the free-list head once: one guard commit per batch instead of
// one per node.  idxs[last] lands on top, as the same Releases in sequence
// would leave it.  The internal links are writes to allocator-owned nodes no
// other process can reach, so only the head swing needs the retry loop.
func (h *guardedPoolHandle) ReleaseBatch(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	for i := len(idxs) - 1; i > 0; i-- {
		h.p.next.Get(idxs[i]).Write(h.pid, Word(idxs[i-1]))
	}
	for {
		top, _ := h.h.Load()
		h.p.next.Get(idxs[0]).Write(h.pid, top)
		if h.h.Commit(Word(idxs[len(idxs)-1])) {
			return
		}
	}
}

func (h *guardedPoolHandle) Protect(int, int) {}
func (h *guardedPoolHandle) Clear()           {}
func (h *guardedPoolHandle) Drain() int       { return 0 }
func (h *guardedPoolHandle) Reclaiming() bool { return false }

// reclaimedPool routes Release through a reclaim.Reclaimer: nodes retire
// into limbo and re-enter the inner pool only once no process protection
// can cover them, together with the other nodes the same reclaimer call
// freed.  Alloc drains the reclaimer before reporting exhaustion, so a full
// limbo triggers reclamation instead of failure.
type reclaimedPool struct {
	inner Pool
	rec   reclaim.Reclaimer

	exhaustions *shmem.StripedCounter

	mu      sync.Mutex
	handles map[int]*reclaimedHandle
}

// Handle is idempotent per pid: hazard slots and epoch announcements are
// per-process state, so every structure handle of one process (the queue's
// construction-time boot handle included) must share one reclaim endpoint.
func (p *reclaimedPool) Handle(pid int) (PoolHandle, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if h, ok := p.handles[pid]; ok {
		return h, nil
	}
	ih, err := p.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	h := &reclaimedHandle{p: p, inner: ih, lane: shmem.StripeFor(pid)}
	if h.rh, err = p.rec.Handle(pid, h.collect); err != nil {
		return nil, err
	}
	h.press, _ = h.rh.(reclaim.Pressured)
	if p.handles == nil {
		p.handles = make(map[int]*reclaimedHandle)
	}
	p.handles[pid] = h
	return h, nil
}

func (p *reclaimedPool) Metrics() guard.Metrics { return p.inner.Metrics() }

func (p *reclaimedPool) Stats() PoolStats {
	st := p.inner.Stats() // inherit the inner pool's Grows counter
	st.Exhaustions = p.exhaustions.Load()
	st.Scheme = p.rec.Scheme()
	st.Reclaim = p.rec.Metrics()
	return st
}

// Snapshot counts limbo nodes as allocator-owned: retired-not-yet-freed is
// a reclamation state, not a leak, and audits must see it that way.
func (p *reclaimedPool) Snapshot() []int {
	return append(p.inner.Snapshot(), p.rec.Limbo()...)
}

// Grow extends the inner pool, then tells the reclaimer the new live
// capacity so its capacity-derived cadence clamps are recomputed — a grown
// pool must not keep draining on the pre-growth cadence.
func (p *reclaimedPool) Grow(pid, newCapacity int) (int, error) {
	got, err := p.inner.Grow(pid, newCapacity)
	if err == nil {
		if rz, ok := p.rec.(reclaim.Resizer); ok {
			rz.Resize(got)
		}
	}
	return got, err
}

type reclaimedHandle struct {
	p     *reclaimedPool
	inner PoolHandle
	rh    reclaim.Handle
	press reclaim.Pressured // rh's backpressure hook; nil when not offered
	lane  int               // counter stripe, shmem.StripeFor(pid)

	// freed collects, in free order, the nodes the reclaimer frees during
	// one call into it; flush hands them to the inner pool after the call,
	// so a reclamation pass costs one pool call however many nodes it
	// frees.  It grows to the largest pass this process has run.
	freed []int
}

// collect is the reclaimer's free callback.
func (h *reclaimedHandle) collect(idx int) { h.freed = append(h.freed, idx) }

// flush returns the nodes the last reclaimer call freed to the inner pool.
// One node goes back through Release: the pass-through reclaimer frees one
// node per call, and a one-node batch would only add the batch's set-up.
func (h *reclaimedHandle) flush() {
	if len(h.freed) == 1 {
		h.inner.Release(h.freed[0])
	} else {
		h.inner.ReleaseBatch(h.freed)
	}
	h.freed = h.freed[:0]
}

// Alloc takes a free node; on exhaustion it reports the miss to the
// reclaimer's backpressure hook (an adaptive scheme tightens its cadence),
// drains once, and retries, so deferred nodes flow back before failure.
func (h *reclaimedHandle) Alloc() int {
	idx := h.inner.Alloc()
	if idx == 0 {
		if h.press != nil {
			h.press.AllocMiss()
		}
		if h.Drain() > 0 {
			idx = h.inner.Alloc()
		}
		if idx == 0 {
			h.p.exhaustions.Add(h.lane, 1)
		}
	}
	return idx
}

func (h *reclaimedHandle) Release(idx int) {
	h.rh.Retire(idx)
	if len(h.freed) > 0 {
		h.flush()
	}
}

func (h *reclaimedHandle) ReleaseBatch(idxs []int) {
	h.rh.RetireBatch(idxs)
	if len(h.freed) > 0 {
		h.flush()
	}
}

func (h *reclaimedHandle) Drain() int {
	n := h.rh.Drain()
	if len(h.freed) > 0 {
		h.flush()
	}
	return n
}

func (h *reclaimedHandle) Protect(slot, idx int) { h.rh.Protect(slot, idx) }
func (h *reclaimedHandle) Clear()                { h.rh.Clear() }
func (h *reclaimedHandle) Reclaiming() bool      { return true }
