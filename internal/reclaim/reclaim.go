// Package reclaim is the safe-memory-reclamation layer: the ABA defense
// real systems deploy instead of (or beside) the paper's tags and LL/SC.
//
// The paper's §1 problem exists because a node index can be freed and
// recycled while a poised process still holds it: the reference's *word*
// returns to a value the process has seen, and a raw conditional swing
// cannot tell.  Tags spend k bits per word to distinguish the repeat
// (Theorem 1(a) bounds how well that can work); LL/SC and detecting
// registers spend m(n) base objects and t(n) steps to detect it.  Safe
// memory reclamation attacks the premise instead: if a node cannot be
// reused while any process may still hold a reference to it, the word never
// repeats inside a victim's window and the ABA never forms — no tag bits,
// no detector.  What it costs is the other axis of the paper's trade-off:
// space for published references or deferred nodes, and time to decide when
// reuse is safe.
//
// A Reclaimer manages the reuse of node indices for one structure's
// allocator.  Per-process Handles expose the four-step seam every scheme
// fits behind:
//
//   - Protect(slot, idx) publishes that this process may still dereference
//     idx (hazard pointers write a slot; epoch schemes pin the current
//     epoch; the pass-through does nothing);
//   - Clear withdraws every protection this process published (ends the
//     operation's window);
//   - Retire(idx) hands a removed node to the reclaimer instead of freeing
//     it; the node returns to the allocator only once no protection can
//     cover it;
//   - Drain makes reclamation progress explicitly (scan the hazard slots,
//     try to advance the epoch) and reports how many nodes it freed —
//     allocators call it before declaring the pool exhausted.
//
// Three implementations realize the classic points of the SMR design
// space, with the paper's m(n)/t(n) vocabulary in their registry entries:
//
//   - hp (NewHazard): per-process hazard-pointer slots over shmem words.
//     m(n) = n·Slots single-writer registers; Retire is O(1) amortized with
//     an O(n·Slots) scan every threshold retires.  A stalled process defers
//     at most the Slots nodes it protects — everything else keeps draining.
//   - epoch (NewEpoch): a global epoch plus per-process epoch announcements
//     and three deferred-free buckets per process.  m(n) = n+1 objects and
//     O(1) amortized steps — cheaper per protection than hp — but the epoch
//     counter is unbounded and ONE stalled pinned process blocks every
//     reuse in the system: the time-vs-robustness trade the stalled-process
//     experiments exhibit.
//   - none (NewNone): the pass-through preserving immediate reuse — the
//     foil that keeps today's vulnerable behavior measurable.
//
// Reclaimers allocate their shared words from a shmem.Factory, so hazard
// slots and epoch announcements are ordinary base objects: they appear in
// footprints and run on every substrate.
package reclaim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// Word is the value type of the shared reclamation words.
type Word = shmem.Word

// Slots is the number of hazard slots each process owns — the largest
// number of nodes one operation must protect at once (a Michael–Scott
// dequeue needs two: the head node and its successor).
const Slots = 2

// Free returns a retired node to the allocator's free pool.  The reclaimer
// invokes it only when no process protection can cover the node, and only
// from inside a call of the handle it was given to (Retire, RetireBatch or
// Drain).  A pool may therefore collect one call's frees and return them
// together, in free order, after the call returns.
type Free func(idx int)

// Handle is a process's reclamation endpoint.  A handle must be used by at
// most one goroutine at a time, and each process should hold at most one
// live handle (hazard slots and epoch announcements are per-process state).
type Handle interface {
	// Protect publishes that this process may dereference idx.  slot is in
	// [0, Slots); protecting a new index in an occupied slot replaces it.
	Protect(slot, idx int)
	// Clear withdraws every protection this handle published.
	Clear()
	// Retire hands a removed node to the reclaimer.  The node is freed —
	// possibly immediately, possibly on a later Retire or Drain — once no
	// protection can cover it.
	Retire(idx int)
	// RetireBatch hands over a whole batch of removed nodes at once, with
	// the per-retire bookkeeping (epoch stamping, cadence checks, counter
	// bumps) amortized over the batch.  Retire order within the batch is
	// preserved.  The slice is copied out, never retained.
	RetireBatch(idxs []int)
	// Drain attempts reclamation now and returns the number of nodes this
	// handle freed.  Allocators call it before reporting exhaustion.
	Drain() int
}

// Pressured is the optional backpressure seam of a Handle: a pool that
// finds no free node calls AllocMiss before draining, so an adaptive
// scheme (epoch:auto) can tighten its advance cadence instead of letting
// limbo lag starve the allocator again.  Schemes without a cadence to tune
// may implement it as a pure counter.
type Pressured interface {
	AllocMiss()
}

// Traced is the optional observability seam of a Reclaimer: a pool built
// with tracing attaches the flight recorder here, immediately after
// construction and before any Handle exists, so handles can cache their
// per-process ring once.  Schemes record their internal milestones —
// sweeps, epoch advances, cadence tightenings — into the owning process's
// ring; a scheme without internal milestones may ignore the seam.
type Traced interface {
	SetTracer(rec *trace.Recorder)
}

// Resizer is the optional capacity seam of a Reclaimer: pools whose node
// space grows (Pool.Grow) call Resize with the new live capacity so
// capacity-derived cadence clamps are recomputed — a reclaimer built for a
// growth ceiling would otherwise drain a small young pool on the ceiling's
// lazy cadence, and a grown pool on the seed's eager one.  Resize must not
// reallocate per-handle buffers (they are sized for the construction
// ceiling) and must be safe against concurrent handle traffic.
type Resizer interface {
	Resize(capacity int)
}

// Reclaimer manages safe reuse of the node indices of one structure.
type Reclaimer interface {
	// Handle returns process pid's endpoint; freed nodes are returned
	// through free (typically the allocator's release for that process).
	Handle(pid int, free Free) (Handle, error)
	// Scheme names the reclamation scheme ("hp", "epoch", "none").
	Scheme() string
	// NumProcs returns n.
	NumProcs() int
	// Limbo returns the retired-but-not-yet-freed node indices.  Call only
	// at quiescence (no handle mid-operation); audits count limbo nodes as
	// allocator-owned.
	Limbo() []int
	// Metrics returns the aggregated reclamation counters.
	Metrics() Metrics
}

// Maker builds the reclaimer for one structure's node pool: n processes,
// node indices 1..capacity, shared words allocated from f under name.
type Maker func(f shmem.Factory, name string, n, capacity int) (Reclaimer, error)

// Metrics aggregates a reclaimer's counters across all handles.  Like guard
// metrics they are instrumentation, not base objects.
type Metrics struct {
	// Retired counts nodes handed to the reclaimer.
	Retired int64
	// Freed counts nodes returned to the allocator.
	Freed int64
	// Scans counts reclamation attempts: hazard-slot scans or epoch-advance
	// passes.
	Scans int64
	// Stalls counts reclamation attempts that could free nothing while
	// nodes were pending — hazards covering every retired node, or an epoch
	// advance blocked by a pinned process.
	Stalls int64
	// Batches counts RetireBatch calls: multi-node retirements whose
	// bookkeeping was amortized over the batch.
	Batches int64
	// Pressure counts allocator backpressure signals (AllocMiss): failed
	// allocations reported to the reclaimer before the exhaustion drain.
	Pressure int64
	// Tightens and Relaxes count the self-tuning cadence moves of
	// epoch:auto: threshold reductions under limbo pressure or stalled
	// drains, and threshold increases after drains that emptied the
	// pending list.
	Tightens, Relaxes int64
}

// Deferred returns the nodes currently in limbo (retired, not yet freed).
func (m Metrics) Deferred() int64 { return m.Retired - m.Freed }

// String renders the counters.
func (m Metrics) String() string {
	return fmt.Sprintf("retired=%d freed=%d deferred=%d scans=%d stalls=%d batches=%d pressure=%d tightens=%d relaxes=%d",
		m.Retired, m.Freed, m.Deferred(), m.Scans, m.Stalls, m.Batches, m.Pressure, m.Tightens, m.Relaxes)
}

// metrics is the shared atomic backing of Metrics.
type metrics struct {
	retired  atomic.Int64
	freed    atomic.Int64
	scans    atomic.Int64
	stalls   atomic.Int64
	batches  atomic.Int64
	pressure atomic.Int64
	tightens atomic.Int64
	relaxes  atomic.Int64
}

func (m *metrics) snapshot() Metrics {
	return Metrics{
		Retired:  m.retired.Load(),
		Freed:    m.freed.Load(),
		Scans:    m.scans.Load(),
		Stalls:   m.stalls.Load(),
		Batches:  m.batches.Load(),
		Pressure: m.pressure.Load(),
		Tightens: m.tightens.Load(),
		Relaxes:  m.relaxes.Load(),
	}
}

// limboTracker collects the per-handle retired lists for quiescent audits.
// Handle registration is construction-time only, so the mutex never touches
// a hot path.
type limboTracker struct {
	mu      sync.Mutex
	pending []func() []int
}

func (t *limboTracker) register(snapshot func() []int) {
	t.mu.Lock()
	t.pending = append(t.pending, snapshot)
	t.mu.Unlock()
}

func (t *limboTracker) limbo() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for _, snap := range t.pending {
		out = append(out, snap()...)
	}
	return out
}

func checkArgs(n, capacity int) error {
	if n < 1 {
		return fmt.Errorf("reclaim: need n >= 1, got %d", n)
	}
	if capacity < 1 {
		return fmt.Errorf("reclaim: need capacity >= 1, got %d", capacity)
	}
	return nil
}

func checkHandle(pid, n int, free Free) error {
	if pid < 0 || pid >= n {
		return fmt.Errorf("reclaim: pid %d out of range [0,%d)", pid, n)
	}
	if free == nil {
		return fmt.Errorf("reclaim: handle needs a non-nil free callback")
	}
	return nil
}

// ---------------------------------------------------------------------------
// none: the pass-through preserving immediate reuse.

type noneReclaimer struct {
	n int
	m metrics
}

// NewNone builds the pass-through reclaimer: Retire frees immediately,
// Protect and Clear are no-ops.  It preserves today's immediate-reuse
// behavior — the §1 vulnerability — while keeping the counters uniform.
func NewNone(_ shmem.Factory, _ string, n, capacity int) (Reclaimer, error) {
	if err := checkArgs(n, capacity); err != nil {
		return nil, err
	}
	return &noneReclaimer{n: n}, nil
}

func (r *noneReclaimer) Handle(pid int, free Free) (Handle, error) {
	if err := checkHandle(pid, r.n, free); err != nil {
		return nil, err
	}
	return &noneHandle{r: r, free: free}, nil
}

func (r *noneReclaimer) Scheme() string   { return "none" }
func (r *noneReclaimer) NumProcs() int    { return r.n }
func (r *noneReclaimer) Limbo() []int     { return nil }
func (r *noneReclaimer) Metrics() Metrics { return r.m.snapshot() }

type noneHandle struct {
	r    *noneReclaimer
	free Free
}

func (h *noneHandle) Protect(int, int) {}
func (h *noneHandle) Clear()           {}

func (h *noneHandle) Retire(idx int) {
	h.r.m.retired.Add(1)
	h.free(idx)
	h.r.m.freed.Add(1)
}

func (h *noneHandle) RetireBatch(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	for _, idx := range idxs {
		h.free(idx)
	}
	h.r.m.retired.Add(int64(len(idxs)))
	h.r.m.freed.Add(int64(len(idxs)))
	h.r.m.batches.Add(1)
}

func (h *noneHandle) Drain() int { return 0 }
