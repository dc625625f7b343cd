package reclaim

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// epochReclaimer is epoch-based reclamation [Fraser 2004]: a global epoch
// counter plus one announcement register per process.  A process pins the
// current epoch for the duration of its operation; a node retired while the
// global epoch is g can be freed once the global epoch reaches g+2, because
// every critical section that could hold a reference announced an epoch
// ≤ g and the two advances in between each required every *active* process
// to have announced the epoch being left.
//
// Space is n+1 shared objects (n announcements + the epoch counter) plus
// the deferred-free lists per process — asymptotically the same m(n)
// as the paper's Figure 4 detector, amusingly.  Time is O(1) per
// Protect/Clear/Retire with an O(n) announcement sweep amortized over
// `threshold` retires.  Retire itself touches no shared word at all: a
// retired node lands in a private unstamped list, and the drain boundary
// reads the global epoch once to stamp the whole batch (a later stamp is
// always conservative — the node only waits longer).  The catch is the
// scheme's famous failure mode: the epoch counter is unbounded, and one
// stalled process pinned at epoch g blocks the second advance forever —
// every retired node in the system stays in limbo until the straggler
// moves.  hp pays more space for immunity to exactly that.
type epochReclaimer struct {
	n        int
	capacity int    // construction ceiling; pre-sizes the deferred lists
	scheme   string // "epoch" or "epoch:auto"
	fixedK   int    // explicit cadence (epoch:k); 0 = derived from capacity
	auto     bool   // self-tuning cadence (epoch:auto)

	// threshold is the advance cadence derived from the *live* capacity
	// (Resize recomputes it after Pool.Grow); under epoch:auto it is the
	// cadence ceiling the per-handle k relaxes toward.  Atomic because
	// handles read it while a concurrent Grow rewrites it.
	threshold atomic.Int64
	liveCap   atomic.Int64

	epoch  shmem.WritableCAS // global epoch counter (unbounded)
	ann    []shmem.Register  // ann[pid] = epoch<<1 | active
	m      metrics
	limboT limboTracker
	tr     *trace.Recorder // nil unless the pool attached a flight recorder
}

// epochThreshold is the default advance cadence for a live capacity c:
// sweep the announcements once per ~n retires so the advance cost amortizes
// to O(1), clamped to c/n like hp so the n pending lists can never swallow
// the whole pool between drains.
func epochThreshold(n, c int) int {
	t := 2 * n
	if limit := c / n; t > limit {
		t = limit
	}
	if t < 1 {
		t = 1
	}
	return t
}

// NewEpoch builds the epoch-based reclaimer over f: one global epoch CAS,
// n announcement registers, per-process deferred lists, with the default
// advance cadence of min(2n, capacity/n) retires.
func NewEpoch(f shmem.Factory, name string, n, capacity int) (Reclaimer, error) {
	return NewEpochEvery(0)(f, name, n, capacity)
}

// NewEpochEvery returns an epoch-reclaimer Maker whose handles attempt the
// announcement sweep and epoch advance every k retires instead of the
// default min(2n, capacity/n).  A larger k amortizes the O(n) sweep across
// more retires — fewer Scans per op, cheaper retire fast path — at the
// price of up to n·k extra nodes sitting in limbo between drains (m(n)
// space traded for t(n) steps, the paper's axis).  k = 0 keeps the default;
// the exhaustion path still drains eagerly, and the stall counters are
// untouched, so a pinned straggler is as visible as ever.
func NewEpochEvery(k int) Maker {
	return func(f shmem.Factory, name string, n, capacity int) (Reclaimer, error) {
		if k < 0 {
			return nil, fmt.Errorf("reclaim: epoch advance cadence must be >= 0, got %d", k)
		}
		return newEpoch(f, name, n, capacity, k, false)
	}
}

// NewEpochAuto builds the self-tuning epoch reclaimer ("epoch:auto"): the
// same n+1 shared registers and drain protocol as NewEpoch, but each
// handle's advance cadence k floats in [1, default].  The cadence tightens
// — halves — when limbo pressure builds (this handle's pending list claims
// a disproportionate share of the live capacity, or a drain frees nothing
// while nodes wait) and collapses to 1 on allocator backpressure (the pool
// reports an alloc miss through the AllocMiss hook); it relaxes — doubles,
// back toward the default — whenever a drain empties the pending list.
// The result is epoch's cheap m(n) with hp-like responsiveness under
// write-leaning churn, without hand-picking k per workload; the Tightens
// and Relaxes counters record every cadence move.
func NewEpochAuto(f shmem.Factory, name string, n, capacity int) (Reclaimer, error) {
	return newEpoch(f, name, n, capacity, 0, true)
}

func newEpoch(f shmem.Factory, name string, n, capacity, k int, auto bool) (Reclaimer, error) {
	if err := checkArgs(n, capacity); err != nil {
		return nil, err
	}
	r := &epochReclaimer{
		n:        n,
		capacity: capacity,
		scheme:   "epoch",
		fixedK:   k,
		auto:     auto,
		epoch:    f.NewCAS(name+".epoch", 0),
		ann:      make([]shmem.Register, n),
	}
	if auto {
		r.scheme = "epoch:auto"
	}
	r.Resize(capacity)
	label := name + ".ann"
	for i := range r.ann {
		r.ann[i] = f.NewRegister(label, 0)
	}
	return r, nil
}

// Resize recomputes the cadence clamp for a new live capacity — pools call
// it after Grow, so a grown pool does not keep draining on the pre-growth
// cadence.  An explicit epoch:k cadence is pinned by the caller and stays;
// the deferred-list buffers are sized for the construction ceiling, so
// Resize never reallocates.
func (r *epochReclaimer) Resize(capacity int) {
	if capacity < 1 {
		return
	}
	r.liveCap.Store(int64(capacity))
	if r.fixedK > 0 {
		r.threshold.Store(int64(r.fixedK))
		return
	}
	r.threshold.Store(int64(epochThreshold(r.n, capacity)))
}

func (r *epochReclaimer) Handle(pid int, free Free) (Handle, error) {
	if err := checkHandle(pid, r.n, free); err != nil {
		return nil, err
	}
	h := &epochHandle{r: r, pid: pid, free: free, ring: r.tr.Ring(pid)}
	h.fresh = make([]int, 0, r.capacity)
	h.k = int(r.threshold.Load())
	for b := range h.buckets {
		h.buckets[b].nodes = make([]int, 0, r.capacity)
	}
	r.limboT.register(func() []int {
		out := append([]int(nil), h.fresh...)
		for b := range h.buckets {
			out = append(out, h.buckets[b].nodes...)
		}
		return out
	})
	return h, nil
}

// SetTracer attaches the flight recorder.  Pools call it right after
// construction, before any Handle exists, so handles cache their ring once.
func (r *epochReclaimer) SetTracer(rec *trace.Recorder) { r.tr = rec }

func (r *epochReclaimer) Scheme() string   { return r.scheme }
func (r *epochReclaimer) NumProcs() int    { return r.n }
func (r *epochReclaimer) Limbo() []int     { return r.limboT.limbo() }
func (r *epochReclaimer) Metrics() Metrics { return r.m.snapshot() }

// canAdvance reports whether every active process has announced epoch e —
// the precondition for advancing the global epoch to e+1.
func (r *epochReclaimer) canAdvance(pid int, e Word) bool {
	for i := range r.ann {
		a := r.ann[i].Read(pid)
		if a&1 == 1 && a>>1 != e {
			return false
		}
	}
	return true
}

// bucket is one deferred-free list, stamped with the epoch its nodes were
// retired in.  Three buckets suffice: by the time the stamp's epoch slot
// (mod 3) repeats, the previous occupants are two epochs old and freeable.
type bucket struct {
	epoch Word
	nodes []int
}

type epochHandle struct {
	r      *epochReclaimer
	pid    int
	free   Free
	pinned bool
	at     Word // announced epoch while pinned

	// fresh holds retired-but-unstamped nodes: Retire appends here without
	// touching a single shared word, and the next drain boundary reads the
	// global epoch once and stamps the whole batch.  Stamping late is safe —
	// the stamp is ≥ every node's actual retire epoch, so nodes only become
	// freeable later, never earlier.
	fresh   []int
	pending int // fresh + bucketed
	k       int // current advance cadence (floats only under epoch:auto)
	buckets [3]bucket
	ring    *trace.Ring // nil without a tracer; Record on nil is a no-op
}

// Protect pins the current epoch on the first protection of an operation;
// the published index is irrelevant — epochs protect *windows*, not nodes,
// which is exactly why one stalled window blocks everything.
func (h *epochHandle) Protect(int, int) {
	if h.pinned {
		return
	}
	for {
		e := h.r.epoch.Read(h.pid)
		h.r.ann[h.pid].Write(h.pid, e<<1|1)
		// Re-read: if the epoch moved while we announced, our announcement
		// may name an epoch an advancer already left — re-announce so the
		// pin is never older than the epoch we proceed under.
		if h.r.epoch.Read(h.pid) == e {
			h.at, h.pinned = e, true
			return
		}
	}
}

// Clear unpins: the announcement goes inactive, releasing the advance.
func (h *epochHandle) Clear() {
	if !h.pinned {
		return
	}
	h.r.ann[h.pid].Write(h.pid, h.at<<1)
	h.pinned = false
}

// Retire defers idx into the private fresh list — no shared-memory steps at
// all; the epoch read it used to pay per node now happens once per drain.
func (h *epochHandle) Retire(idx int) {
	h.fresh = append(h.fresh, idx)
	h.pending++
	h.r.m.retired.Add(1)
	h.maybeDrain()
}

// RetireBatch defers a whole batch in one call: one pending-list append, one
// counter bump, at most one drain — the amortization the kv unlink and
// overwrite paths buy.  The batch is copied out; idxs is not retained.
func (h *epochHandle) RetireBatch(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	h.fresh = append(h.fresh, idxs...)
	h.pending += len(idxs)
	h.r.m.retired.Add(int64(len(idxs)))
	h.r.m.batches.Add(1)
	h.maybeDrain()
}

// AllocMiss is the pool's backpressure hook: the allocator found no free
// node while this handle may be sitting on limbo.  Under epoch:auto the
// cadence collapses to 1 — drain on every retire until the pressure clears.
func (h *epochHandle) AllocMiss() {
	h.r.m.pressure.Add(1)
	if h.r.auto && h.k > 1 {
		h.k = 1
		h.r.m.tightens.Add(1)
		h.ring.Record(trace.KindTighten, trace.NameEpoch, 1, 0)
	}
}

// maybeDrain applies the cadence: drain once pending reaches the threshold.
// Under epoch:auto the threshold is the per-handle k, tightened here when
// this handle's limbo claims more than half its fair share of the live
// capacity — pending/capacity ratio pressure — before the drain decision.
func (h *epochHandle) maybeDrain() {
	t := int(h.r.threshold.Load())
	if h.r.auto {
		if h.k > t {
			h.k = t // a Resize lowered the ceiling
		}
		if limit := int(h.r.liveCap.Load()) / (2 * h.r.n); limit > 0 && h.pending >= limit && h.k > 1 {
			h.k = 1
			h.r.m.tightens.Add(1)
			h.ring.Record(trace.KindTighten, trace.NameEpoch, 1, 0)
		}
		t = h.k
	}
	if h.pending >= t {
		h.drain()
	}
}

// Drain tries to advance the global epoch and frees this handle's expired
// buckets.
func (h *epochHandle) Drain() int { return h.drain() }

func (h *epochHandle) drain() int {
	if h.pending == 0 {
		return 0 // nothing deferred: no sweep, no advance attempt
	}
	h.r.m.scans.Add(1)
	// The drain boundary's single shared epoch read stamps every fresh node.
	h.stamp(h.r.epoch.Read(h.pid))
	freed := 0
	// Two advance attempts: a node retired at the current epoch needs the
	// global counter to move twice before its bucket expires.  A pinned
	// process (this handle included, if mid-operation) blocks the attempt
	// that would leave its announced epoch.
	for attempt := 0; attempt < 2 && h.pending > 0; attempt++ {
		e := h.r.epoch.Read(h.pid)
		freed += h.freeExpired(e)
		if h.pending == 0 {
			break
		}
		if !h.r.canAdvance(h.pid, e) {
			break
		}
		if h.r.epoch.CompareAndSwap(h.pid, e, e+1) {
			h.ring.Record(trace.KindEpochAdvance, trace.NameEpoch, uint64(e+1), 0)
		}
	}
	freed += h.freeExpired(h.r.epoch.Read(h.pid))
	if freed == 0 && h.pending > 0 {
		h.r.m.stalls.Add(1)
		if h.r.auto && h.k > 1 {
			h.k >>= 1 // a fruitless sweep: tighten toward eager advancement
			h.r.m.tightens.Add(1)
			h.ring.Record(trace.KindTighten, trace.NameEpoch, uint64(h.k), 0)
		}
	} else if h.r.auto && h.pending == 0 {
		if ceiling := int(h.r.threshold.Load()); h.k < ceiling {
			h.k <<= 1 // the drain emptied the pending list: relax
			if h.k > ceiling {
				h.k = ceiling
			}
			h.r.m.relaxes.Add(1)
		}
	}
	h.ring.Record(trace.KindScan, trace.NameEpoch, uint64(freed), uint64(h.pending))
	return freed
}

// stamp moves the fresh list into the bucket of epoch e.  A bucket whose
// slot comes around again holds nodes at least three epochs old — freeable,
// so they are flushed before reuse.
func (h *epochHandle) stamp(e Word) {
	if len(h.fresh) == 0 {
		return
	}
	b := &h.buckets[e%3]
	if b.epoch != e && len(b.nodes) > 0 {
		h.flush(b)
	}
	b.epoch = e
	b.nodes = append(b.nodes, h.fresh...)
	h.fresh = h.fresh[:0]
}

// freeExpired frees every bucket retired at least two epochs before e,
// oldest stamp first, so frees stay in retire order even when two buckets
// expire in one pass.
func (h *epochHandle) freeExpired(e Word) int {
	freed := 0
	for {
		var oldest *bucket
		for b := range h.buckets {
			bkt := &h.buckets[b]
			if len(bkt.nodes) > 0 && bkt.epoch+2 <= e {
				if oldest == nil || bkt.epoch < oldest.epoch {
					oldest = bkt
				}
			}
		}
		if oldest == nil {
			return freed
		}
		freed += h.flush(oldest)
	}
}

// flush frees a whole bucket in retire order.
func (h *epochHandle) flush(b *bucket) int {
	n := len(b.nodes)
	for _, idx := range b.nodes {
		h.free(idx)
	}
	b.nodes = b.nodes[:0]
	h.pending -= n
	h.r.m.freed.Add(int64(n))
	return n
}
