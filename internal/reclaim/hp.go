package reclaim

import (
	"slices"
	"sync/atomic"

	"abadetect/internal/shmem"
	"abadetect/internal/trace"
)

// hpReclaimer is the hazard-pointer scheme [Michael 2004, the detectable-
// objects line's practical ancestor]: every process owns Slots single-writer
// registers; Protect publishes a node index there, and a retired node is
// freed only once a scan of all n·Slots slots finds it unprotected.
//
// Space is n·Slots registers — the paper's m(n) = O(n·H) for this scheme —
// plus at most capacity deferred indices per process.  Time is one register
// write per Protect, one per Clear for each slot published since the last
// Clear, and every `threshold` retires a scan reads all n·Slots registers
// once.  Each pending node is then probed linearly against that local
// snapshot of at most n·Slots words: local work, which the paper's t(n)
// does not count.  Robustness is hp's selling point over epochs: a stalled
// process defers at most the Slots nodes it protects; everything else keeps
// draining.
type hpReclaimer struct {
	n        int
	capacity int // construction ceiling; pre-sizes the deferred lists

	// threshold is the scan cadence derived from the *live* capacity
	// (Resize recomputes it after Pool.Grow).  Atomic because handles read
	// it while a concurrent Grow rewrites it.
	threshold atomic.Int64

	hazards []shmem.Register // hazards[pid*Slots+slot]; 0 = unprotected

	m      metrics
	limboT limboTracker
	tr     *trace.Recorder // nil unless the pool attached a flight recorder
}

// hpThreshold is the scan cadence for a live capacity c: the classic
// multiple of the slot count, so each scan amortizes to O(1) per retire,
// clamped to c/n so the n per-process pending lists can never swallow the
// whole pool between drains.
func hpThreshold(n, c int) int {
	t := 2 * n * Slots
	if limit := c / n; t > limit {
		t = limit
	}
	if t < 1 {
		t = 1
	}
	return t
}

// NewHazard builds the hazard-pointer reclaimer: n·Slots hazard registers
// over f, scan-and-free once a process has threshold retired nodes pending.
func NewHazard(f shmem.Factory, name string, n, capacity int) (Reclaimer, error) {
	if err := checkArgs(n, capacity); err != nil {
		return nil, err
	}
	r := &hpReclaimer{
		n:        n,
		capacity: capacity,
		hazards:  make([]shmem.Register, n*Slots),
	}
	r.Resize(capacity)
	label := name + ".hp"
	for i := range r.hazards {
		r.hazards[i] = f.NewRegister(label, 0)
	}
	return r, nil
}

// Resize recomputes the scan-cadence clamp for a new live capacity — pools
// call it after Grow, so a grown pool does not keep scanning on the
// pre-growth cadence.  The deferred-list buffers are sized for the
// construction ceiling, so Resize never reallocates.
func (r *hpReclaimer) Resize(capacity int) {
	if capacity < 1 {
		return
	}
	r.threshold.Store(int64(hpThreshold(r.n, capacity)))
}

func (r *hpReclaimer) Handle(pid int, free Free) (Handle, error) {
	if err := checkHandle(pid, r.n, free); err != nil {
		return nil, err
	}
	h := &hpHandle{
		r:       r,
		pid:     pid,
		free:    free,
		retired: make([]int, 0, r.capacity),
		snap:    make([]Word, 0, r.n*Slots),
		ring:    r.tr.Ring(pid),
	}
	for s := range h.marked {
		h.marked[s] = true
	}
	r.limboT.register(func() []int { return h.retired })
	return h, nil
}

// SetTracer attaches the flight recorder.  Pools call it right after
// construction, before any Handle exists, so handles cache their ring once.
func (r *hpReclaimer) SetTracer(rec *trace.Recorder) { r.tr = rec }

func (r *hpReclaimer) Scheme() string   { return "hp" }
func (r *hpReclaimer) NumProcs() int    { return r.n }
func (r *hpReclaimer) Limbo() []int     { return r.limboT.limbo() }
func (r *hpReclaimer) Metrics() Metrics { return r.m.snapshot() }

type hpHandle struct {
	r    *hpReclaimer
	pid  int
	free Free
	// marked[s] is set when slot s may hold a published index: Protect
	// marks its slot and Clear withdraws only the marked slots.  A new handle
	// starts with every slot marked, so its first Clear also withdraws what
	// an earlier handle of this process left published.  Plain per-slot
	// stores, not a bit mask, so Protect adds no read-modify-write.
	marked  [Slots]bool
	retired []int       // deferred nodes, in retire (FIFO) order
	snap    []Word      // hazard snapshot; reused so scans never allocate
	ring    *trace.Ring // nil without a tracer; Record on nil is a no-op
}

// Protect publishes idx in this process's hazard slot.  The write must be
// visible before the caller re-validates the source reference — that
// ordering (publish, then re-check reachability) is what guarantees a
// validated node stays allocated until Clear.
func (h *hpHandle) Protect(slot, idx int) {
	h.marked[slot] = true
	h.r.hazards[h.pid*Slots+slot].Write(h.pid, Word(idx))
}

// Clear withdraws this process's protections: one write per slot published
// since the last Clear, none when the operation protected nothing.
func (h *hpHandle) Clear() {
	base := h.pid * Slots
	for s := range h.marked {
		if h.marked[s] {
			h.r.hazards[base+s].Write(h.pid, 0)
			h.marked[s] = false
		}
	}
}

// Retire defers idx and scans once the pending list reaches the threshold.
func (h *hpHandle) Retire(idx int) {
	h.retired = append(h.retired, idx)
	h.r.m.retired.Add(1)
	if len(h.retired) >= int(h.r.threshold.Load()) {
		h.scan()
	}
}

// RetireBatch defers a whole batch in one call: one append, one counter
// bump, at most one scan.  The batch is copied out; idxs is not retained.
func (h *hpHandle) RetireBatch(idxs []int) {
	if len(idxs) == 0 {
		return
	}
	h.retired = append(h.retired, idxs...)
	h.r.m.retired.Add(int64(len(idxs)))
	h.r.m.batches.Add(1)
	if len(h.retired) >= int(h.r.threshold.Load()) {
		h.scan()
	}
}

// AllocMiss is the pool's backpressure hook; hp needs no cadence change —
// the pool's drain-on-miss already forces an eager scan — so it only
// records the pressure event.
func (h *hpHandle) AllocMiss() { h.r.m.pressure.Add(1) }

// Drain scans immediately.
func (h *hpHandle) Drain() int { return h.scan() }

// scan frees the pending nodes no hazard slot covers, preserving retire
// order so a FIFO allocator's recycling order stays deterministic.  Every
// scan with nodes pending reads all n·Slots hazard registers afresh.
func (h *hpHandle) scan() int {
	if len(h.retired) == 0 {
		// Nothing pending: skip the hazard sweep entirely.  An allocator
		// spinning on exhaustion drains on every failed alloc; reading all
		// n·Slots hazard words each time would ping-pong the very cache
		// lines the other processes' Protect writes need.
		return 0
	}
	h.r.m.scans.Add(1)
	h.snap = h.snap[:0]
	for i := range h.r.hazards {
		if w := h.r.hazards[i].Read(h.pid); w != 0 {
			h.snap = append(h.snap, w)
		}
	}
	freed := 0
	kept := h.retired[:0]
	for _, idx := range h.retired {
		if slices.Contains(h.snap, Word(idx)) {
			kept = append(kept, idx)
			continue
		}
		h.free(idx)
		freed++
	}
	h.retired = kept
	if freed > 0 {
		h.r.m.freed.Add(int64(freed))
	} else if len(h.retired) > 0 {
		h.r.m.stalls.Add(1)
	}
	h.ring.Record(trace.KindScan, trace.NameHP, uint64(freed), uint64(len(h.retired)))
	return freed
}
