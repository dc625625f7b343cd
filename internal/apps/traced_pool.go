package apps

import (
	"abadetect/internal/guard"
	"abadetect/internal/trace"
)

// tracedPool is the outermost allocator wrapper of a traced structure: it
// records every node's journey — alloc, release or retire, reclamation
// drains, published protections, growth — into the owning process's flight-
// recorder ring.  The wrapper exists only when tracing is on; the untraced
// pool stack carries no extra layer and no branch.
//
// Events are recorded *after* the wrapped call completes, so the global
// ticket order of a dump reflects completion order: a victim's armed load,
// an adversary's release/alloc recycle, and the corrupting commit appear in
// exactly the happens-before order the forensics need.
type tracedPool struct {
	inner Pool
	rec   *trace.Recorder
	name  trace.Name
}

func (p *tracedPool) Handle(pid int) (PoolHandle, error) {
	ih, err := p.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	// The ring is cached once per handle; out-of-range pids (observer
	// handles) get a nil ring, which Record treats as a no-op.
	return &tracedPoolHandle{inner: ih, ring: p.rec.Ring(pid), name: p.name}, nil
}

func (p *tracedPool) Metrics() guard.Metrics { return p.inner.Metrics() }
func (p *tracedPool) Stats() PoolStats       { return p.inner.Stats() }
func (p *tracedPool) Snapshot() []int        { return p.inner.Snapshot() }

// Grow extends the inner pool and records the growth on the growing
// process's ring: the ring's single writer is the one running Grow.
func (p *tracedPool) Grow(pid, newCapacity int) (int, error) {
	got, err := p.inner.Grow(pid, newCapacity)
	if err == nil {
		p.rec.Ring(pid).Record(trace.KindGrow, p.name, uint64(got), 0)
	}
	return got, err
}

type tracedPoolHandle struct {
	inner PoolHandle
	ring  *trace.Ring
	name  trace.Name
}

func (h *tracedPoolHandle) Alloc() int {
	idx := h.inner.Alloc()
	if idx == 0 {
		h.ring.Record(trace.KindExhaust, h.name, 0, 0)
	} else {
		h.ring.Record(trace.KindAlloc, h.name, uint64(idx), 0)
	}
	return idx
}

// Release records the node's actual fate: retire (into limbo, under a
// reclaimer) or release (immediate reuse).
func (h *tracedPoolHandle) Release(idx int) {
	h.inner.Release(idx)
	if h.inner.Reclaiming() {
		h.ring.Record(trace.KindRetire, h.name, uint64(idx), 0)
	} else {
		h.ring.Record(trace.KindRelease, h.name, uint64(idx), 0)
	}
}

func (h *tracedPoolHandle) ReleaseBatch(idxs []int) {
	h.inner.ReleaseBatch(idxs)
	k := trace.KindRelease
	if h.inner.Reclaiming() {
		k = trace.KindRetire
	}
	for _, idx := range idxs {
		h.ring.Record(k, h.name, uint64(idx), 0)
	}
}

func (h *tracedPoolHandle) Protect(slot, idx int) {
	h.inner.Protect(slot, idx)
	h.ring.Record(trace.KindProtect, h.name, uint64(slot), uint64(idx))
}

func (h *tracedPoolHandle) Clear() { h.inner.Clear() }

func (h *tracedPoolHandle) Drain() int {
	freed := h.inner.Drain()
	h.ring.Record(trace.KindDrain, h.name, uint64(freed), 0)
	return freed
}

func (h *tracedPoolHandle) Reclaiming() bool { return h.inner.Reclaiming() }
