package main

import (
	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// The traced run builds the structures through the same internal
// constructors the public API calls, with the guard and reclaimer makers
// wrapped by the decorators below.  A decorator counts every call into its
// layer and, while its process's lane flag is up (one op in spanEvery),
// times it.  Each process writes only its own lane; the lanes are read
// between rounds.

// lane is one process's layer counters.
type lane struct {
	timing bool // set by the worker around a sampled op

	loads, validates, commits, stores     int64 // guard calls
	protects, clears, retires, drains     int64 // reclaimer calls (Retire and RetireBatch both count as retires)
	drained, releases                     int64 // nodes Drain freed; Free callbacks into the pool
	guardNs, reclaimNs, releaseNs, spanNs int64 // measured time of the timed calls
	guardN, reclaimN, releaseN, spanN     int64 // timed calls
}

// probe owns the lanes of one traced build.
type probe struct {
	lanes []lane

	// reclaimF, when non-nil, is the factory the reclaimer allocates its
	// words from instead of the pool's, so its steps are counted apart.
	reclaimF shmem.Factory
}

func newProbe(n int) *probe { return &probe{lanes: make([]lane, n)} }

func (p *probe) lane(pid int) *lane { return &p.lanes[pid] }

// reset zeroes the counts; call it only while no worker runs.
func (p *probe) reset() {
	for i := range p.lanes {
		p.lanes[i] = lane{}
	}
}

// add adds o's counts into l.
func (l *lane) add(o *lane) {
	l.loads += o.loads
	l.validates += o.validates
	l.commits += o.commits
	l.stores += o.stores
	l.protects += o.protects
	l.clears += o.clears
	l.retires += o.retires
	l.drains += o.drains
	l.drained += o.drained
	l.releases += o.releases
	l.guardNs += o.guardNs
	l.reclaimNs += o.reclaimNs
	l.releaseNs += o.releaseNs
	l.spanNs += o.spanNs
	l.guardN += o.guardN
	l.reclaimN += o.reclaimN
	l.releaseN += o.releaseN
	l.spanN += o.spanN
}

// guardMaker wraps every guard mk builds.
func (p *probe) guardMaker(mk guard.Maker) guard.Maker {
	return func(name string, valueBits uint, init guard.Word) (guard.Guard, error) {
		g, err := mk(name, valueBits, init)
		if err != nil {
			return nil, err
		}
		return &probedGuard{Guard: g, p: p}, nil
	}
}

type probedGuard struct {
	guard.Guard
	p *probe
}

func (g *probedGuard) Handle(pid int) (guard.Handle, error) {
	h, err := g.Guard.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &probedGuardHandle{h: h, l: g.p.lane(pid)}, nil
}

type probedGuardHandle struct {
	h guard.Handle
	l *lane
}

func (h *probedGuardHandle) Load() (guard.Word, bool) {
	l := h.l
	l.loads++
	if !l.timing {
		return h.h.Load()
	}
	t := nanotime()
	v, dirty := h.h.Load()
	l.guardNs += nanotime() - t
	l.guardN++
	return v, dirty
}

func (h *probedGuardHandle) Validate() bool {
	l := h.l
	l.validates++
	if !l.timing {
		return h.h.Validate()
	}
	t := nanotime()
	ok := h.h.Validate()
	l.guardNs += nanotime() - t
	l.guardN++
	return ok
}

func (h *probedGuardHandle) Commit(v guard.Word) bool {
	l := h.l
	l.commits++
	if !l.timing {
		return h.h.Commit(v)
	}
	t := nanotime()
	ok := h.h.Commit(v)
	l.guardNs += nanotime() - t
	l.guardN++
	return ok
}

func (h *probedGuardHandle) Store(v guard.Word) {
	l := h.l
	l.stores++
	if !l.timing {
		h.h.Store(v)
		return
	}
	t := nanotime()
	h.h.Store(v)
	l.guardNs += nanotime() - t
	l.guardN++
}

// reclaimMaker wraps every reclaimer mk builds.
func (p *probe) reclaimMaker(mk reclaim.Maker) reclaim.Maker {
	return func(f shmem.Factory, name string, n, capacity int) (reclaim.Reclaimer, error) {
		if p.reclaimF != nil {
			f = p.reclaimF
		}
		r, err := mk(f, name, n, capacity)
		if err != nil {
			return nil, err
		}
		return p.wrapReclaimer(r), nil
	}
}

// wrapReclaimer decorates r and keeps exactly the optional seams r has: the
// pool finds Resizer and Traced by type assertion, so a wrapper that hid
// them would silently switch off growth retuning and reclaimer trace
// events, and one that faked them would claim seams r lacks.
func (p *probe) wrapReclaimer(r reclaim.Reclaimer) reclaim.Reclaimer {
	base := &probedReclaimer{Reclaimer: r, p: p}
	rz, isRz := r.(reclaim.Resizer)
	tr, isTr := r.(reclaim.Traced)
	switch {
	case isRz && isTr:
		return struct {
			*probedReclaimer
			reclaim.Resizer
			reclaim.Traced
		}{base, rz, tr}
	case isRz:
		return struct {
			*probedReclaimer
			reclaim.Resizer
		}{base, rz}
	case isTr:
		return struct {
			*probedReclaimer
			reclaim.Traced
		}{base, tr}
	}
	return base
}

type probedReclaimer struct {
	reclaim.Reclaimer
	p *probe
}

// Handle also wraps the free callback, which is the pool's release: the
// reclaimer calls it from inside Retire, RetireBatch or Drain, so release
// time is nested in reclaimer time.
func (r *probedReclaimer) Handle(pid int, free reclaim.Free) (reclaim.Handle, error) {
	l := r.p.lane(pid)
	release := func(idx int) {
		l.releases++
		if !l.timing {
			free(idx)
			return
		}
		t := nanotime()
		free(idx)
		l.releaseNs += nanotime() - t
		l.releaseN++
	}
	h, err := r.Reclaimer.Handle(pid, release)
	if err != nil {
		return nil, err
	}
	ph := &probedReclaimHandle{h: h, l: l}
	if press, ok := h.(reclaim.Pressured); ok {
		// The pool reports allocation misses through this seam; epoch:auto
		// tunes its cadence from it.
		return struct {
			*probedReclaimHandle
			reclaim.Pressured
		}{ph, press}, nil
	}
	return ph, nil
}

type probedReclaimHandle struct {
	h reclaim.Handle
	l *lane
}

func (h *probedReclaimHandle) Protect(slot, idx int) {
	l := h.l
	l.protects++
	if !l.timing {
		h.h.Protect(slot, idx)
		return
	}
	t := nanotime()
	h.h.Protect(slot, idx)
	l.reclaimNs += nanotime() - t
	l.reclaimN++
}

func (h *probedReclaimHandle) Clear() {
	l := h.l
	l.clears++
	if !l.timing {
		h.h.Clear()
		return
	}
	t := nanotime()
	h.h.Clear()
	l.reclaimNs += nanotime() - t
	l.reclaimN++
}

func (h *probedReclaimHandle) Retire(idx int) {
	l := h.l
	l.retires++
	if !l.timing {
		h.h.Retire(idx)
		return
	}
	t := nanotime()
	h.h.Retire(idx)
	l.reclaimNs += nanotime() - t
	l.reclaimN++
}

func (h *probedReclaimHandle) RetireBatch(idxs []int) {
	l := h.l
	l.retires++
	if !l.timing {
		h.h.RetireBatch(idxs)
		return
	}
	t := nanotime()
	h.h.RetireBatch(idxs)
	l.reclaimNs += nanotime() - t
	l.reclaimN++
}

func (h *probedReclaimHandle) Drain() int {
	l := h.l
	l.drains++
	if !l.timing {
		n := h.h.Drain()
		l.drained += int64(n)
		return n
	}
	t := nanotime()
	n := h.h.Drain()
	l.reclaimNs += nanotime() - t
	l.reclaimN++
	l.drained += int64(n)
	return n
}
