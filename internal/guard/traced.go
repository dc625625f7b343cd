package guard

import (
	"abadetect/internal/trace"
)

// TracedMaker wraps mk so every guard it builds records its Load/Commit
// traffic into rec.  The wrapper exists only when tracing is on: the
// untraced configuration calls mk directly, so "tracing off" costs not even
// a branch on the hot path.  With tracing on the cost is one ring write per
// guard step — the number E17 prices.
func TracedMaker(mk Maker, rec *trace.Recorder) Maker {
	if rec == nil {
		return mk
	}
	return func(name string, valueBits uint, init Word) (Guard, error) {
		g, err := mk(name, valueBits, init)
		if err != nil {
			return nil, err
		}
		return &tracedGuard{Guard: g, rec: rec, name: rec.Intern(name)}, nil
	}
}

// tracedGuard decorates a Guard: every handle it vends records events into
// the owning pid's ring.  Audit accessors (Regime, Metrics, Peek, ...)
// delegate untouched.
type tracedGuard struct {
	Guard
	rec  *trace.Recorder
	name trace.Name
}

func (g *tracedGuard) Handle(pid int) (Handle, error) {
	h, err := g.Guard.Handle(pid)
	if err != nil {
		return nil, err
	}
	// The ring is cached here, once, so the per-event path never hashes a
	// pid.  Out-of-range pids (observer handles) get a nil ring, which
	// Record treats as a no-op.
	return &tracedHandle{g: g, h: h, ring: g.rec.Ring(pid)}, nil
}

type tracedHandle struct {
	g    *tracedGuard
	h    Handle
	ring *trace.Ring
	last Word // last loaded value, for the near-miss classification
}

func (h *tracedHandle) Load() (Word, bool) {
	v, dirty := h.h.Load()
	h.last = v
	if dirty {
		h.ring.Record(trace.KindGuardDirtyLoad, h.g.name, uint64(v), 0)
	} else {
		h.ring.Record(trace.KindGuardLoad, h.g.name, uint64(v), 0)
	}
	return v, dirty
}

func (h *tracedHandle) Commit(v Word) bool {
	if h.h.Commit(v) {
		h.ring.Record(trace.KindGuardCommit, h.g.name, uint64(v), 0)
		return true
	}
	// Classify the rejection the way the regimes' own near-miss counters
	// do: an observer read comparing equal to the loaded value means the
	// value cycled back and the regime caught it.  A raw guard's CAS fails
	// only on an unequal word, so an equal read here means another process
	// restored the word after the failed CAS; the guard counted a plain
	// rejection, and so does the trace.
	kind := trace.KindGuardReject
	cur := h.g.Peek(-1)
	if cur == h.last && h.g.Regime() != Raw {
		kind = trace.KindGuardNearMiss
	}
	h.ring.Record(kind, h.g.name, uint64(v), uint64(cur))
	return false
}

func (h *tracedHandle) Validate() bool { return h.h.Validate() }

func (h *tracedHandle) Store(v Word) { h.h.Store(v) }
