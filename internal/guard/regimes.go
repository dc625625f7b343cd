package guard

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/core"
	"abadetect/internal/llsc"
	"abadetect/internal/shmem"
)

// llscNewCASBased is the default LL/SC construction behind NewMaker (the
// paper's Figure 3: one bounded CAS word, O(n) steps).
func llscNewCASBased(f shmem.Factory, n int, valueBits uint, init Word) (llsc.Object, error) {
	return llsc.NewCASBased(f, n, valueBits, init)
}

// ---------------------------------------------------------------------------
// Raw: bare CAS on the reference word.

type rawGuard struct {
	obj shmem.WritableCAS
	n   int
	m   metrics
}

// NewRaw builds the unprotected baseline: a bare CAS on the reference.
// Commit succeeds whenever the word compares equal — the classic ABA
// victim.
func NewRaw(f shmem.Factory, n int, name string, init Word) (Guard, error) {
	if n < 1 {
		return nil, fmt.Errorf("guard: raw guard needs n >= 1, got %d", n)
	}
	return &rawGuard{obj: f.NewCAS(name, init), n: n}, nil
}

func (g *rawGuard) Handle(pid int) (Handle, error) {
	if err := checkPid(pid, g.n); err != nil {
		return nil, err
	}
	return &rawHandle{g: g, pid: pid}, nil
}

func (g *rawGuard) NumProcs() int     { return g.n }
func (g *rawGuard) Regime() Regime    { return Raw }
func (g *rawGuard) Conditional() bool { return true }
func (g *rawGuard) Peek(pid int) Word { return g.obj.Read(pid) }
func (g *rawGuard) Metrics() Metrics  { return g.m.snapshot() }

type rawHandle struct {
	g      *rawGuard
	pid    int
	last   Word
	loaded bool
}

func (h *rawHandle) Load() (Word, bool) {
	v := h.g.obj.Read(h.pid)
	dirty := h.loaded && v != h.last
	if dirty {
		h.g.m.dirtyLoads.Add(1)
	}
	h.last, h.loaded = v, true
	return v, dirty
}

func (h *rawHandle) Commit(v Word) bool {
	if h.g.obj.CompareAndSwap(h.pid, h.last, v) {
		h.g.m.commits.Add(1)
		return true
	}
	// No near-miss is possible here: an equal word means the CAS succeeds.
	h.g.m.rejected.Add(1)
	return false
}

func (h *rawHandle) Validate() bool { return h.g.obj.Read(h.pid) == h.last }

func (h *rawHandle) Store(v Word) { h.g.obj.Write(h.pid, v) }

// ---------------------------------------------------------------------------
// Tagged: a k-bit wrap-around tag packed beside the reference.

type taggedGuard struct {
	obj   shmem.WritableCAS
	codec shmem.TagCodec
	n     int
	m     metrics
}

// NewTagged builds the folklore k-bit tag scheme (tagBits = k): every write
// bumps the tag, so a restored value is distinguishable — until exactly 2^k
// writes land inside a victim's window and the packed word repeats.
func NewTagged(f shmem.Factory, n int, name string, valueBits, tagBits uint, init Word) (Guard, error) {
	if n < 1 {
		return nil, fmt.Errorf("guard: tagged guard needs n >= 1, got %d", n)
	}
	codec, err := shmem.NewTagCodec(valueBits, tagBits)
	if err != nil {
		return nil, fmt.Errorf("guard: tagged guard: %w", err)
	}
	return &taggedGuard{obj: f.NewCAS(name, codec.Encode(init, 0)), codec: codec, n: n}, nil
}

func (g *taggedGuard) Handle(pid int) (Handle, error) {
	if err := checkPid(pid, g.n); err != nil {
		return nil, err
	}
	return &taggedHandle{g: g, pid: pid}, nil
}

func (g *taggedGuard) NumProcs() int     { return g.n }
func (g *taggedGuard) Regime() Regime    { return Tagged }
func (g *taggedGuard) Conditional() bool { return true }
func (g *taggedGuard) Peek(pid int) Word { return g.codec.Value(g.obj.Read(pid)) }
func (g *taggedGuard) Metrics() Metrics  { return g.m.snapshot() }

type taggedHandle struct {
	g      *taggedGuard
	pid    int
	last   Word // the full packed word, tag included
	loaded bool
}

func (h *taggedHandle) Load() (Word, bool) {
	w := h.g.obj.Read(h.pid)
	dirty := h.loaded && w != h.last
	if dirty {
		h.g.m.dirtyLoads.Add(1)
	}
	h.last, h.loaded = w, true
	return h.g.codec.Value(w), dirty
}

func (h *taggedHandle) Commit(v Word) bool {
	next := h.g.codec.Encode(v, h.g.codec.Tag(h.last)+1)
	if h.g.obj.CompareAndSwap(h.pid, h.last, next) {
		h.g.m.commits.Add(1)
		return true
	}
	h.g.m.rejected.Add(1)
	// Observer read: metrics are instrumentation, not model steps.
	if cur := h.g.obj.Read(-1); h.g.codec.Value(cur) == h.g.codec.Value(h.last) {
		h.g.m.nearMisses.Add(1) // same value, different tag: the tag saved us
	}
	return false
}

func (h *taggedHandle) Validate() bool { return h.g.obj.Read(h.pid) == h.last }

func (h *taggedHandle) Store(v Word) {
	for {
		w := h.g.obj.Read(h.pid)
		if h.g.obj.CompareAndSwap(h.pid, w, h.g.codec.Encode(v, h.g.codec.Tag(w)+1)) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// LLSC and Detector (Figure 5 pairing): the reference in an LL/SC/VL object.

type llscGuard struct {
	obj    llsc.Object
	regime Regime
	m      metrics
}

// NewLLSC keeps the reference in obj: Load is LL, Commit is SC, Validate is
// VL.  Immune to ABA by the object's specification.
func NewLLSC(obj llsc.Object) (Guard, error) {
	return newLLSCGuard(obj, LLSC)
}

// NewDetected is the paper's Figure 5 pairing applied to guards: the
// reference lives in obj, Load doubles as a DRead (LL plus the VL-derived
// dirty flag), Commit is the SC whose success is what flips other handles'
// dirty flags, and every rejected commit with an unchanged value is counted
// as a detected-and-prevented ABA.
func NewDetected(obj llsc.Object) (Guard, error) {
	return newLLSCGuard(obj, Detector)
}

func newLLSCGuard(obj llsc.Object, regime Regime) (Guard, error) {
	if obj == nil {
		return nil, fmt.Errorf("guard: %s guard needs a non-nil LL/SC/VL object", regime)
	}
	return &llscGuard{obj: obj, regime: regime}, nil
}

func (g *llscGuard) Handle(pid int) (Handle, error) {
	h, err := g.obj.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &llscHandle{g: g, h: h}, nil
}

func (g *llscGuard) NumProcs() int     { return g.obj.NumProcs() }
func (g *llscGuard) Regime() Regime    { return g.regime }
func (g *llscGuard) Conditional() bool { return true }
func (g *llscGuard) Peek(pid int) Word { return g.obj.Peek(pid) }
func (g *llscGuard) Metrics() Metrics  { return g.m.snapshot() }

type llscHandle struct {
	g      *llscGuard
	h      llsc.Handle
	old    Word // cached value, valid while the link is
	linked bool // false until this handle's first LL
}

func (h *llscHandle) Load() (Word, bool) {
	// This is exactly the DRead of the paper's Figure 5: if the link is
	// still valid, no successful SC — hence no write — linearized since the
	// last LL, so the cached value is current and the load is clean.  Only
	// an invalidated link re-links.  Re-linking on a *clean* load instead
	// would silently consume a write that lands between the VL and the LL:
	// neither that load nor any later one would report it.
	//
	// The first Load always links (and is clean by definition — there is no
	// previous Load to be dirty against): the underlying object's link
	// state is per *process*, so a fresh handle for a pid whose earlier
	// handle left a clean link would otherwise serve its stale
	// initial-value cache.
	if !h.linked {
		h.old = h.h.LL()
		h.linked = true
		return h.old, false
	}
	if h.h.VL() {
		return h.old, false
	}
	h.g.m.dirtyLoads.Add(1)
	h.old = h.h.LL()
	return h.old, true
}

func (h *llscHandle) Commit(v Word) bool {
	if h.h.SC(v) {
		h.g.m.commits.Add(1)
		return true
	}
	h.g.m.rejected.Add(1)
	if h.g.obj.Peek(-1) == h.old {
		h.g.m.nearMisses.Add(1) // value restored, link gone: a prevented ABA
	}
	return false
}

func (h *llscHandle) Validate() bool { return h.h.VL() }

func (h *llscHandle) Store(v Word) {
	for {
		h.h.LL()
		if h.h.SC(v) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Detection-only: any ABA-detecting register as a guard.

type detectionGuard struct {
	det    core.Detector
	shadow atomic.Uint64
	m      metrics
}

// NewDetectionOnly wraps any ABA-detecting register as a guard for the
// workloads that never conditionally swing — the paper's busy-wait flag.
// Load is DRead, Store is DWrite; Commit panics (Conditional() is false),
// because a register-only detector such as Figure 4 has no conditional
// primitive to build it from — the capability split the paper's two
// application families sit on either side of.
//
// Peek reads a shadow word maintained beside the detector (instrumentation,
// not a base object): the Detector interface exposes per-process handles
// only, so an observer has no model-level read of its own.
func NewDetectionOnly(det core.Detector, init Word) (Guard, error) {
	if det == nil {
		return nil, fmt.Errorf("guard: detection-only guard needs a non-nil detector")
	}
	g := &detectionGuard{det: det}
	g.shadow.Store(init)
	return g, nil
}

func (g *detectionGuard) Handle(pid int) (Handle, error) {
	h, err := g.det.Handle(pid)
	if err != nil {
		return nil, err
	}
	return &detectionHandle{g: g, h: h}, nil
}

func (g *detectionGuard) NumProcs() int     { return g.det.NumProcs() }
func (g *detectionGuard) Regime() Regime    { return Detector }
func (g *detectionGuard) Conditional() bool { return false }
func (g *detectionGuard) Peek(int) Word     { return g.shadow.Load() }
func (g *detectionGuard) Metrics() Metrics  { return g.m.snapshot() }

type detectionHandle struct {
	g *detectionGuard
	h core.Handle
}

func (h *detectionHandle) Load() (Word, bool) {
	v, dirty := h.h.DRead()
	if dirty {
		h.g.m.dirtyLoads.Add(1)
	}
	return v, dirty
}

func (h *detectionHandle) Commit(Word) bool {
	panic("guard: detection-only guard cannot Commit; use an LL/SC-backed detector (Figure 5)")
}

func (h *detectionHandle) Validate() bool {
	// Destructive: the DRead consumes the dirty signal and re-arms
	// detection, so the write it observed is counted here — a following
	// Load reports clean and must not be the only place DirtyLoads grows.
	_, dirty := h.h.DRead()
	if dirty {
		h.g.m.dirtyLoads.Add(1)
	}
	return !dirty
}

func (h *detectionHandle) Store(v Word) {
	h.h.DWrite(v)
	h.g.shadow.Store(v) // Peek bookkeeping, not a model step
}
