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
// Raw and Tagged: the reference in one CAS word.

// wordGuard is what raw and tagged guards share: the CAS word holding the
// reference (packed beside its tag, for a tagged guard) and the metrics its
// handles bump.
type wordGuard struct {
	obj  shmem.WritableCAS
	tags *shmem.TagCodec // a tagged guard's own codec, so raw guards carry none
	n    int
	m    metrics
}

func (g *wordGuard) NumProcs() int     { return g.n }
func (g *wordGuard) Conditional() bool { return true }
func (g *wordGuard) Metrics() Metrics  { return g.m.snapshot() }

// handle binds process pid's handle to the word: on a direct substrate every
// step of the handle is one atomic instruction on w, and a clean Load or a
// Validate reads only the handle and the word.  shift is the tag width, the
// shift that takes a loaded word to its value (0 for a raw guard).
func (g *wordGuard) handle(pid int, shift uint) (wordHandle, error) {
	if err := checkPid(pid, g.n); err != nil {
		return wordHandle{}, err
	}
	return wordHandle{g: g, w: shmem.Direct(g.obj), pid: int32(pid), shift: uint8(shift)}, nil
}

// wordHandle is a raw or tagged handle's state: the word it last loaded,
// tag included, and the guard's word bound at Handle() time.
type wordHandle struct {
	g      *wordGuard
	w      *atomic.Uint64 // the word devirtualized, nil on instrumented substrates
	last   Word
	pid    int32
	loaded bool
	shift  uint8
}

// read performs one shared read of the word.
func (h *wordHandle) read() Word {
	if h.w != nil {
		return h.w.Load()
	}
	return h.g.obj.Read(int(h.pid))
}

// cas performs one shared CAS of the word.
func (h *wordHandle) cas(old, new Word) bool {
	if h.w != nil {
		return h.w.CompareAndSwap(old, new)
	}
	return h.g.obj.CompareAndSwap(int(h.pid), old, new)
}

func (h *wordHandle) Load() (Word, bool) {
	w := h.read()
	dirty := h.loaded && w != h.last
	if dirty {
		h.g.m.dirtyLoads.Add(1)
	}
	h.last, h.loaded = w, true
	return w >> h.shift, dirty
}

func (h *wordHandle) Validate() bool { return h.read() == h.last }

// rawGuard is a bare CAS on the reference word.
type rawGuard struct{ wordGuard }

// NewRaw builds the unprotected baseline: a bare CAS on the reference.
// Commit succeeds whenever the word compares equal — the classic ABA
// victim.
func NewRaw(f shmem.Factory, n int, name string, init Word) (Guard, error) {
	if n < 1 {
		return nil, fmt.Errorf("guard: raw guard needs n >= 1, got %d", n)
	}
	return &rawGuard{wordGuard{obj: f.NewCAS(name, init), n: n}}, nil
}

func (g *rawGuard) Handle(pid int) (Handle, error) {
	h, err := g.handle(pid, 0)
	if err != nil {
		return nil, err
	}
	return &rawHandle{h}, nil
}

func (g *rawGuard) Regime() Regime    { return Raw }
func (g *rawGuard) Peek(pid int) Word { return g.obj.Read(pid) }

type rawHandle struct{ wordHandle }

func (h *rawHandle) Commit(v Word) bool {
	if h.cas(h.last, v) {
		h.g.m.commits.Add(1)
		return true
	}
	// No near-miss is possible here: an equal word means the CAS succeeds.
	h.g.m.rejected.Add(1)
	return false
}

func (h *rawHandle) Store(v Word) {
	if h.w != nil {
		h.w.Store(v)
		return
	}
	h.g.obj.Write(int(h.pid), v)
}

// taggedGuard packs a k-bit wrap-around tag beside the reference.
type taggedGuard struct {
	wordGuard
	codec shmem.TagCodec
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
	g := &taggedGuard{codec: codec}
	g.wordGuard = wordGuard{obj: f.NewCAS(name, codec.Encode(init, 0)), tags: &g.codec, n: n}
	return g, nil
}

func (g *taggedGuard) Handle(pid int) (Handle, error) {
	h, err := g.handle(pid, g.codec.TagBits())
	if err != nil {
		return nil, err
	}
	return &taggedHandle{h}, nil
}

func (g *taggedGuard) Regime() Regime    { return Tagged }
func (g *taggedGuard) Peek(pid int) Word { return g.codec.Value(g.obj.Read(pid)) }

type taggedHandle struct{ wordHandle }

func (h *taggedHandle) Commit(v Word) bool {
	c := h.g.tags
	if h.cas(h.last, c.Encode(v, c.Tag(h.last)+1)) {
		h.g.m.commits.Add(1)
		return true
	}
	h.g.m.rejected.Add(1)
	// Observer read: metrics are instrumentation, not model steps.
	if cur := h.g.obj.Read(-1); c.Value(cur) == c.Value(h.last) {
		h.g.m.nearMisses.Add(1) // same value, different tag: the tag saved us
	}
	return false
}

func (h *taggedHandle) Store(v Word) {
	c := h.g.tags
	for {
		w := h.read()
		if h.cas(w, c.Encode(v, c.Tag(w)+1)) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// LLSC and Detector (Figure 5 pairing): the reference in an LL/SC/VL object.

type llscGuard struct {
	obj    llsc.Object
	fig3   *llsc.CASBased // obj, when it is Figure 3
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
	fig3, _ := obj.(*llsc.CASBased)
	return &llscGuard{obj: obj, fig3: fig3, regime: regime}, nil
}

// Handle returns process pid's handle.  Over Figure 3 the handle holds the
// object's per-process state by value (llsc.CASBased.Bind), so it is one
// allocation and a clean Load calls VL directly; any other object's handle
// is held through the llsc.Handle interface.
func (g *llscGuard) Handle(pid int) (Handle, error) {
	if g.fig3 != nil {
		h := &fig3Handle{g: g}
		if err := g.fig3.Bind(&h.h, pid); err != nil {
			return nil, err
		}
		return h, nil
	}
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

// reject counts a failed Commit by a handle that loaded old.
func (g *llscGuard) reject(old Word) {
	g.m.rejected.Add(1)
	if g.obj.Peek(-1) == old {
		g.m.nearMisses.Add(1) // value restored, link gone: a prevented ABA
	}
}

// llscHandle is a guard handle over any LL/SC/VL object, held through the
// llsc.Handle interface.
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
	if h.linked && h.h.VL() {
		return h.old, false
	}
	dirty := h.linked
	if dirty {
		h.g.m.dirtyLoads.Add(1)
	}
	h.old, h.linked = h.h.LL(), true
	return h.old, dirty
}

func (h *llscHandle) Commit(v Word) bool {
	if h.h.SC(v) {
		h.g.m.commits.Add(1)
		return true
	}
	h.g.reject(h.old)
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

// fig3Handle is llscHandle over Figure 3 with the object's handle held by
// value: its methods are llscHandle's, calling Figure 3's LL, SC and VL
// directly instead of through the interface.
type fig3Handle struct {
	g      *llscGuard
	h      llsc.CASBasedHandle
	old    Word
	linked bool
}

func (h *fig3Handle) Load() (Word, bool) {
	if h.linked && h.h.VL() {
		return h.old, false
	}
	dirty := h.linked
	if dirty {
		h.g.m.dirtyLoads.Add(1)
	}
	h.old, h.linked = h.h.LL(), true
	return h.old, dirty
}

func (h *fig3Handle) Commit(v Word) bool {
	if h.h.SC(v) {
		h.g.m.commits.Add(1)
		return true
	}
	h.g.reject(h.old)
	return false
}

func (h *fig3Handle) Validate() bool { return h.h.VL() }

func (h *fig3Handle) Store(v Word) {
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
