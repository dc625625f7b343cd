package core

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/getseq"
	"abadetect/internal/shmem"
)

// RegisterBased is the paper's Figure 4: a linearizable wait-free
// multi-writer ABA-detecting register built from n+1 bounded registers with
// constant step complexity (Theorem 3).
//
// The shared state is a register X holding a (value, pid, seq) triple and an
// announce array A[0..n-1] of (pid, seq) pairs, where only process q writes
// A[q].  A DWrite draws a sequence number from the GetSeq recycler (package
// getseq) and writes the triple to X: two shared steps.  A DRead reads X,
// saves and replaces its own announcement, and re-reads X: four shared
// steps.  The announcement discipline guarantees that a (pid, seq) pair
// observed and announced by a reader is not reused by its writer until the
// announcement changes, so comparing X against the previous announcement
// detects every intervening write (paper, Appendix C).
//
// On the direct substrates (native, slab, padded) the construction binds raw
// *atomic.Uint64 accessors to X and A at build time, so each of those shared
// steps compiles to one inlined atomic instruction; on instrumented or
// simulated substrates every step stays a dynamic call the wrapper can
// count, audit, or schedule.
type RegisterBased struct {
	n       int
	codec   shmem.TripleCodec
	initial Word
	x       shmem.Register
	a       []shmem.Register

	xd *atomic.Uint64   // devirtualized X, nil on indirect substrates
	ad []*atomic.Uint64 // devirtualized A, nil on indirect substrates
}

var _ Detector = (*RegisterBased)(nil)

// NewRegisterBased builds the Figure 4 register for n processes over base
// objects from f.  Values are valueBits wide; initial is the value returned
// by reads that precede the first write.
func NewRegisterBased(f shmem.Factory, n int, valueBits uint, initial Word) (*RegisterBased, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: RegisterBased needs n >= 1, got %d", n)
	}
	codec, err := shmem.NewTripleCodec(n, valueBits, 2*n+2)
	if err != nil {
		return nil, fmt.Errorf("core: RegisterBased: %w", err)
	}
	if initial > codec.MaxValue() {
		return nil, fmt.Errorf("core: initial value %d exceeds %d-bit domain", initial, valueBits)
	}
	r := &RegisterBased{
		n:       n,
		codec:   codec,
		initial: initial,
		x:       f.NewRegister("X", codec.Bottom()),
		a:       make([]shmem.Register, n),
	}
	for q := range r.a {
		r.a[q] = f.NewRegister("A", codec.Bottom())
	}
	if ad := shmem.DirectRegisters(r.a); ad != nil {
		if xd := shmem.Direct(r.x); xd != nil {
			r.xd, r.ad = xd, ad
		}
	}
	return r, nil
}

// NumProcs returns n.
func (r *RegisterBased) NumProcs() int { return r.n }

// Codec exposes the triple codec, for white-box tests and experiments.
func (r *RegisterBased) Codec() shmem.TripleCodec { return r.codec }

// Handle returns process pid's handle.
func (r *RegisterBased) Handle(pid int) (Handle, error) {
	if pid < 0 || pid >= r.n {
		return nil, fmt.Errorf("core: pid %d out of range [0,%d)", pid, r.n)
	}
	picker, err := getseq.New(pid, r.n, r.codec, r.a)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	h := &registerBasedHandle{
		r:      r,
		pid:    pid,
		picker: picker,
		layout: r.codec.Bind(pid),
	}
	if r.xd != nil {
		h.xd = r.xd
		h.myA = r.ad[pid]
	}
	return h, nil
}

// registerBasedHandle carries the paper's process-local variables: the flag
// b and the GetSeq state (usedQ, na, c, inside picker).  When the substrate
// devirtualizes, xd and myA are the handle's direct accessors to X and its
// own announce slot, bound once at Handle() time; layout binds the codec's
// constants alongside them so the per-operation encode, pair projection,
// and value extraction are raw word arithmetic with no codec copy.
type registerBasedHandle struct {
	r      *RegisterBased
	pid    int
	b      bool
	picker *getseq.Picker
	xd     *atomic.Uint64
	myA    *atomic.Uint64
	layout shmem.BoundTriple
}

var _ Handle = (*registerBasedHandle)(nil)

// DWrite implements Figure 4 lines 26-27: two shared-memory steps (one read
// inside GetSeq, one write of X).  It panics if v exceeds the value domain
// declared at construction.
func (h *registerBasedHandle) DWrite(v Word) {
	if v > h.layout.MaxValue() {
		h.r.codec.CheckValue(v) // cold: renders the panic
	}
	s := h.picker.Next()       // line 26 (1 shared step)
	w := h.layout.Encode(v, s) // line 27's triple, pid/seq in range by construction
	if h.xd != nil {
		h.xd.Store(w) // line 27, devirtualized
		return
	}
	h.r.x.Write(h.pid, w) // line 27
}

// DRead implements Figure 4 lines 38-50: four shared-memory steps.
func (h *registerBasedHandle) DRead() (Word, bool) {
	r := h.r
	var w1, old, w2 Word
	if h.xd != nil {
		w1 = h.xd.Load()               // line 38: (x, p, s)
		old = h.myA.Load()             // line 39: (r, sr)
		h.myA.Store(h.layout.Pair(w1)) // line 40: announce (p, s)
		w2 = h.xd.Load()               // line 41: (x', p', s')
	} else {
		w1 = r.x.Read(h.pid)                       // line 38
		old = r.a[h.pid].Read(h.pid)               // line 39
		r.a[h.pid].Write(h.pid, h.layout.Pair(w1)) // line 40
		w2 = r.x.Read(h.pid)                       // line 41
	}

	var dirty bool
	if h.layout.Pair(w1) == old { // line 42: (p, s) = (r, sr)?
		dirty = h.b // line 43
	} else {
		dirty = true // line 45
	}
	h.b = w1 != w2 // lines 46-49: (x, p, s) = (x', p', s')?
	// Line 50: the value read at line 38, ⊥ mapping to the initial value.
	return h.layout.Value(w1, r.initial), dirty
}
