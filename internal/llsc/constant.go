package llsc

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/getseq"
	"abadetect/internal/shmem"
)

// ConstantTime is a linearizable wait-free LL/SC/VL object from one bounded
// CAS object and n bounded registers with O(1) step complexity — the
// announcement-based construction in the style of Anderson–Moir [2] and
// Jayanti–Petrovic [15].  The paper notes (§3.1) that its Figure 4 uses the
// same core idea; this type is that idea turned back into an LL/SC/VL
// object, specialized to word-sized values so the value travels inside the
// CAS word and no helping buffers are needed.
//
// Shared state: a CAS object X holding a (value, pid, seq) triple, and an
// announce array A[0..n-1] of (pid, seq) pairs, where only process q writes
// A[q].  A successful SC by p installs (v, p, s) with s drawn from the
// GetSeq recycler (package getseq); the recycler's guarantee is that a
// (p, s) pair observed and announced by some reader is not installed again
// until that announcement changes, so a CAS against an announced triple
// cannot suffer an ABA.
//
// LL is a double-collect with one retry (at most 3 reads of X and 2
// announcement writes):
//
//   - read X, announce the observed (pid, seq), re-read X.  If the pair is
//     unchanged, the announcement covers the link: LL linearizes at the
//     second read.
//   - otherwise announce the new pair and read X a third time.  If the pair
//     is now unchanged, LL linearizes at the third read.
//   - otherwise the (pid, seq) pair changed twice during the LL, and every
//     pair change is a successful SC.  The LL linearizes at the *second*
//     read, returning that value, and records in the local flag b that a
//     successful SC (the second change) has already linearized after it, so
//     this process's next SC/VL must fail — no protected link is needed.
//
// SC draws a sequence number (one shared read inside GetSeq) and performs
// one CAS; if the CAS fails the drawn number stays reserved for the next
// attempt, which keeps GetSeq draws and installs strictly alternating —
// the discipline the recycling guarantee relies on.  VL is one read.
//
// Together with Figure 3 this realizes both ends of the paper's time–space
// trade-off frontier: (m=1, t=Θ(n)) and (m=n+1, t=O(1)), both with
// m·t = Θ(n), matching Theorem 1 / Corollary 1.
type ConstantTime struct {
	n       int
	codec   shmem.TripleCodec
	x       shmem.CAS
	a       []shmem.Register
	initial Word

	xd *atomic.Uint64   // devirtualized X, nil on indirect substrates
	ad []*atomic.Uint64 // devirtualized A, nil on indirect substrates
}

var _ Object = (*ConstantTime)(nil)

// NewConstantTime builds the constant-time LL/SC/VL for n processes over
// base objects from f.
func NewConstantTime(f shmem.Factory, n int, valueBits uint, initial Word) (*ConstantTime, error) {
	if n < 1 {
		return nil, fmt.Errorf("llsc: ConstantTime needs n >= 1, got %d", n)
	}
	codec, err := shmem.NewTripleCodec(n, valueBits, 2*n+2)
	if err != nil {
		return nil, fmt.Errorf("llsc: ConstantTime: %w", err)
	}
	if initial > codec.MaxValue() {
		return nil, fmt.Errorf("llsc: initial value %d exceeds %d-bit domain", initial, valueBits)
	}
	o := &ConstantTime{
		n:       n,
		codec:   codec,
		x:       f.NewCAS("X", codec.Bottom()),
		a:       make([]shmem.Register, n),
		initial: initial,
	}
	for q := range o.a {
		o.a[q] = f.NewRegister("A", codec.Bottom())
	}
	if ad := shmem.DirectRegisters(o.a); ad != nil {
		if xd := shmem.Direct(o.x); xd != nil {
			o.xd, o.ad = xd, ad
		}
	}
	return o, nil
}

// NumProcs returns n.
func (o *ConstantTime) NumProcs() int { return o.n }

// Initial returns the value held before any successful SC.
func (o *ConstantTime) Initial() Word { return o.initial }

// Peek returns the current value without linking.
func (o *ConstantTime) Peek(pid int) Word { return o.value(o.x.Read(pid)) }

// Handle returns process pid's handle.
func (o *ConstantTime) Handle(pid int) (Handle, error) {
	if pid < 0 || pid >= o.n {
		return nil, fmt.Errorf("llsc: pid %d out of range [0,%d)", pid, o.n)
	}
	picker, err := getseq.New(pid, o.n, o.codec, o.a)
	if err != nil {
		return nil, fmt.Errorf("llsc: %w", err)
	}
	h := &constantTimeHandle{
		o:        o,
		pid:      pid,
		picker:   picker,
		link:     o.codec.Bottom(),
		reserved: -1,
		layout:   o.codec.Bind(pid),
	}
	if o.xd != nil {
		h.xd = o.xd
		h.myA = o.ad[pid]
	}
	return h, nil
}

// constantTimeHandle carries the process-local link, flag b, and GetSeq
// state; xd and myA are the direct accessors to X and this process's
// announce slot, bound at Handle() time when the substrate devirtualizes,
// and layout binds the codec's constants alongside them so the
// per-operation pair projection and encode are raw word arithmetic.
type constantTimeHandle struct {
	o        *ConstantTime
	pid      int
	b        bool
	link     Word
	picker   *getseq.Picker
	reserved int // sequence number drawn but not yet installed, or -1
	xd       *atomic.Uint64
	myA      *atomic.Uint64
	layout   shmem.BoundTriple
}

var _ Handle = (*constantTimeHandle)(nil)

// readX performs one shared read of X.
func (h *constantTimeHandle) readX() Word {
	if h.xd != nil {
		return h.xd.Load()
	}
	return h.o.x.Read(h.pid)
}

// announce performs one shared write of this process's announce slot.
func (h *constantTimeHandle) announce(w Word) {
	if h.myA != nil {
		h.myA.Store(w)
		return
	}
	h.o.a[h.pid].Write(h.pid, w)
}

// LL performs the double-collect with one retry: at most 5 shared steps.
func (h *constantTimeHandle) LL() Word {
	t1 := h.readX()
	h.announce(h.layout.Pair(t1))
	t2 := h.readX()
	if h.layout.Pair(t2) == h.layout.Pair(t1) {
		h.link = t2
		h.b = false
		return h.layout.Value(t2, h.o.initial)
	}
	h.announce(h.layout.Pair(t2))
	t3 := h.readX()
	if h.layout.Pair(t3) == h.layout.Pair(t2) {
		h.link = t3
		h.b = false
		return h.layout.Value(t3, h.o.initial)
	}
	// Two pair changes: a successful SC linearized after the second read.
	// Linearize there; the link is born invalid.
	h.link = t2
	h.b = true
	return h.layout.Value(t2, h.o.initial)
}

// SC draws (or reuses) a sequence number and CASes the link: at most 2
// shared steps.
func (h *constantTimeHandle) SC(v Word) bool {
	if h.b {
		return false
	}
	o := h.o
	if v > h.layout.MaxValue() {
		o.codec.CheckValue(v) // cold: renders the panic
	}
	if h.reserved < 0 {
		h.reserved = h.picker.Next()
	}
	next := h.layout.Encode(v, h.reserved)
	var ok bool
	if h.xd != nil {
		ok = h.xd.CompareAndSwap(h.link, next)
	} else {
		ok = o.x.CompareAndSwap(h.pid, h.link, next)
	}
	if ok {
		h.reserved = -1
	}
	return ok
}

// VL reads X once and compares against the protected link.
func (h *constantTimeHandle) VL() bool {
	if h.b {
		return false
	}
	return h.readX() == h.link
}

// value maps a stored word to the object value it represents.
func (o *ConstantTime) value(w Word) Word {
	if o.codec.IsBottom(w) {
		return o.initial
	}
	return o.codec.Value(w)
}
