package abadetect

import (
	"fmt"

	"abadetect/internal/core"
	"abadetect/internal/llsc"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// Word is the value type of all objects in this package.
type Word = uint64

// Footprint reports how many base objects (64-bit atomic words) an
// implementation uses — the paper's space measure m.
type Footprint struct {
	// Registers is the number of read/write register words.
	Registers int
	// CASObjects is the number of CAS words.
	CASObjects int
}

// Objects returns the total number of base objects.
func (f Footprint) Objects() int { return f.Registers + f.CASObjects }

// String renders the footprint.
func (f Footprint) String() string {
	return fmt.Sprintf("m=%d (%d registers + %d CAS)", f.Objects(), f.Registers, f.CASObjects)
}

// DetectHandle is a process's endpoint to an ABA-detecting register.
// A handle must be used by at most one goroutine at a time.
type DetectHandle interface {
	// DWrite writes v to the register.
	DWrite(v Word)
	// DRead returns the register's value and whether any process performed
	// a DWrite since this handle's previous DRead.
	DRead() (v Word, dirty bool)
}

// DetectingRegister is a multi-writer ABA-detecting register shared by n
// processes (paper §1).
type DetectingRegister interface {
	// Handle returns the endpoint for process pid in [0, n).
	Handle(pid int) (DetectHandle, error)
	// NumProcs returns n.
	NumProcs() int
	// Footprint returns the base objects used.
	Footprint() Footprint
}

// LLSCHandle is a process's endpoint to an LL/SC/VL object.
// A handle must be used by at most one goroutine at a time.
type LLSCHandle interface {
	// LL returns the object's value and links it for this process.
	LL() Word
	// SC writes v and reports success; it succeeds iff no successful SC
	// linearized since this handle's last LL.
	SC(v Word) bool
	// VL reports whether no successful SC linearized since this handle's
	// last LL.
	VL() bool
}

// LLSC is a load-linked/store-conditional/validate object shared by n
// processes (paper §1).
type LLSC interface {
	// Handle returns the endpoint for process pid in [0, n).
	Handle(pid int) (LLSCHandle, error)
	// NumProcs returns n.
	NumProcs() int
	// Footprint returns the base objects used.
	Footprint() Footprint
}

// options collects the functional options shared by all constructors.
type options struct {
	valueBits uint
	initial   Word
	backend   Backend

	// Structure options (structures.go); base-object constructors ignore
	// them.
	protection  Protection
	tagBits     uint
	tagBitsSet  bool
	guardImpl   string
	guardedPool bool
	reclaim     string
	growTo      int
	traceCap    int
}

// Option configures a constructor.
type Option func(*options)

// WithValueBits sets the width of the object's value domain (default 32).
// Bounded implementations must pack the value together with metadata into a
// 64-bit word, so wide values reduce the maximum n (constructors return an
// error when the combination does not fit).
func WithValueBits(bits uint) Option {
	return func(o *options) { o.valueBits = bits }
}

// WithInitialValue sets the value reads observe before the first write
// (default 0).
func WithInitialValue(v Word) Option {
	return func(o *options) { o.initial = v }
}

func buildOptions(opts []Option) options {
	o := options{valueBits: 32}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// factory returns the fresh per-object factory the selected backend
// provides (default: NativeBackend).
func (o options) factory() shmem.Factory {
	b := o.backend
	if b == nil {
		b = NativeBackend()
	}
	return b.newFactory()
}

// detReg adapts an internal detector to the public interface.
type detReg struct {
	inner core.Detector
	fp    Footprint
}

var _ DetectingRegister = (*detReg)(nil)

func (r *detReg) Handle(pid int) (DetectHandle, error) {
	h, err := r.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (r *detReg) NumProcs() int        { return r.inner.NumProcs() }
func (r *detReg) Footprint() Footprint { return r.fp }

// llscObj adapts an internal LL/SC object to the public interface.
type llscObj struct {
	inner llsc.Object
	fp    Footprint
}

var _ LLSC = (*llscObj)(nil)

func (o *llscObj) Handle(pid int) (LLSCHandle, error) {
	h, err := o.inner.Handle(pid)
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (o *llscObj) NumProcs() int        { return o.inner.NumProcs() }
func (o *llscObj) Footprint() Footprint { return o.fp }

func footprintOf(f shmem.Factory) Footprint {
	fp := f.Footprint()
	return Footprint{Registers: fp.Registers, CASObjects: fp.CASObjects}
}

// newDetectorByImpl builds a registered detector implementation over the
// options' backend; every public detector constructor funnels through it.
func newDetectorByImpl(im registry.Impl, n int, o options) (DetectingRegister, error) {
	f := o.factory()
	inner, err := im.NewDetector(f, n, o.valueBits, o.initial)
	if err != nil {
		return nil, err
	}
	return &detReg{inner: inner, fp: footprintOf(f)}, nil
}

// newLLSCByImpl builds a registered LL/SC/VL implementation over the
// options' backend; every public LL/SC constructor funnels through it.
func newLLSCByImpl(im registry.Impl, n int, o options) (LLSC, error) {
	f := o.factory()
	inner, err := im.NewLLSC(f, n, o.valueBits, o.initial)
	if err != nil {
		return nil, err
	}
	return &llscObj{inner: inner, fp: footprintOf(f)}, nil
}

// NewDetectingRegister builds the paper's Figure 4 register for n processes:
// a linearizable wait-free multi-writer ABA-detecting register from n+1
// bounded registers with constant step complexity (two shared steps per
// DWrite, four per DRead) — Theorem 3.
func NewDetectingRegister(n int, opts ...Option) (DetectingRegister, error) {
	return newDetectorByImpl(registry.MustLookup("fig4"), n, buildOptions(opts))
}

// NewDetectingRegisterSingleCAS builds Theorem 2's multi-writer
// ABA-detecting register from a single bounded CAS word with O(n) step
// complexity: the paper's Figure 5 over its Figure 3.  valueBits + n must be
// at most 64.
func NewDetectingRegisterSingleCAS(n int, opts ...Option) (DetectingRegister, error) {
	return newDetectorByImpl(registry.MustLookup("fig5-fig3"), n, buildOptions(opts))
}

// NewDetectingRegisterUnboundedTag builds the trivial baseline of §1: one
// register whose stored word carries a never-repeating stamp.  O(1) steps,
// exact detection — but the register's value domain grows without bound,
// which is exactly what the paper's lower bounds show to be unavoidable.
// (Modeled with a 64-bit word whose stamp field cannot realistically wrap;
// valueBits is capped at 32.)
func NewDetectingRegisterUnboundedTag(n int, opts ...Option) (DetectingRegister, error) {
	return newDetectorByImpl(registry.MustLookup("unbounded"), n, buildOptions(opts))
}

// NewDetectingRegisterBoundedTag builds the folklore k-bit tag scheme
// (tagBits = k).  It is NOT a correct ABA-detecting register: after exactly
// 2^k writes the stored word repeats and a poised reader misses every one of
// them.  It exists as the experimental foil for the paper's lower bounds;
// see the internal/lowerbound model checker, which derives the failure
// automatically.
func NewDetectingRegisterBoundedTag(n int, tagBits uint, opts ...Option) (DetectingRegister, error) {
	o := buildOptions(opts)
	f := o.factory()
	inner, err := core.NewBoundedTag(f, n, o.valueBits, tagBits, o.initial)
	if err != nil {
		return nil, err
	}
	return &detReg{inner: inner, fp: footprintOf(f)}, nil
}

// NewDetectingRegisterFromLLSC wraps any LLSC object from this package as an
// ABA-detecting register at two shared-memory steps per operation — the
// paper's Figure 5 (Theorem 4).
func NewDetectingRegisterFromLLSC(obj LLSC) (DetectingRegister, error) {
	wrapper, ok := obj.(*llscObj)
	if !ok {
		return nil, fmt.Errorf("abadetect: foreign LLSC implementation %T", obj)
	}
	inner, err := core.NewLLSCBased(wrapper.inner)
	if err != nil {
		return nil, err
	}
	return &detReg{inner: inner, fp: wrapper.fp}, nil
}

// NewLLSC builds the paper's Figure 3 LL/SC/VL object for n processes: one
// bounded CAS word, O(n) step complexity (Theorem 2), which Corollary 1
// proves optimal — any implementation from m bounded objects needs
// m·t ≥ (n-1)/2.  valueBits + n must be at most 64.
func NewLLSC(n int, opts ...Option) (LLSC, error) {
	return newLLSCByImpl(registry.MustLookup("fig3"), n, buildOptions(opts))
}

// NewLLSCConstantTime builds the O(1)-step LL/SC/VL object from one bounded
// CAS word and n bounded registers — the announcement and sequence-number
// recycling construction in the style of Anderson–Moir and
// Jayanti–Petrovic, the other optimal point of the paper's time–space
// trade-off (m·t = Θ(n) at m = n+1, t = O(1)).
func NewLLSCConstantTime(n int, opts ...Option) (LLSC, error) {
	return newLLSCByImpl(registry.MustLookup("constant"), n, buildOptions(opts))
}

// NewLLSCUnboundedTag builds Moir's classic LL/SC from a single CAS word
// with an (effectively) unbounded tag: O(1) steps, one object — possible
// only because the object is unbounded (§1, [26]).
func NewLLSCUnboundedTag(n int, opts ...Option) (LLSC, error) {
	return newLLSCByImpl(registry.MustLookup("moir"), n, buildOptions(opts))
}
