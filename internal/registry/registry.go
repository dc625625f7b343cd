// Package registry is the single catalog of every ABA-detection
// implementation in this repository.
//
// The paper is about the time–space trade-off *across* implementations:
// every theorem pins one point of the frontier (footprint m(n), step bound
// t(n), bounded or unbounded base objects).  Each such point is one Impl
// entry here, keyed by a stable ID, carrying the constructor plus the
// claimed complexity metadata.  Every layer that needs "all implementations"
// — the public API (abadetect.Implementations), the experiment harness
// (internal/bench), the verification tests (internal/verify), and the
// cmd/abalab CLI — enumerates this table instead of keeping a private copy,
// so adding an implementation is one entry, not five edits.
//
// Entries with Correct=false are deliberate foils (the folklore bounded-tag
// scheme): they exist so the lower-bound experiments and the differential
// tests can demonstrate the failure the paper proves unavoidable.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"abadetect/internal/apps"
	"abadetect/internal/core"
	"abadetect/internal/guard"
	"abadetect/internal/kv"
	"abadetect/internal/llsc"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// Word is the value type of all implementations.
type Word = shmem.Word

// Kind classifies an implementation by the object it provides.
type Kind string

// Implementation kinds.
const (
	// KindDetector is an ABA-detecting register (DWrite/DRead).
	KindDetector Kind = "detector"
	// KindLLSC is an LL/SC/VL object.
	KindLLSC Kind = "llsc"
	// KindStructure is an application-level data structure built over
	// Guards (internal/apps): the paper's §1 motivation, runnable across
	// the whole protection × implementation matrix.
	KindStructure Kind = "structure"
	// KindReclaimer is a safe-memory-reclamation scheme (internal/reclaim):
	// the defense that prevents the ABA by blocking node reuse instead of
	// detecting the repeat — the practical foil to the paper's tag-bit and
	// LL/SC costs.
	KindReclaimer Kind = "reclaimer"
)

// Impl is one registered implementation: a named point of the paper's
// time–space trade-off with its constructor.
type Impl struct {
	// ID is the stable identifier, e.g. "fig4" (use with Lookup and the
	// abalab -impl flag).
	ID string
	// Kind selects which constructor field is non-nil.
	Kind Kind
	// Summary is a one-line description.
	Summary string
	// Theorem names the paper artifact the implementation realizes.
	Theorem string
	// Space is the footprint formula m(n) as written in the paper.
	Space string
	// SpaceFn evaluates m(n): the number of base objects used.
	SpaceFn func(n int) int
	// Steps is the step bound t(n), e.g. "O(1)" or "O(n)".
	Steps string
	// Bounded reports whether the implementation uses only bounded base
	// objects (the regime the paper's lower bounds apply to).
	Bounded bool
	// Correct reports whether the implementation meets its specification.
	// False marks a deliberate foil kept for the refutation experiments.
	Correct bool
	// TagBits is the wrap-around tag width k of a bounded-tag foil (0
	// otherwise); the foil's word repeats after exactly 2^k writes.
	TagBits uint
	// LLSCBase names, for a Figure 5 detector (an LL/SC object wrapped as a
	// detecting register), the registered LL/SC implementation underneath.
	// The guard layer uses it to build conditional detector guards: the
	// detection view and the commit primitive then share one object.  Empty
	// for detectors with no LL/SC core (Figure 4, the unbounded and
	// bounded-tag baselines) — those can only back detection-only guards.
	LLSCBase string

	// NewDetector constructs the detector (Kind == KindDetector).
	NewDetector func(f shmem.Factory, n int, valueBits uint, initial Word) (core.Detector, error)
	// NewLLSC constructs the LL/SC/VL object (Kind == KindLLSC).
	NewLLSC func(f shmem.Factory, n int, valueBits uint, initial Word) (llsc.Object, error)
	// NewStructure constructs the benchmark instance of a data structure
	// (Kind == KindStructure) for n processes over guards from mk, with the
	// allocator configured by io (guarded free list, reclaimer).
	NewStructure func(f shmem.Factory, n, capacity int, mk guard.Maker, io apps.InstanceOptions) (apps.Instance, error)
	// NewReclaimer constructs the safe-memory-reclamation scheme
	// (Kind == KindReclaimer) for one structure's node pool.
	NewReclaimer reclaim.Maker
}

// impls is the one table.  Keep it ordered: detectors first, then LL/SC
// objects, foils last within their kind.
var impls = []Impl{
	{
		ID:      "fig4",
		Kind:    KindDetector,
		Summary: "ABA-detecting register from n+1 bounded registers, O(1) steps",
		Theorem: "Theorem 3 (Figure 4)",
		Space:   "n+1 registers",
		SpaceFn: func(n int) int { return n + 1 },
		Steps:   "O(1)",
		Bounded: true,
		Correct: true,
		NewDetector: func(f shmem.Factory, n int, valueBits uint, initial Word) (core.Detector, error) {
			return core.NewRegisterBased(f, n, valueBits, initial)
		},
	},
	{
		ID:       "fig5-fig3",
		Kind:     KindDetector,
		Summary:  "ABA-detecting register from one bounded CAS (Fig 5 over Fig 3), O(n) steps",
		Theorem:  "Theorem 2 (Figure 5 over Figure 3)",
		Space:    "1 CAS",
		SpaceFn:  func(n int) int { return 1 },
		Steps:    "O(n)",
		Bounded:  true,
		Correct:  true,
		LLSCBase: "fig3",
		NewDetector: func(f shmem.Factory, n int, valueBits uint, initial Word) (core.Detector, error) {
			obj, err := llsc.NewCASBased(f, n, valueBits, initial)
			if err != nil {
				return nil, err
			}
			return core.NewLLSCBased(obj)
		},
	},
	{
		ID:       "fig5-constant",
		Kind:     KindDetector,
		Summary:  "ABA-detecting register from one CAS + n registers (Fig 5 over ConstantTime), O(1) steps",
		Theorem:  "Theorem 4 over [2,15]",
		Space:    "n+1 objects",
		SpaceFn:  func(n int) int { return n + 1 },
		Steps:    "O(1)",
		Bounded:  true,
		Correct:  true,
		LLSCBase: "constant",
		NewDetector: func(f shmem.Factory, n int, valueBits uint, initial Word) (core.Detector, error) {
			obj, err := llsc.NewConstantTime(f, n, valueBits, initial)
			if err != nil {
				return nil, err
			}
			return core.NewLLSCBased(obj)
		},
	},
	{
		ID:       "fig5-moir",
		Kind:     KindDetector,
		Summary:  "ABA-detecting register from one unbounded CAS (Fig 5 over Moir), O(1) steps",
		Theorem:  "Theorem 4 over [26]",
		Space:    "1 CAS (unbounded)",
		SpaceFn:  func(n int) int { return 1 },
		Steps:    "O(1)",
		Bounded:  false,
		Correct:  true,
		LLSCBase: "moir",
		NewDetector: func(f shmem.Factory, n int, valueBits uint, initial Word) (core.Detector, error) {
			obj, err := llsc.NewMoir(f, n, valueBits, initial)
			if err != nil {
				return nil, err
			}
			return core.NewLLSCBased(obj)
		},
	},
	{
		ID:      "unbounded",
		Kind:    KindDetector,
		Summary: "trivial baseline: one register with a never-repeating stamp, O(1) steps",
		Theorem: "§1 baseline",
		Space:   "1 register (unbounded)",
		SpaceFn: func(n int) int { return 1 },
		Steps:   "O(1)",
		Bounded: false,
		Correct: true,
		NewDetector: func(f shmem.Factory, n int, valueBits uint, initial Word) (core.Detector, error) {
			return core.NewUnbounded(f, n, valueBits, initial)
		},
	},
	{
		ID:      "boundedtag1",
		Kind:    KindDetector,
		Summary: "folklore 1-bit wrap-around tag: misses the ABA after 2 writes (foil)",
		Theorem: "§1 foil (IBM tagging); refuted by Theorem 1(a)",
		Space:   "1 register",
		SpaceFn: func(n int) int { return 1 },
		Steps:   "O(1)",
		Bounded: true,
		Correct: false,
		TagBits: 1,
		NewDetector: func(f shmem.Factory, n int, valueBits uint, initial Word) (core.Detector, error) {
			return core.NewBoundedTag(f, n, valueBits, 1, initial)
		},
	},
	{
		ID:      "fig3",
		Kind:    KindLLSC,
		Summary: "LL/SC/VL from a single bounded CAS word, O(n) steps",
		Theorem: "Theorem 2 (Figure 3)",
		Space:   "1 CAS",
		SpaceFn: func(n int) int { return 1 },
		Steps:   "O(n)",
		Bounded: true,
		Correct: true,
		NewLLSC: func(f shmem.Factory, n int, valueBits uint, initial Word) (llsc.Object, error) {
			return llsc.NewCASBased(f, n, valueBits, initial)
		},
	},
	{
		ID:      "constant",
		Kind:    KindLLSC,
		Summary: "LL/SC/VL from one CAS + n registers, O(1) steps",
		Theorem: "[2,15]-style announcement construction",
		Space:   "n+1 objects",
		SpaceFn: func(n int) int { return n + 1 },
		Steps:   "O(1)",
		Bounded: true,
		Correct: true,
		NewLLSC: func(f shmem.Factory, n int, valueBits uint, initial Word) (llsc.Object, error) {
			return llsc.NewConstantTime(f, n, valueBits, initial)
		},
	},
	{
		ID:      "moir",
		Kind:    KindLLSC,
		Summary: "LL/SC/VL from one unbounded CAS (Moir), O(1) steps",
		Theorem: "[26] (§1 baseline)",
		Space:   "1 CAS (unbounded)",
		SpaceFn: func(n int) int { return 1 },
		Steps:   "O(1)",
		Bounded: false,
		Correct: true,
		NewLLSC: func(f shmem.Factory, n int, valueBits uint, initial Word) (llsc.Object, error) {
			return llsc.NewMoir(f, n, valueBits, initial)
		},
	},
	{
		ID:           "stack",
		Kind:         KindStructure,
		Summary:      "Treiber stack over a guarded head and node pool (§1 motivation)",
		Theorem:      "§1 (Treiber stack)",
		Space:        "2·cap registers + 1 guard",
		SpaceFn:      func(n int) int { return 0 }, // capacity-dependent, not m(n)
		Steps:        "O(1) + guard",
		Bounded:      true,
		Correct:      true,
		NewStructure: apps.NewStackInstance,
	},
	{
		ID:           "queue",
		Kind:         KindStructure,
		Summary:      "Michael–Scott queue with guarded head/tail/next references (§1 motivation)",
		Theorem:      "§1 ([24], Michael–Scott)",
		Space:        "(cap+1) registers + (cap+3) guards",
		SpaceFn:      func(n int) int { return 0 }, // capacity-dependent, not m(n)
		Steps:        "O(1) amortized + guard",
		Bounded:      true,
		Correct:      true,
		NewStructure: apps.NewQueueInstance,
	},
	{
		ID:           "event",
		Kind:         KindStructure,
		Summary:      "resettable busy-wait event flag over a guarded reference (§1 motivation)",
		Theorem:      "§1 (busy-wait flag)",
		Space:        "1 guard",
		SpaceFn:      func(n int) int { return 0 }, // guard-dependent, not m(n)
		Steps:        "O(1) + guard",
		Bounded:      true,
		Correct:      true,
		NewStructure: apps.NewEventInstance,
	},
	{
		ID:           "map",
		Kind:         KindStructure,
		Summary:      "lock-free split-ordered hash map: each bucket's guard is its dummy's link, marked links over a recycled node pool; grows to a ceiling",
		Theorem:      "§1 motivation (Michael [25] / Shalev–Shachnai split-ordered hash map)",
		Space:        "B + cap guards + 2·cap registers, plus a capacity word when the ceiling exceeds cap and a size word when floorPow2(ceiling/6) exceeds B (cap, B grow geometrically to the ceiling)",
		SpaceFn:      func(n int) int { return 0 }, // capacity/bucket-dependent, not m(n)
		Steps:        "O(run) + guard per link hop",
		Bounded:      true,
		Correct:      true,
		NewStructure: kv.NewMapInstance,
	},
	{
		ID:           "hp",
		Kind:         KindReclaimer,
		Summary:      "hazard pointers: per-process published slots, scan-and-free on a retire threshold",
		Theorem:      "SMR foil to §1 (Michael [25]-style)",
		Space:        "n·H registers (H=2)",
		SpaceFn:      func(n int) int { return n * reclaim.Slots },
		Steps:        "O(1) expected amortized (O(n·H) scan per threshold retires)",
		Bounded:      true,
		Correct:      true,
		NewReclaimer: reclaim.NewHazard,
	},
	{
		ID:           "epoch",
		Kind:         KindReclaimer,
		Summary:      "epoch-based reclamation: global epoch + per-process announcements, 3 deferred buckets",
		Theorem:      "SMR foil to §1 (Fraser-style EBR)",
		Space:        "n+1 objects (unbounded epoch)",
		SpaceFn:      func(n int) int { return n + 1 },
		Steps:        "O(1) amortized; reuse blocked system-wide by one stalled process",
		Bounded:      false,
		Correct:      true,
		NewReclaimer: reclaim.NewEpoch,
	},
	{
		ID:           "epoch:auto",
		Kind:         KindReclaimer,
		Summary:      "self-tuning epoch reclamation: advance cadence tightens under limbo pressure, relaxes when drains run empty",
		Theorem:      "SMR foil to §1 (adaptive EBR)",
		Space:        "n+1 objects (unbounded epoch)",
		SpaceFn:      func(n int) int { return n + 1 },
		Steps:        "O(1) amortized; cadence k in [1, min(2n, cap/n)] tuned by allocator backpressure",
		Bounded:      false,
		Correct:      true,
		NewReclaimer: reclaim.NewEpochAuto,
	},
	{
		ID:           "none",
		Kind:         KindReclaimer,
		Summary:      "pass-through reclaimer: immediate reuse, the §1 vulnerability preserved",
		Theorem:      "§1 baseline (immediate reuse)",
		Space:        "0",
		SpaceFn:      func(n int) int { return 0 },
		Steps:        "O(1)",
		Bounded:      true,
		Correct:      true,
		NewReclaimer: reclaim.NewNone,
	},
}

// All returns every registered implementation in registration order.
func All() []Impl { return append([]Impl(nil), impls...) }

// Detectors returns the registered ABA-detecting registers.
func Detectors() []Impl { return byKind(KindDetector) }

// LLSCs returns the registered LL/SC/VL objects.
func LLSCs() []Impl { return byKind(KindLLSC) }

// Structures returns the registered guard-built data structures.
func Structures() []Impl { return byKind(KindStructure) }

// Reclaimers returns the registered safe-memory-reclamation schemes.
func Reclaimers() []Impl { return byKind(KindReclaimer) }

// NewReclaimMaker returns the reclaim.Maker registered under id ("hp",
// "epoch", "none") — the registry-driven construction path the public
// WithReclamation option and the E12 harness share.  The epoch scheme
// accepts a tuned advance cadence as "epoch:k" (attempt the announcement
// sweep every k retires instead of the default min(2n, capacity/n)), and
// "epoch:auto" selects the self-tuning cadence driven by allocator
// backpressure.
func NewReclaimMaker(id string) (reclaim.Maker, error) {
	if base, arg, ok := strings.Cut(id, ":"); ok {
		if base != "epoch" {
			return nil, fmt.Errorf("registry: only the epoch scheme takes a %q argument (got %q)", ":k", id)
		}
		if arg == "auto" {
			return reclaim.NewEpochAuto, nil
		}
		k, err := strconv.Atoi(arg)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("registry: %q: the epoch advance cadence must be a positive integer (or %q)", id, "auto")
		}
		return reclaim.NewEpochEvery(k), nil
	}
	im, ok := Lookup(id)
	if !ok || im.Kind != KindReclaimer {
		return nil, fmt.Errorf("registry: %q is not a registered reclamation scheme (try %v)", id, reclaimerIDs())
	}
	return im.NewReclaimer, nil
}

func reclaimerIDs() []string {
	var out []string
	for _, im := range Reclaimers() {
		out = append(out, im.ID)
	}
	return out
}

func byKind(k Kind) []Impl {
	var out []Impl
	for _, im := range impls {
		if im.Kind == k {
			out = append(out, im)
		}
	}
	return out
}

// IDs returns every registered ID, sorted.
func IDs() []string {
	out := make([]string, 0, len(impls))
	for _, im := range impls {
		out = append(out, im.ID)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the implementation registered under id.
func Lookup(id string) (Impl, bool) {
	for _, im := range impls {
		if im.ID == id {
			return im, true
		}
	}
	return Impl{}, false
}

// MustLookup is Lookup for IDs the caller knows are registered; it panics on
// a miss, which is a programming error, not an input error.
func MustLookup(id string) Impl {
	im, ok := Lookup(id)
	if !ok {
		panic(fmt.Sprintf("registry: unknown implementation %q", id))
	}
	return im
}
