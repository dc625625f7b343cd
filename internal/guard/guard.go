// Package guard unifies the ABA protection regimes of the paper's §1 behind
// one interface: a Guard protects a single mutable reference (a node index,
// a flag, a free-list head) and exposes exactly the three capabilities the
// motivating applications need —
//
//   - Load: read the reference and arm the guard for this process;
//   - Commit: conditionally swing the reference, succeeding only if it is
//     unchanged *in the regime's sense* since this handle's last Load;
//   - Validate: check, without writing, that the reference is unchanged in
//     the regime's sense since the last Load.
//
// The four regimes are the paper's protection ladder, executable:
//
//   - Raw (NewRaw): bare CAS on the reference word.  "Unchanged" means
//     "equal", so a remove–recycle–reinsert cycle that restores the word is
//     invisible — the ABA problem.
//   - Tagged (NewTagged): a k-bit wrap-around tag packed beside the value,
//     bumped on every write.  Safe until exactly 2^k writes land inside a
//     victim's window, then fooled — the folklore scheme Theorem 1(a)
//     refutes as a general solution.
//   - LLSC (NewLLSC): the reference lives in an LL/SC/VL object.  A stale
//     Commit fails by specification no matter how the value cycled.
//   - Detector (NewDetected / NewDetectionOnly): the reference lives behind
//     an ABA-detecting register view.  NewDetected pairs the paper's
//     Figure 5 composition with the underlying LL/SC object, so Load is a
//     DRead (it additionally reports whether any write linearized since the
//     handle's previous Load), Commit is the underlying SC, and the guard
//     counts every detected-and-prevented ABA.  NewDetectionOnly wraps any
//     core.Detector (including the register-only Figure 4); it detects but
//     cannot Commit, which is exactly the capability split the paper's
//     busy-wait scenario needs and its lock-free structures do not tolerate
//     (Conditional reports which side of the split a guard is on).
//
// Every guard aggregates Metrics across its handles: commits, rejected
// commits, near-misses (a rejected commit whose reference value compared
// equal — an ABA the regime caught; a raw guard can never record one,
// because for it an equal value means the commit succeeds), and dirty loads.
//
// Guards allocate their base objects from a shmem.Factory, so the same
// guarded structure runs on the native, slab, padded, instrumented, and
// simulator substrates unchanged.
//
// A handle is one allocation that binds what its calls read at Handle()
// time.  Raw and tagged handles bind the guarded word (shmem.Direct) and the
// tag shift; LL/SC and detector handles over Figure 3 (llsc.CASBased, the
// default) hold its per-process link state by value (llsc.CASBased.Bind).
// So on the direct substrates a clean Load or a Validate reads the handle
// and the guarded word and nothing else.  Handles over other LL/SC objects
// reach them through llsc.Handle, and on the instrumented substrates every
// step stays a dynamic call, so step counts are the same on every substrate.
package guard

import (
	"fmt"
	"math"
	"sync/atomic"

	"abadetect/internal/shmem"
)

// Word is the value type of guarded references.
type Word = shmem.Word

// Regime names a protection scheme.
type Regime int

// Protection regimes, the paper's §1 ladder.
const (
	// Raw is a bare CAS on the reference: vulnerable to ABA.
	Raw Regime = iota + 1
	// Tagged packs a k-bit wrap-around tag next to the reference:
	// vulnerable exactly when the tag wraps inside a victim's window.
	Tagged
	// LLSC keeps the reference in an LL/SC/VL object: immune by
	// specification.
	LLSC
	// Detector keeps the reference behind an ABA-detecting register view:
	// every write since a handle's last Load is reported, and (when the view
	// is the Figure 5 pairing over LL/SC) stale commits are rejected.
	Detector
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case Raw:
		return "raw-cas"
	case Tagged:
		return "tagged-cas"
	case LLSC:
		return "ll/sc"
	case Detector:
		return "detector"
	default:
		return "unknown"
	}
}

// Metrics aggregates a guard's audit counters across all of its handles.
// The counters live outside the paper's shared-memory model (they are
// instrumentation, not base objects).
type Metrics struct {
	// Commits is the number of successful Commit calls.
	Commits int64
	// Rejected is the number of failed Commit calls.
	Rejected int64
	// NearMisses is the number of rejected commits whose reference value
	// compared equal to the handle's loaded value: an ABA the regime
	// detected and prevented.  A raw guard records none by construction —
	// when the value compares equal, its CAS succeeds; that structural zero
	// is the vulnerability.
	NearMisses int64
	// DirtyLoads is the number of Loads that reported interference since
	// the handle's previous Load — plus, on a detection-only guard, each
	// Validate that consumed a detected write (its DRead is destructive,
	// so the following Load reports clean and would never count it).  The
	// handle's own writes count too: a successful Commit or Store leaves
	// the handle armed at the word it replaced, so its next Load reports
	// dirty (under LL/SC it re-links with a full LL).  With one process
	// every dirty load is one of its own writes.
	DirtyLoads int64
}

// metrics is the shared atomic backing of Metrics, four words inline in
// the guard.  Only a commit, a rejection or a dirty load bumps one, and each
// follows a step that already moved, failed to move or saw a move of the
// guarded word, so a bump adds at most one cache-line transfer to an
// operation that already paid one; clean Loads and Validates bump nothing.
type metrics struct {
	commits, rejected, nearMisses, dirtyLoads atomic.Int64
}

// snapshot loads the four counters.  Each load is atomic, but the snapshot
// is deliberately relaxed: under live traffic it can fall between the two
// bumps of one rejected near-miss, so concurrent snapshots may be
// mid-operation.  At quiescence (every handle parked) it is exact and two
// back-to-back snapshots are equal; a race-mode test at the repository root
// pins that contract.
func (m *metrics) snapshot() Metrics {
	return Metrics{
		Commits:    m.commits.Load(),
		Rejected:   m.rejected.Load(),
		NearMisses: m.nearMisses.Load(),
		DirtyLoads: m.dirtyLoads.Load(),
	}
}

// Add returns the field-wise sum of two metrics snapshots (for aggregating
// the many guards of one structure).
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		Commits:    m.Commits + o.Commits,
		Rejected:   m.Rejected + o.Rejected,
		NearMisses: m.NearMisses + o.NearMisses,
		DirtyLoads: m.DirtyLoads + o.DirtyLoads,
	}
}

// String renders the counters.
func (m Metrics) String() string {
	return fmt.Sprintf("commits=%d rejected=%d nearMisses=%d dirtyLoads=%d",
		m.Commits, m.Rejected, m.NearMisses, m.DirtyLoads)
}

// Handle is a process's endpoint to a Guard.  A handle must be used by at
// most one goroutine at a time; distinct handles of one guard are safe to
// use concurrently.
type Handle interface {
	// Load returns the reference's current value and arms the guard.  dirty
	// reports whether the regime observed interference — a write it can
	// distinguish — since this handle's previous Load (false on the first
	// Load of a quiescent guard).  Raw and tagged guards under-report dirty
	// exactly when they are fooled; that asymmetry is the §1 story.
	Load() (v Word, dirty bool)
	// Commit writes v and reports success; it succeeds iff the reference is
	// unchanged, in the regime's sense, since this handle's last Load.
	// It panics on a detection-only guard (Conditional() == false).
	Commit(v Word) bool
	// Validate reports whether the reference is unchanged, in the regime's
	// sense, since this handle's last Load.  On detection-only guards it is
	// a destructive read: it re-arms detection at the current state.
	Validate() bool
	// Store unconditionally writes v (retrying internally where the regime
	// requires a conditional primitive).
	Store(v Word)
}

// Guard is a protected mutable reference shared by n processes.
type Guard interface {
	// Handle returns the endpoint for process pid in [0, n).
	Handle(pid int) (Handle, error)
	// NumProcs returns n.
	NumProcs() int
	// Regime names the protection scheme.
	Regime() Regime
	// Conditional reports whether Commit is supported.  Detection-only
	// guards (NewDetectionOnly) return false; they can Store and detect
	// but cannot conditionally swing, so lock-free structures must reject
	// them at construction.
	Conditional() bool
	// Peek reads the reference as the observer (no scheduled step under the
	// simulator); it is for audits and experiments, not algorithm code.
	Peek(pid int) Word
	// Metrics returns the aggregated audit counters.
	Metrics() Metrics
}

// Maker allocates guards.  A structure takes one Maker and calls it once per
// mutable reference (head, tail, next pointers, free-list head), so every
// reference of the structure is protected by the same regime over the same
// substrate.  valueBits bounds the reference's value domain.
type Maker func(name string, valueBits uint, init Word) (Guard, error)

// NewMaker returns the Maker realizing regime with this package's default
// constructions over f: raw CAS, a tagBits-wide tag, Figure 3 LL/SC, or the
// Figure 5 detector pairing over Figure 3.  The registry offers a richer,
// implementation-selecting maker (registry.NewGuardMaker); this one exists
// so internal/apps can build default-protected structures without importing
// the registry.
func NewMaker(f shmem.Factory, n int, regime Regime, tagBits uint) Maker {
	return func(name string, valueBits uint, init Word) (Guard, error) {
		switch regime {
		case Raw:
			return NewRaw(f, n, name, init)
		case Tagged:
			return NewTagged(f, n, name, valueBits, tagBits, init)
		case LLSC:
			obj, err := llscNewCASBased(f, n, valueBits, init)
			if err != nil {
				return nil, err
			}
			return NewLLSC(obj)
		case Detector:
			obj, err := llscNewCASBased(f, n, valueBits, init)
			if err != nil {
				return nil, err
			}
			return NewDetected(obj)
		default:
			return nil, fmt.Errorf("guard: unknown regime %d", regime)
		}
	}
}

// checkPid validates pid for a guard of n processes.  Raw and tagged
// handles keep their pid as an int32, so a pid beyond that is out of range
// too.
func checkPid(pid, n int) error {
	if pid < 0 || pid >= n || pid > math.MaxInt32 {
		return fmt.Errorf("guard: pid %d out of range [0,%d)", pid, n)
	}
	return nil
}
