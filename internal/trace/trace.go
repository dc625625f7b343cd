// Package trace is the flight recorder behind the observability layer: a
// per-process ring of typed events — guard loads and commits, reclaimer
// milestones, allocator traffic, structure-level operation begin/commit
// marks — recorded as they happen and merged, on demand, into one
// happens-before-consistent interleaving.  Where the audit counters
// (guard.Metrics, apps.PoolStats) answer "how many", the recorder answers
// the forensic question the paper's §1 scripts pose: *which* load armed the
// victim, *which* release/alloc pair recycled the node inside its window,
// and *which* commit corrupted the structure — the last K events per
// process before the incident, in order.
//
// In the paper's cost vocabulary the recorder is deliberately cheap and
// deliberately off-model: m(n) is n rings × (capacity+1) four-word event
// slots, plus one timestamp word per tsEvery slots, of instrumentation
// memory (fixed at construction, never grown), and t(n) is O(1) per event —
// one global fetch-and-increment that doubles as the happens-before order,
// four plain slot stores, and one publishing store.  The recorder
// allocates nothing after construction: rings are preallocated, an event's
// object label is a Name interned when the traced guard or pool is built,
// and Merge/Events write into fresh slices only on the (cold) read side.
//
// Labels are indexed only on traced builds.  A structure names each
// per-element guard through Label, which formats "mnext[7]" when a recorder
// is attached and returns the bare family "mnext" when none is; registers,
// which no recorder sees, carry their family label alone.  An untraced
// structure therefore formats no name per node, and a traced one keeps the
// indexed names its dumps show.
//
// Writer discipline is single-writer per ring — the same discipline every
// handle in this repository already obeys — and it is what makes recording
// lock-free: the owning process fills the next slot with plain stores and
// publishes it with one atomic store of the ring's event count, and a
// reader (Merge, Events, a Watch snapshot) copies back from the published
// count, then re-reads it and drops every event whose slot the writer
// reused while the copy ran.  Two processes recording into one ring would
// corrupt it; no lock catches that.
package trace

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abadetect/internal/shmem"
)

// Kind names an event type — the trace vocabulary of the guard, reclaim,
// pool, and structure seams.
type Kind uint8

// Event kinds.
const (
	// KindNone is the zero Kind; no recorded event carries it.
	KindNone Kind = iota

	// Guard events (one per Load/Commit call on a traced guard).

	// KindGuardLoad is a clean Load: the guard observed no interference
	// since the handle's previous Load.  A is the loaded value.
	KindGuardLoad
	// KindGuardDirtyLoad is a Load that reported interference.  A is the
	// loaded value.
	KindGuardDirtyLoad
	// KindGuardCommit is a successful conditional swing.  A is the value
	// written.
	KindGuardCommit
	// KindGuardReject is a failed commit whose reference had visibly
	// changed.  A is the value the commit tried to write.
	KindGuardReject
	// KindGuardNearMiss is a failed commit whose reference *value* compared
	// equal to the handle's loaded value — an ABA the regime detected and
	// prevented.  A is the value the commit tried to write, B the restored
	// reference value.
	KindGuardNearMiss

	// Reclaimer events.

	// KindProtect is a published protection (hazard slot write / epoch
	// pin).  A is the slot, B the protected index.
	KindProtect
	// KindRetire is a node handed to the reclaimer's limbo.  A is the node.
	KindRetire
	// KindDrain is a reclamation pass requested through the pool seam.  A
	// is the number of nodes freed.
	KindDrain
	// KindScan is a reclaimer-internal sweep (hp hazard scan, epoch
	// announcement sweep).  A is the number of nodes freed, B the number
	// still pending after the sweep.
	KindScan
	// KindEpochAdvance is a successful global-epoch CAS.  A is the epoch
	// advanced to.
	KindEpochAdvance
	// KindTighten is a cadence tightening of the self-tuning epoch scheme.
	// A is the new cadence.
	KindTighten

	// Pool events.

	// KindAlloc is a successful node allocation.  A is the node index.
	KindAlloc
	// KindRelease is a node returned to the allocator (immediate reuse; a
	// reclaimed pool records KindRetire instead).  A is the node index.
	KindRelease
	// KindGrow is a pool capacity extension.  A is the new capacity.
	KindGrow
	// KindExhaust is an allocation that found no free node.
	KindExhaust

	// Structure-level operation marks (the experiment hooks' begin/commit
	// split, so a dump shows where a victim armed and where it resumed).

	// KindOpBegin marks the vulnerable first half of a split operation
	// (PopBegin, DeqBegin, DeleteBegin).  A is kind-specific (the key, the
	// loaded node).
	KindOpBegin
	// KindOpCommit marks the completion of a split operation.  A is 1 when
	// the commit was accepted, 0 when rejected.
	KindOpCommit

	kindCount // sentinel
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindGuardLoad:
		return "guard-load"
	case KindGuardDirtyLoad:
		return "guard-dirty-load"
	case KindGuardCommit:
		return "guard-commit"
	case KindGuardReject:
		return "guard-reject"
	case KindGuardNearMiss:
		return "guard-near-miss"
	case KindProtect:
		return "protect"
	case KindRetire:
		return "retire"
	case KindDrain:
		return "drain"
	case KindScan:
		return "scan"
	case KindEpochAdvance:
		return "epoch-advance"
	case KindTighten:
		return "tighten"
	case KindAlloc:
		return "alloc"
	case KindRelease:
		return "release"
	case KindGrow:
		return "grow"
	case KindExhaust:
		return "exhaust"
	case KindOpBegin:
		return "op-begin"
	case KindOpCommit:
		return "op-commit"
	default:
		return "unknown"
	}
}

// Event is one recorded step.  GSeq is drawn from a recorder-global counter
// at record time, so sorting a merged dump by GSeq yields an interleaving
// consistent with happens-before: if event x completed before event y
// began, x drew the smaller ticket.  Seq is the per-process sequence (gaps
// reveal ring eviction), and TS is a coarse wall-clock stamp — sampled
// every tsEvery events per ring, so it orients a human reader without
// putting a clock read on every hot-path record.
type Event struct {
	// GSeq is the global happens-before ticket.
	GSeq uint64
	// Seq is the per-process monotonic sequence (starts at 1).
	Seq uint64
	// TS is the coarse UnixNano timestamp of the event's cohort.
	TS int64
	// Pid is the recording process.
	Pid int32
	// Kind types the event.
	Kind Kind
	// Obj names the object the event is about (a guard name, a pool name,
	// an operation label).
	Obj string
	// A and B are kind-specific arguments (see the Kind constants).
	A, B uint64
}

// String renders one event.
func (e Event) String() string {
	return fmt.Sprintf("#%d p%d/%d %s %s a=%d b=%d", e.GSeq, e.Pid, e.Seq, e.Kind, e.Obj, e.A, e.B)
}

// MarshalJSON renders the kind symbolically so /trace dumps read without
// the constant table.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		GSeq uint64
		Seq  uint64
		TS   int64
		Pid  int32
		Kind string
		Obj  string
		A, B uint64
	}{e.GSeq, e.Seq, e.TS, e.Pid, e.Kind.String(), e.Obj, e.A, e.B})
}

// tsEvery is the timestamp sampling cohort: one clock read per this many
// events per ring.
const tsEvery = 32

// Name is an interned object label (a guard name, a pool name, an operation
// label): an index into the recorder's name table.  Labels are interned when
// the traced guard or pool is built, so a recorded event stores a small
// integer and the ring slots hold no pointers.
type Name uint32

// The fixed labels, interned by New in this order.
const (
	// NameNone is the empty label.
	NameNone Name = iota
	// NamePop, NameDeq and NameDelete label the stack's, the queue's and
	// the map's split-operation marks.
	NamePop
	NameDeq
	NameDelete
	// NameHP and NameEpoch label the reclaimers' own events.
	NameHP
	NameEpoch
)

var fixedNames = []string{"", "pop", "deq", "delete", "hp", "epoch"}

// slot is one event as a ring stores it: four words, two slots per cache
// line, no pointers — the GC never scans a ring and slot stores need no
// write barrier.  Seq is the slot's position, Pid the ring's, and TS the
// cohort stamp, so none of them is stored.
type slot struct {
	gseq uint64 // the global ticket
	kn   uint64 // Kind | Name<<8
	a, b uint64
}

// Ring is one process's event buffer: fixed power-of-two capacity,
// single-writer (the owning process), oldest events evicted in order.  It
// keeps capacity+1 slots, so the slot being filled is never one of the last
// capacity published events.  The struct is cache-line padded so one
// ring's count and write index never share a line with another ring's.
type Ring struct {
	n      atomic.Uint64 // events published; event Seq s sits in slot (s-1) mod len(slots)
	w      int           // slot of the next event: n mod len(slots)
	ts     int           // stamp of the next cohort: (n/tsEvery) mod len(stamps)
	slots  []slot        // capacity+1
	stamps []int64       // one UnixNano stamp per cohort of tsEvery events
	rec    *Recorder
	pid    int32
	_      [shmem.CacheLineBytes]byte
}

// Record appends one event, evicting the oldest when the ring is full.
// O(1), lock-free and allocation-free: the global ticket's fetch-add, four
// plain slot stores, one atomic store that publishes the slot, and a clock
// read once per tsEvery events.  Single-writer: only the owning process
// calls it, and the slot needs no lock: a reader checks its copy against
// the published count (see snapshot).  The fetch-add sits between the
// previous event's publishing store and this event's slot stores and
// orders them, so a reader that sees a reused slot also sees the count
// that flags it.
func (r *Ring) Record(k Kind, obj Name, a, b uint64) {
	if r == nil {
		return
	}
	g := r.rec.gseq.Add(1)
	n := r.n.Load()
	if n%tsEvery == 0 {
		storeStamp(&r.stamps[r.ts], time.Now().UnixNano())
		if r.ts++; r.ts == len(r.stamps) {
			r.ts = 0
		}
	}
	storeSlot(&r.slots[r.w], g, uint64(k)|uint64(obj)<<8, a, b)
	if r.w++; r.w == len(r.slots) {
		r.w = 0
	}
	r.n.Store(n + 1)
	if r.rec.watching.Load() {
		r.rec.checkWatch(Event{GSeq: g, Seq: n + 1, Pid: r.pid, Kind: k, Obj: r.rec.name(obj), A: a, B: b})
	}
}

// snapshot appends the ring's live events, oldest first, to dst.  It
// copies back from the published count, then re-reads the count and drops
// every copied event whose slot the writer may have reused meanwhile.  The
// event at position p (Seq p+1) shares its slot with position p+len(slots),
// which the writer fills only after publishing a count of p+len(slots); so
// a re-read count below that proves the copy of p clean, and one at or
// above it drops p.  The cohort stamps wrap the same way, one cohort later
// than any kept event could need, so a kept event's TS is clean too.
func (r *Ring) snapshot(dst []Event) []Event {
	n := r.n.Load()
	names := r.rec.nameTable() // after n: it covers every name a published event uses
	size := uint64(len(r.slots))
	capacity := size - 1
	lo := n - min(n, capacity)
	start := len(dst)
	for p := lo; p < n; p++ {
		s := &r.slots[p%size]
		kn := atomic.LoadUint64(&s.kn)
		e := Event{
			GSeq: atomic.LoadUint64(&s.gseq),
			Seq:  p + 1,
			TS:   atomic.LoadInt64(&r.stamps[p/tsEvery%uint64(len(r.stamps))]),
			Pid:  r.pid,
			Kind: Kind(kn),
			A:    atomic.LoadUint64(&s.a),
			B:    atomic.LoadUint64(&s.b),
		}
		// Only a slot reused mid-copy can name a label interned after names
		// was loaded, and that event is dropped below.
		if i := kn >> 8; i < uint64(len(names)) {
			e.Obj = names[i]
		}
		dst = append(dst, e)
	}
	if n2 := r.n.Load(); n2 > lo+capacity {
		drop := min(n2-capacity, n) - lo
		dst = append(dst[:start], dst[start+int(drop):]...)
	}
	return dst
}

// Recorder owns one ring per process plus the global happens-before
// counter, the name table, and the watch hook.
type Recorder struct {
	rings []*Ring
	gseq  atomic.Uint64

	namesMu sync.Mutex               // serializes Intern
	names   atomic.Pointer[[]string] // Name → label; only ever appended to
	ids     map[string]Name          // label → Name, under namesMu

	watching atomic.Bool // fast-path gate: a predicate is armed and unfired
	watchMu  sync.Mutex
	pred     func(Event) bool
	incident []Event
	fired    atomic.Bool
	firedOn  Event
}

// New builds a recorder for n processes with the given per-ring capacity,
// rounded up to a power of two (minimum 8).  All memory is allocated here;
// recording never allocates.
func New(n, capacity int) *Recorder {
	if n < 1 {
		n = 1
	}
	c := 8
	for c < capacity {
		c <<= 1
	}
	r := &Recorder{rings: make([]*Ring, n), ids: make(map[string]Name, len(fixedNames))}
	names := append([]string(nil), fixedNames...)
	for i, s := range names {
		r.ids[s] = Name(i)
	}
	r.names.Store(&names)
	for pid := range r.rings {
		r.rings[pid] = &Ring{
			slots:  make([]slot, c+1),
			stamps: make([]int64, c/tsEvery+2),
			rec:    r,
			pid:    int32(pid),
		}
	}
	return r
}

// Intern returns the Name of label s, adding it to the name table on first
// use.  Call it when a traced object is built, not per event: it takes a
// lock, and it allocates the first time it sees a label.
func (r *Recorder) Intern(s string) Name {
	r.namesMu.Lock()
	defer r.namesMu.Unlock()
	if id, ok := r.ids[s]; ok {
		return id
	}
	// Readers hold an older, shorter header over the same array, so an
	// append in place never touches an element they read.
	names := append(*r.names.Load(), s)
	id := Name(len(names) - 1)
	r.ids[s] = id
	r.names.Store(&names)
	return id
}

// nameTable returns the current name table.
func (r *Recorder) nameTable() []string { return *r.names.Load() }

// name resolves an interned Name.
func (r *Recorder) name(id Name) string {
	if names := r.nameTable(); int(id) < len(names) {
		return names[id]
	}
	return ""
}

// NumProcs returns the ring count.
func (r *Recorder) NumProcs() int { return len(r.rings) }

// Capacity returns the per-ring event capacity.
func (r *Recorder) Capacity() int { return len(r.rings[0].slots) - 1 }

// Ring returns pid's ring (nil for out-of-range pids, so observer handles
// degrade to no-ops instead of panicking).
func (r *Recorder) Ring(pid int) *Ring {
	if r == nil || pid < 0 || pid >= len(r.rings) {
		return nil
	}
	return r.rings[pid]
}

// Label returns the label of element i of family: "mnext[7]" for family
// "mnext" when r is a recorder, and the bare family when r is nil, since
// only a recorder ever reads the index.  Call it where a per-element guard
// is built; a register is never traced and takes its family label only.
func (r *Recorder) Label(family string, i int) string {
	if r == nil {
		return family
	}
	return family + "[" + strconv.Itoa(i) + "]"
}

// Record is the convenience form of Ring(pid).Record for callers holding a
// label rather than its Name.  It interns obj on every call, so hot paths
// intern once and call Ring.Record.
func (r *Recorder) Record(pid int, k Kind, obj string, a, b uint64) {
	if ring := r.Ring(pid); ring != nil {
		ring.Record(k, r.Intern(obj), a, b)
	}
}

// Watch arms a predicate: the first recorded event it matches freezes a
// merged snapshot of every ring — the last K events per process *before
// and including* the incident — retrievable via Incident.  One shot: after
// the first match the predicate is disarmed and later events no longer
// snapshot.  Re-arming replaces the predicate and clears a prior incident.
func (r *Recorder) Watch(pred func(Event) bool) {
	r.watchMu.Lock()
	r.pred = pred
	r.incident = nil
	r.firedOn = Event{}
	r.fired.Store(false)
	r.watching.Store(pred != nil)
	r.watchMu.Unlock()
}

// checkWatch runs the armed predicate against ev and snapshots on the
// first match.  Called after the event is published in its ring, so the
// snapshot includes the triggering event.
func (r *Recorder) checkWatch(ev Event) {
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	if r.pred == nil || r.fired.Load() {
		return
	}
	if !r.pred(ev) {
		return
	}
	r.fired.Store(true)
	r.watching.Store(false)
	r.firedOn = ev
	r.incident = r.merge()
}

// Fired reports whether the watch predicate matched, and on what.
func (r *Recorder) Fired() (Event, bool) {
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	return r.firedOn, r.fired.Load()
}

// Incident returns the snapshot frozen when the watch predicate fired
// (nil if it never did).  The slice is the frozen copy; callers must not
// mutate it.
func (r *Recorder) Incident() []Event {
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	return r.incident
}

// Events returns one ring's live events, oldest first.
func (r *Recorder) Events(pid int) []Event {
	ring := r.Ring(pid)
	if ring == nil {
		return nil
	}
	return ring.snapshot(nil)
}

// Merge interleaves every ring's live events into one dump ordered by the
// global ticket — a total order consistent with happens-before: any event
// that completed before another began precedes it.  Concurrent writers are
// safe and never blocked; events recorded *during* the merge may or may not
// appear, exactly like any racing read of a live counter, and a ring whose
// writer laps it during its copy loses its oldest events from this dump
// (every event returned is one the writer recorded, never a torn slot).
func (r *Recorder) Merge() []Event {
	if r == nil {
		return nil
	}
	return r.merge()
}

func (r *Recorder) merge() []Event {
	var out []Event
	for _, ring := range r.rings {
		out = ring.snapshot(out)
	}
	// Insertion sort is fine for forensic dumps (rings are short and
	// per-ring runs are pre-sorted), but sort.Slice is clearer and this is
	// the cold path.
	sortEvents(out)
	return out
}

// sortEvents orders by GSeq ascending (stable by construction: tickets are
// unique).
func sortEvents(evs []Event) {
	// Rings are individually ordered, so a simple merge-friendly insertion
	// pass degenerates to O(n·rings); use stdlib sort semantics via a
	// hand-rolled pdq-free loop to keep the package dependency-light.
	quicksortEvents(evs, 0, len(evs)-1)
}

func quicksortEvents(evs []Event, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && evs[j].GSeq < evs[j-1].GSeq; j-- {
					evs[j], evs[j-1] = evs[j-1], evs[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		if evs[mid].GSeq < evs[lo].GSeq {
			evs[mid], evs[lo] = evs[lo], evs[mid]
		}
		if evs[hi].GSeq < evs[lo].GSeq {
			evs[hi], evs[lo] = evs[lo], evs[hi]
		}
		if evs[hi].GSeq < evs[mid].GSeq {
			evs[hi], evs[mid] = evs[mid], evs[hi]
		}
		pivot := evs[mid].GSeq
		i, j := lo, hi
		for i <= j {
			for evs[i].GSeq < pivot {
				i++
			}
			for evs[j].GSeq > pivot {
				j--
			}
			if i <= j {
				evs[i], evs[j] = evs[j], evs[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j-lo < hi-i {
			quicksortEvents(evs, lo, j)
			lo = i
		} else {
			quicksortEvents(evs, i, hi)
			hi = j
		}
	}
}

// Format pretty-prints a dump, one event per line.
func Format(evs []Event) string {
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
