// Package getseq implements the bounded sequence-number recycling helper
// GetSeq() from Figure 4 of the paper (lines 28-37).
//
// A writer process p augments each value it installs into the shared object
// X with a sequence number s drawn from the bounded domain {0, ..., 2n+1}.
// Readers announce the (pid, seq) pair they last observed in X.  GetSeq
// guarantees the property the paper's Claim 3 is built on:
//
//	If there is any point at which X = (·, p, s) and A[q] = (p, s) for some
//	process q, then p will not use sequence number s again in any following
//	install until A[q] ≠ (p, s).
//
// It achieves this with two bounded mechanisms:
//
//   - usedQ, a queue of the n+1 most recently returned sequence numbers: two
//     returns of the same s are separated by at least n+1 complete GetSeq
//     calls, which is long enough for a full scan of the announce array;
//   - na, the "not available" set: each GetSeq call reads exactly one
//     announce-array entry (round-robin over all n entries) and remembers any
//     entry announcing p's own pid until a later scan of the same entry sees
//     something else.
//
// The domain size 2n+2 is exactly large enough: at most n entries can be
// blocked by na and n+1 by usedQ, so at least one sequence number is always
// available.
//
// Each call to Next performs exactly one shared-memory step (the read of one
// announce-array entry); everything else is process-local state.  The
// process-local work is amortized O(1): the forbidden set na ∪ usedQ is
// maintained incrementally — each Next changes at most one na entry and one
// usedQ slot, so at most four per-seq reference counts move — and available
// numbers are drawn from a FIFO ring with lazy invalidation instead of
// re-deriving the whole set per call.  (The paper's line 34 allows an
// arbitrary choice; the FIFO order also guarantees every domain value is
// eventually exercised.)
package getseq

import (
	"fmt"
	"sync/atomic"

	"abadetect/internal/shmem"
)

// Picker is the per-process GetSeq state: local variables usedQ, na and c of
// Figure 4.  A Picker belongs to a single process and must not be shared
// between goroutines.
type Picker struct {
	pid int
	n   int
	a   []shmem.Register
	ad  []*atomic.Uint64 // devirtualized announce words, nil on indirect substrates

	// Bound layout constants of the announcement encoding: decoding a
	// scanned pair with raw masks avoids materializing a codec copy per
	// call (even inlined value-receiver methods copy their receiver).
	present  shmem.Word
	pidMask  shmem.Word
	seqMask  shmem.Word
	seqShift uint

	c       int   // next announce-array slot to scan
	na      []int // na[q] = seq announced in A[q] for my pid, or -1
	used    []int // ring buffer of the n+1 most recently returned seqs
	usedPos int   // next slot of used to overwrite (its current occupant is the oldest)

	// Incremental forbidden set: refcnt[s] counts the sources (na entries,
	// usedQ slots) currently blocking s.  free is a FIFO ring of candidate
	// numbers with lazy invalidation: a number is pushed when its refcnt
	// drops to zero, popped entries that were re-blocked in the meantime are
	// discarded, and inFree[s] = 1 keeps each number in the ring at most
	// once so the ring never exceeds the domain size.
	refcnt   []int
	free     []int
	freeHead int
	freeLen  int
	inFree   []int
}

// lineInts is the number of ints in a 64-byte cache line.
const lineInts = 64 / 8

// New returns a Picker for process pid over announce array a.  The codec
// defines the (pid, seq) pair encoding of the announce entries and the
// sequence-number domain, which must have at least 2n+2 values.
//
// When every announce register devirtualizes (shmem.Direct), the picker's
// one shared step per Next is a raw atomic load; on instrumented or
// simulated substrates it stays a dynamic call, so step counting, auditing,
// and scheduling see it.
func New(pid, n int, codec shmem.TripleCodec, a []shmem.Register) (*Picker, error) {
	if len(a) != n {
		return nil, fmt.Errorf("getseq: announce array has %d entries, want n=%d", len(a), n)
	}
	if pid < 0 || pid >= n {
		return nil, fmt.Errorf("getseq: pid %d out of range [0,%d)", pid, n)
	}
	if codec.SeqVals() < 2*n+2 {
		return nil, fmt.Errorf("getseq: seq domain %d too small, want >= 2n+2 = %d", codec.SeqVals(), 2*n+2)
	}
	seqVals := codec.SeqVals()
	p := &Picker{
		pid:      pid,
		n:        n,
		a:        a,
		ad:       shmem.DirectRegisters(a),
		present:  codec.PresentMask(),
		pidMask:  codec.PidMask(),
		seqMask:  codec.SeqMask(),
		seqShift: codec.SeqBits(),
	}
	// Every Next writes these arrays, so they share one allocation with a
	// cache line of padding at each end: no line of them is shared with
	// another object, such as the picker built next for another process.
	buf := make([]int, lineInts+2*n+1+3*seqVals+lineInts)[lineInts:]
	p.na, buf = buf[:n:n], buf[n:]
	p.used, buf = buf[:n+1:n+1], buf[n+1:]
	p.refcnt, buf = buf[:seqVals:seqVals], buf[seqVals:]
	p.free, buf = buf[:seqVals:seqVals], buf[seqVals:]
	p.inFree = buf[:seqVals:seqVals]
	for i := range p.na {
		p.na[i] = -1
	}
	for i := range p.used {
		p.used[i] = -1 // ⊥
	}
	for s := 0; s < seqVals; s++ {
		p.pushFree(s)
	}
	return p, nil
}

// pushFree appends s to the candidate ring unless it is already queued.
// The ring indices wrap with compares, not modulo: an integer division per
// draw would cost more than the rest of the bookkeeping combined.
func (p *Picker) pushFree(s int) {
	if p.inFree[s] != 0 {
		return
	}
	i := p.freeHead + p.freeLen
	if i >= len(p.free) {
		i -= len(p.free)
	}
	p.free[i] = s
	p.freeLen++
	p.inFree[s] = 1
}

// popFree returns the oldest candidate with refcnt zero, discarding stale
// entries (numbers re-blocked after they were queued).  Amortized O(1):
// every discarded entry is paid for by the pushFree that queued it.
func (p *Picker) popFree() int {
	for p.freeLen > 0 {
		s := p.free[p.freeHead]
		if p.freeHead++; p.freeHead == len(p.free) {
			p.freeHead = 0
		}
		p.freeLen--
		p.inFree[s] = 0
		if p.refcnt[s] == 0 {
			return s
		}
	}
	// Unreachable: |na| + |usedQ| <= 2n+1 < seqVals, and every zero-refcnt
	// number is queued.
	panic("getseq: no available sequence number (domain invariant violated)")
}

// block adds one forbidding source for s.
func (p *Picker) block(s int) { p.refcnt[s]++ }

// unblock removes one forbidding source for s, re-queuing it when the last
// source disappears.
func (p *Picker) unblock(s int) {
	p.refcnt[s]--
	if p.refcnt[s] == 0 {
		p.pushFree(s)
	}
	if p.refcnt[s] < 0 {
		panic("getseq: forbidden refcount underflow")
	}
}

// Next performs one GetSeq() call: it reads one announce-array entry
// (exactly one shared-memory step), updates na, and returns a sequence
// number that is neither announced for this process (as far as na knows) nor
// among the n+1 most recently returned ones.
func (p *Picker) Next() int {
	// Lines 28-32: scan one announce entry.  On direct substrates the read
	// is a raw atomic load of the slab/native word.
	var w shmem.Word
	if p.ad != nil {
		w = p.ad[p.c].Load()
	} else {
		w = p.a[p.c].Read(p.pid)
	}
	newNa := -1
	if w&p.present != 0 && int((w>>p.seqShift)&p.pidMask) == p.pid {
		newNa = int(w & p.seqMask)
	}
	if old := p.na[p.c]; old != newNa {
		p.na[p.c] = newNa
		if newNa >= 0 {
			p.block(newNa)
		}
		if old >= 0 {
			p.unblock(old)
		}
	}
	// Line 33: advance the scan cursor.
	if p.c++; p.c == p.n {
		p.c = 0
	}

	// Line 34: choose s outside na ∪ usedQ — the oldest candidate of the
	// incrementally maintained free ring.
	s := p.popFree()

	// Lines 35-36: enq(s), deq() -- replace the oldest entry.
	if old := p.used[p.usedPos]; old >= 0 {
		p.unblock(old)
	}
	p.used[p.usedPos] = s
	if p.usedPos++; p.usedPos == len(p.used) {
		p.usedPos = 0
	}
	p.block(s)
	return s
}

// Cursor returns the announce-array index the next call will scan.  It is
// exposed for white-box tests.
func (p *Picker) Cursor() int { return p.c }
