package guard

// This file is the read side of the protection ladder: a seqlock-style
// consistent-read protocol over any Guard.
//
// The protocol is the paper's detection semantics run backwards.  A
// detecting register's DRead reports whether any write linearized since the
// reader's previous DRead; a seqlock reader asks the same question around a
// multi-word read: "did any write land between my two fences?"  For the
// detector regime the answer is literally DRead's dirty bit (Load arms,
// Validate checks VL), so ReadConsistent over a Detector guard IS the
// paper's Figure 5 used as a seqlock — no extra base objects, detection
// exact.  LL/SC answers through VL, tagged through the packed tag word, and
// raw only through value comparison, which is the §1 blindness: a read
// "validated" by an equal word may span a remove–recycle–reinsert cycle.

// ReadConsistent performs one seqlock-consistent read through h: it Loads
// the guarded reference, runs read(v) — the caller's dependent loads of
// whatever v names — and accepts the result only if Validate still holds,
// i.e. no write the regime can distinguish landed between the two fence
// points.  On a torn read it retries with a fresh Load.
//
// The read is wait-free for the reader and write-free for the memory
// system: Load and Validate on every conditional regime are pure shared
// reads (the detector's VL included), so readers never take a hazard slot,
// bump a tag, or invalidate a writer's cache line.  maxRetries bounds the
// retry loop (0 means retry forever, the lock-free default); clean=false
// reports an exhausted budget, and the last loaded v is returned for the
// caller's fallback path.
//
// read may be nil when the reference value itself is the whole payload — a
// single Load is trivially consistent, but the Validate still tells the
// caller the value was not mid-cycle, and on a detection-only guard it
// consumes the dirty signal the way the busy-wait scenario expects.
func ReadConsistent(h Handle, maxRetries int, read func(v Word)) (v Word, clean bool) {
	for attempt := 1; ; attempt++ {
		v, _ = h.Load()
		if read != nil {
			read(v)
		}
		if h.Validate() {
			return v, true
		}
		if maxRetries > 0 && attempt >= maxRetries {
			return v, false
		}
	}
}
