//go:build race

package trace

import "sync/atomic"

// storeSlot fills a slot with atomic stores under the race detector, which
// cannot see that a reader drops every slot the writer reused during its
// copy; the drop logic itself is the same as in other builds.
func storeSlot(s *slot, gseq, kn, a, b uint64) {
	atomic.StoreUint64(&s.gseq, gseq)
	atomic.StoreUint64(&s.kn, kn)
	atomic.StoreUint64(&s.a, a)
	atomic.StoreUint64(&s.b, b)
}

// storeStamp writes a cohort stamp atomically, like storeSlot.
func storeStamp(p *int64, ts int64) { atomic.StoreInt64(p, ts) }
