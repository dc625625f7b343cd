//go:build !race

package trace

// storeSlot fills a slot with plain stores: the ring's publishing store, not
// the slot stores themselves, is what readers synchronize on (Ring.Record).
func storeSlot(s *slot, gseq, kn, a, b uint64) {
	s.gseq = gseq
	s.kn = kn
	s.a = a
	s.b = b
}

// storeStamp writes a cohort stamp with a plain store, like storeSlot.
func storeStamp(p *int64, ts int64) { *p = ts }
