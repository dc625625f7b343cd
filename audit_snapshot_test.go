package abadetect

import (
	"reflect"
	"sync"
	"testing"
)

// TestAuditSnapshotIdleConsistency pins the documented snapshot relaxation
// from the exact side: StructureAudit and GuardMetrics sum independent
// counter loads, which may catch in-flight operations under traffic —
// but at quiescence (all workers joined) the sums must be exact, so two
// back-to-back snapshots must be deeply equal.  Run under -race this also
// exercises concurrent audits against live traffic for memory safety.
func TestAuditSnapshotIdleConsistency(t *testing.T) {
	const workers, opsEach = 4, 2_000
	m, err := NewMap(workers, 64, WithReclamation("epoch:auto"), WithTracing(256))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stopAudit := make(chan struct{})
	var auditWg sync.WaitGroup
	// A concurrent metrics reader: under -race this proves the relaxed
	// snapshot is data-race-free even while every counter is being bumped.
	// (The full Audit stays out of this loop by contract — it walks
	// reclaimer pending lists and is quiescent-only.)
	auditWg.Add(1)
	go func() {
		defer auditWg.Done()
		for {
			select {
			case <-stopAudit:
				return
			default:
			}
			_ = m.GuardMetrics()
			_ = m.FreelistMetrics()
		}
	}()
	for pid := 0; pid < workers; pid++ {
		h, err := m.Handle(pid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(h *MapHandle, pid int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := Word(i&31) ^ Word(pid)
				h.Put(k, Word(i))
				h.Get(k)
				if i%3 == 0 {
					h.Delete(k)
				}
			}
		}(h, pid)
	}
	wg.Wait()
	close(stopAudit)
	auditWg.Wait()

	// Quiescent now: back-to-back snapshots must agree exactly.
	a1, a2 := m.Audit(), m.Audit()
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("idle audits differ:\n%+v\n%+v", a1, a2)
	}
	g1, g2 := m.GuardMetrics(), m.GuardMetrics()
	if g1 != g2 {
		t.Errorf("idle guard metrics differ:\n%+v\n%+v", g1, g2)
	}
	if g1.Commits == 0 {
		t.Error("workload recorded no commits")
	}
}
