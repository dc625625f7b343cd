package abadetect

import (
	"runtime"
	"sync"
	"testing"
)

// TestNewMapAcrossRegimesAndReclaimers is the public acceptance grid: the
// map constructs and runs under every protection regime × every reclamation
// scheme, the sound cells audit clean under concurrent churn, and the
// metrics plumbing (guards, free list, reclaimer ledger) is visible through
// the public API.  raw+none is the deliberate §1 victim: it must run, and
// its audit is reported, not asserted clean.
func TestNewMapAcrossRegimesAndReclaimers(t *testing.T) {
	regimes := []struct {
		name string
		prot Protection
	}{
		{"raw", ProtectionRaw},
		{"tagged", ProtectionTagged},
		{"llsc", ProtectionLLSC},
		{"detector", ProtectionDetector},
	}
	for _, re := range regimes {
		for _, scheme := range []string{"none", "hp", "epoch"} {
			t.Run(re.name+"+"+scheme, func(t *testing.T) {
				const n = 4
				m, err := NewMap(n, 32, WithProtection(re.prot), WithReclamation(scheme))
				if err != nil {
					t.Fatal(err)
				}
				if m.Protection() != re.prot {
					t.Fatalf("protection = %v, want %v", m.Protection(), re.prot)
				}
				sound := re.prot != ProtectionRaw || scheme != "none"
				var wg sync.WaitGroup
				fail := make(chan string, n)
				for pid := 0; pid < n; pid++ {
					h, err := m.Handle(pid)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(pid int, h *MapHandle) {
						defer wg.Done()
						for i := 0; i < 800; i++ {
							k := Word(pid)<<16 | Word(i%4)
							v := Word(i)
							for !h.Put(k, v) {
								runtime.Gosched()
							}
							if sound {
								if got, ok := h.Get(k); !ok || got != v {
									fail <- "lost own binding"
									return
								}
								if !h.Delete(k) {
									fail <- "lost own delete"
									return
								}
							} else {
								h.Get(k)
								h.Delete(k)
							}
						}
					}(pid, h)
				}
				wg.Wait()
				close(fail)
				for msg := range fail {
					t.Fatal(msg)
				}
				a := m.Audit()
				if a.Reclaimer != scheme {
					t.Errorf("audit reclaimer = %q, want %q", a.Reclaimer, scheme)
				}
				if sound && a.Corrupt {
					t.Errorf("sound cell corrupted: %s", a.Detail)
				}
				if scheme != "none" && a.Retired == 0 {
					t.Error("reclaimer ledger empty after churn")
				}
				if gm := m.GuardMetrics(); gm.Commits == 0 {
					t.Error("guards recorded no commits")
				}
			})
		}
	}
}

// TestNewMapOptionPlumbing checks the option surface the other structures
// share: backends, guard implementations, the guarded pool, and the
// tag-width validation.
func TestNewMapOptionPlumbing(t *testing.T) {
	m, err := NewMap(2, 8,
		WithBackend(SlabBackend()),
		WithProtection(ProtectionLLSC), WithGuardImpl("constant"),
		WithGuardedPool())
	if err != nil {
		t.Fatal(err)
	}
	if m.Footprint().Objects() == 0 {
		t.Error("empty footprint")
	}
	if m.Buckets() < 1 {
		t.Error("no buckets")
	}
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Put(1, 2) {
		t.Fatal("put failed")
	}
	if fm := m.FreelistMetrics(); fm.Commits == 0 {
		t.Error("guarded free list recorded no commits")
	}
	if _, err := NewMap(2, 8, WithTagBits(0)); err == nil {
		t.Error("want error for a zero-width tag")
	}
	if _, err := NewMap(2, 8, WithProtection(ProtectionTagged), WithTagBits(64)); err == nil {
		t.Error("want error for a tag that cannot pack beside the link word")
	}
	if _, err := NewMap(2, 8, WithProtection(ProtectionDetector), WithGuardImpl("fig4")); err == nil {
		t.Error("want error for a detection-only guard behind a committing structure")
	}
}
