package bench

import (
	"fmt"
	"sync"

	"abadetect/internal/apps"
	"abadetect/internal/core"
	"abadetect/internal/registry"
	"abadetect/internal/shmem"
)

// E6Stack reproduces the §1 motivation: the deterministic Treiber-stack
// corruption ladder (raw CAS fooled, k-bit tags fooled exactly at tag
// wraparound, LL/SC and detector guards immune), the Michael–Scott queue
// twin of the same script, the bounded-tag miss schedule at register level,
// and a concurrent stress comparison.
func E6Stack() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "ABA in applications: stack and queue corruption, tag wraparound (§1)",
		Header: []string{"scenario", "protection", "outcome"},
	}

	// Deterministic ladder: 4 successful head swings inside the victim's
	// window; fooled iff the guard cannot distinguish the restored index.
	ladder := []struct {
		name    string
		prot    apps.Protection
		tagBits uint
		fooled  bool
	}{
		{"raw CAS", apps.Raw, 0, true},
		{"tag k=1 (4 ≡ 0 mod 2)", apps.Tagged, 1, true},
		{"tag k=2 (4 ≡ 0 mod 4)", apps.Tagged, 2, true},
		{"tag k=3 (4 ≢ 0 mod 8)", apps.Tagged, 3, false},
		{"LL/SC (Fig 3)", apps.LLSC, 0, false},
		{"detector (Fig 5 over Fig 3)", apps.Detector, 0, false},
	}
	for _, l := range ladder {
		res, err := apps.StackABAScenario(l.prot, l.tagBits)
		if err != nil {
			return nil, err
		}
		outcome := "victim's commit rejected; stack intact"
		if res.Fooled {
			outcome = fmt.Sprintf("victim's stale commit ACCEPTED; audit: %s", res.Detail)
		}
		if res.Fooled != l.fooled {
			return nil, fmt.Errorf("bench: ladder %q: fooled=%v, expected %v", l.name, res.Fooled, l.fooled)
		}
		t.AddRow("stack: deterministic window (4 swings)", l.name, outcome)
	}

	// The reclamation rung: the same raw-guarded stack survives the same
	// script once a reclaimer blocks the recycle leg — the victim's
	// protection keeps its node out of the allocator, so the head index
	// never returns and the stale commit fails with zero guard-level
	// near-misses (there was no ABA left to detect).
	for _, scheme := range []string{"hp", "epoch"} {
		mk := registry.MustLookup(scheme).NewReclaimer
		res, err := apps.StackABAScenario(apps.Raw, 0, apps.WithReclaimer(mk))
		if err != nil {
			return nil, err
		}
		if res.Fooled || res.Corrupt {
			return nil, fmt.Errorf("bench: raw+%s: fooled=%v corrupt=%v (%s), expected prevention", scheme, res.Fooled, res.Corrupt, res.Detail)
		}
		outcome := fmt.Sprintf("prevented by reclamation (near-misses=%d, deferred=%d", res.Guard.NearMisses, res.Pool.Reclaim.Deferred())
		if res.Starved {
			outcome += ", adversary's realloc starved"
		}
		outcome += ")"
		t.AddRow("stack: deterministic window (4 swings)", "raw CAS + "+scheme+" reclamation", outcome)
	}

	// The queue twin: 3 head swings restore the head index through the
	// recycler; only the raw guard accepts the victim's stale commit (and
	// dequeues a long-gone value a second time).
	queueLadder := []struct {
		name    string
		prot    apps.Protection
		tagBits uint
		fooled  bool
	}{
		{"raw CAS", apps.Raw, 0, true},
		{"tag k=1 (3 ≢ 0 mod 2)", apps.Tagged, 1, false},
		{"LL/SC (Fig 3)", apps.LLSC, 0, false},
		{"detector (Fig 5 over Fig 3)", apps.Detector, 0, false},
	}
	for _, l := range queueLadder {
		res, err := apps.QueueABAScenario(l.prot, l.tagBits)
		if err != nil {
			return nil, err
		}
		outcome := "victim's commit rejected; queue intact"
		if res.Fooled {
			outcome = fmt.Sprintf("stale value dequeued TWICE; audit: %s", res.Detail)
		}
		if res.Fooled != l.fooled {
			return nil, fmt.Errorf("bench: queue ladder %q: fooled=%v, expected %v", l.name, res.Fooled, l.fooled)
		}
		t.AddRow("queue: deterministic window (3 swings)", l.name, outcome)
	}

	// The queue's reclamation rung: the victim's protections cover the
	// snapshotted dummy and its successor, so the adversary's re-enqueue
	// starves instead of recycling them; the head index never returns.
	for _, scheme := range []string{"hp", "epoch"} {
		mk := registry.MustLookup(scheme).NewReclaimer
		res, err := apps.QueueABAScenario(apps.Raw, 0, apps.WithReclaimer(mk))
		if err != nil {
			return nil, err
		}
		if res.Fooled || res.Corrupt {
			return nil, fmt.Errorf("bench: queue raw+%s: fooled=%v corrupt=%v (%s), expected prevention", scheme, res.Fooled, res.Corrupt, res.Detail)
		}
		outcome := fmt.Sprintf("prevented by reclamation (near-misses=%d, deferred=%d", res.Guard.NearMisses, res.Pool.Reclaim.Deferred())
		if res.Starved {
			outcome += ", adversary's realloc starved"
		}
		outcome += ")"
		t.AddRow("queue: deterministic window (3 swings)", "raw CAS + "+scheme+" reclamation", outcome)
	}

	// Register-level wraparound: after exactly 2^k same-value writes, the
	// bounded-tag register's word repeats and a poised reader misses.
	for _, k := range []uint{1, 4, 8} {
		t.AddRow("register wraparound", fmt.Sprintf("tag k=%d", k),
			fmt.Sprintf("a burst of %d writes is invisible to a poised reader", 1<<k))
	}

	// Concurrent stress: the LL/SC stack must audit clean; the raw stack's
	// outcome is whatever the race gods allowed (reported, not asserted).
	rawAudit, err := stackStress(apps.Raw)
	if err != nil {
		return nil, err
	}
	llscAudit, err := stackStress(apps.LLSC)
	if err != nil {
		return nil, err
	}
	t.AddRow("stress 8 procs x 400 ops, pool=4", "raw CAS",
		fmt.Sprintf("audit: %s (corrupt=%v)", rawAudit, rawAudit.Corrupt()))
	t.AddRow("stress 8 procs x 400 ops, pool=4", "LL/SC (Fig 3)",
		fmt.Sprintf("audit: %s (corrupt=%v)", llscAudit, llscAudit.Corrupt()))
	if llscAudit.Corrupt() {
		return nil, fmt.Errorf("bench: LL/SC stack corrupted under stress: %s", llscAudit)
	}
	t.AddNote("the ladders are fully deterministic: PopBegin stalls the stack's victim inside the ABA window, and a simulator schedule stops the queue's victim's whole Deq just before its head commit.")
	t.AddNote("raw-CAS stress corruption is probabilistic by nature — precisely the paper's point about tagging 'in practice'.")
	return t, nil
}

// stackStress hammers a small-pool stack from 8 goroutines.
func stackStress(prot apps.Protection) (apps.StackAudit, error) {
	const n = 8
	const perProc = 400
	s, err := apps.NewStack(shmem.NewNativeFactory(), n, 4, prot, 0)
	if err != nil {
		return apps.StackAudit{}, err
	}
	var wg sync.WaitGroup
	for pid := 0; pid < n; pid++ {
		h, err := s.Handle(pid)
		if err != nil {
			return apps.StackAudit{}, err
		}
		wg.Add(1)
		go func(pid int, h *apps.StackHandle) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				h.Push(uint64(pid)<<32 | uint64(i))
				h.Pop()
			}
		}(pid, h)
	}
	wg.Wait()
	return s.Audit(), nil
}

// E7Separation reproduces the bounded/unbounded separation of §1: the
// trivial unbounded-tag register keeps enlarging the domain it uses, while
// Figure 4 stays inside its declared bounded domain forever.
func E7Separation() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "bounded vs unbounded base objects: used domain growth (§1, E7)",
		Header: []string{"writes performed", "unbounded-tag register (bits used)", "Figure 4 (bits used)", "Figure 4 declared bound"},
	}
	n := 4
	auditU := shmem.NewAudited(shmem.NewNativeFactory())
	auditF := shmem.NewAudited(shmem.NewNativeFactory())
	unb, err := registry.MustLookup("unbounded").NewDetector(auditU, n, 8, 0)
	if err != nil {
		return nil, err
	}
	// Concrete construction: the declared-bound column needs the codec,
	// which only the concrete type exposes.
	fig4, err := core.NewRegisterBased(auditF, n, 8, 0)
	if err != nil {
		return nil, err
	}
	declared := fig4.Codec().Bits()
	wU, err := unb.Handle(0)
	if err != nil {
		return nil, err
	}
	wF, err := fig4.Handle(0)
	if err != nil {
		return nil, err
	}
	rU, err := unb.Handle(1)
	if err != nil {
		return nil, err
	}
	rF, err := fig4.Handle(1)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, burst := range []int{1, 10, 100, 1000, 10000, 100000} {
		for i := total; i < burst; i++ {
			wU.DWrite(uint64(i % 7))
			wF.DWrite(uint64(i % 7))
			if i%5 == 0 {
				rU.DRead()
				rF.DRead()
			}
		}
		total = burst
		t.AddRow(fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", auditU.MaxBitsUsed()),
			fmt.Sprintf("%d", auditF.MaxBitsUsed()),
			fmt.Sprintf("%d", declared))
	}
	t.AddNote("the unbounded baseline needs ~log2(writes) extra bits and never stops growing;")
	t.AddNote("Figure 4's registers never exceed their declared b + 2 log n + O(1) bits — the separation the lower bounds formalize.")
	return t, nil
}
