package kv

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"abadetect/internal/apps"
	"abadetect/internal/guard"
	"abadetect/internal/reclaim"
	"abadetect/internal/shmem"
)

// soundConfigs enumerates the (protection, reclaimer) cells that must be
// linearizable under contention: every sound guard regime over every
// reclaimer, plus the raw guard whose safety comes from the reclaimer alone.
func soundConfigs() []struct {
	name    string
	prot    Protection
	tagBits uint
	rc      reclaim.Maker
} {
	type cfg = struct {
		name    string
		prot    Protection
		tagBits uint
		rc      reclaim.Maker
	}
	var out []cfg
	prots := []struct {
		name    string
		prot    Protection
		tagBits uint
	}{
		{"tag16", apps.Tagged, 16},
		{"llsc", apps.LLSC, 0},
		{"detector", apps.Detector, 0},
	}
	rcs := []struct {
		name string
		mk   reclaim.Maker
	}{
		{"none", nil},
		{"hp", reclaim.NewHazard},
		{"epoch", reclaim.NewEpoch},
	}
	for _, p := range prots {
		for _, r := range rcs {
			out = append(out, cfg{p.name + "+" + r.name, p.prot, p.tagBits, r.mk})
		}
	}
	// Raw is sound only when a real reclaimer prevents the recycle leg.
	out = append(out,
		cfg{"raw+hp", apps.Raw, 0, reclaim.NewHazard},
		cfg{"raw+epoch", apps.Raw, 0, reclaim.NewEpoch},
	)
	return out
}

func buildMap(t *testing.T, n, capacity, buckets int, prot Protection, tagBits uint, rc reclaim.Maker) *Map {
	t.Helper()
	var opts []apps.StructOption
	if rc != nil {
		opts = append(opts, apps.WithReclaimer(rc))
	}
	m, err := NewMap(shmem.NewNativeFactory(), n, capacity, buckets, prot, tagBits, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapBasics(t *testing.T) {
	m := buildMap(t, 1, 8, 4, apps.LLSC, 0, nil)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Get(7); ok {
		t.Error("Get on an empty map hit")
	}
	if h.Delete(7) {
		t.Error("Delete on an empty map succeeded")
	}
	if !h.Put(7, 70) {
		t.Fatal("Put(7) failed")
	}
	if v, ok := h.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = (%d,%v), want (70,true)", v, ok)
	}
	// Overwrite: the new binding wins and the old node is reclaimed.
	if !h.Put(7, 71) {
		t.Fatal("overwrite Put(7) failed")
	}
	if v, ok := h.Get(7); !ok || v != 71 {
		t.Fatalf("Get(7) after overwrite = (%d,%v), want (71,true)", v, ok)
	}
	if !h.Delete(7) {
		t.Fatal("Delete(7) failed")
	}
	if _, ok := h.Get(7); ok {
		t.Error("Get(7) after delete hit")
	}
	if a := m.Audit(); a.Corrupt() || a.Live != 0 {
		t.Errorf("audit after churn: %s", a)
	}
}

func TestMapFillsToCapacityAndReportsExhaustion(t *testing.T) {
	const capacity = 5
	m := buildMap(t, 1, capacity, 2, apps.LLSC, 0, nil)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < capacity; k++ {
		if !h.Put(Word(k), Word(100+k)) {
			t.Fatalf("Put(%d) failed with %d free nodes", k, capacity-k)
		}
	}
	// Even an overwrite needs a fresh node: a full pool fails it.
	if h.Put(0, 200) {
		t.Error("Put into a full pool succeeded")
	}
	if ps := m.PoolStats(); ps.Exhaustions == 0 {
		t.Error("exhaustion not counted")
	}
	if v, ok := h.Get(0); !ok || v != 100 {
		t.Errorf("failed overwrite changed the binding: (%d,%v)", v, ok)
	}
	if !h.Delete(3) {
		t.Fatal("Delete(3) failed")
	}
	if !h.Put(0, 200) {
		t.Error("Put after a delete still exhausted")
	}
	if v, ok := h.Get(0); !ok || v != 200 {
		t.Errorf("overwrite lost: (%d,%v)", v, ok)
	}
	if a := m.Audit(); a.Corrupt() {
		t.Errorf("audit: %s", a)
	}
}

func TestMapBucketCollisions(t *testing.T) {
	// One bucket: every key shares a chain, so traversal, duplicate kill,
	// and interior unlink all get exercised.
	m := buildMap(t, 1, 8, 1, apps.LLSC, 0, nil)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		if !h.Put(Word(k), Word(10+k)) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	// Delete from the middle of the chain.
	if !h.Delete(3) {
		t.Fatal("interior Delete failed")
	}
	for k := 0; k < 6; k++ {
		v, ok := h.Get(Word(k))
		if k == 3 {
			if ok {
				t.Errorf("Get(3) hit after delete")
			}
			continue
		}
		if !ok || v != Word(10+k) {
			t.Errorf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, 10+k)
		}
	}
	if a := m.Audit(); a.Corrupt() || a.Live != 5 {
		t.Errorf("audit: %s", a)
	}
}

// linkStaleDuplicate builds, through h, the state a Put of k leaves when it
// is preempted between its insert and its kill, on a one-bucket map whose
// run holds k's binding first: an older live node of k, valued v, linked
// directly behind the binding through the binding's own guard handle.
func linkStaleDuplicate(h *Handle, k, v Word) {
	m := h.m
	bound := linkIdx(m.heads.Get(0).Peek(-1)) // observer read
	old := h.allocNode()
	n := m.node(old)
	n.key.Write(h.pid, k)
	n.val.Write(h.pid, v)
	bl := h.link(bound)
	w, _ := bl.Load()
	h.link(old).Store(w)
	if !bl.Commit(packLink(old, false)) {
		panic("kv: linking the stale duplicate failed")
	}
}

// TestMapPutKillsDuplicateBehindBinding overwrites a binding that has an
// older live duplicate behind it.  The Put kills the binding it shadows
// through its armed links, and its probe of that binding's successor finds
// the duplicate, so it also sweeps: one live node is left, with the new
// value.
func TestMapPutKillsDuplicateBehindBinding(t *testing.T) {
	for _, tc := range soundConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			m := buildMap(t, 1, 4, 1, tc.prot, tc.tagBits, tc.rc)
			h, err := m.Handle(0)
			if err != nil {
				t.Fatal(err)
			}
			if !h.Put(1, 10) {
				t.Fatal("Put(1) failed")
			}
			linkStaleDuplicate(h, 1, 9)
			if a := m.Audit(); a.Corrupt() || a.Live != 2 {
				t.Fatalf("audit with the duplicate linked: %s", a)
			}
			if !h.Put(1, 11) {
				t.Fatal("overwrite Put(1) failed")
			}
			if v, ok := h.Get(1); !ok || v != 11 {
				t.Fatalf("Get(1) after the overwrite = (%d,%v), want (11,true)", v, ok)
			}
			if a := m.Audit(); a.Corrupt() || a.Live != 1 {
				t.Fatalf("audit after the overwrite: %s", a)
			}
		})
	}
}

// TestMapSplitDeleteDroppedByOtherOp runs, on one handle of a one-bucket
// map, Put(1, 10), DeleteBegin(1), one other operation, then DeleteCommit,
// under every regime and reclaimer.  The other operation's walk re-arms
// the pending unlink's predecessor link and may unlink the marked node
// itself; committing through the re-armed link would retire the node a
// second time.  So the operation abandons the pending unlink: DeleteCommit
// reports false, and the audit is clean with no live binding of key 1.
func TestMapSplitDeleteDroppedByOtherOp(t *testing.T) {
	for _, p := range []struct {
		name string
		prot Protection
	}{{"raw", apps.Raw}, {"tag16", apps.Tagged}, {"llsc", apps.LLSC}, {"detector", apps.Detector}} {
		for _, r := range []struct {
			name string
			mk   reclaim.Maker
		}{{"none", reclaim.NewNone}, {"hp", reclaim.NewHazard}, {"epoch", reclaim.NewEpoch}} {
			for _, op := range []struct {
				name string
				run  func(h *Handle)
			}{
				{"get", func(h *Handle) { h.Get(1) }},
				{"put", func(h *Handle) { h.Put(2, 20) }},
				{"delete", func(h *Handle) { h.Delete(2) }},
			} {
				t.Run(p.name+"+"+r.name+"/"+op.name, func(t *testing.T) {
					m := buildMap(t, 2, 4, 1, p.prot, 16, r.mk)
					h, err := m.Handle(0)
					if err != nil {
						t.Fatal(err)
					}
					if !h.Put(1, 10) {
						t.Fatal("Put(1) failed")
					}
					if _, _, found := h.DeleteBegin(1); !found {
						t.Fatal("DeleteBegin(1) missed the binding")
					}
					op.run(h)
					if h.DeleteCommit() {
						t.Error("DeleteCommit fired after another operation on its handle")
					}
					if _, ok := h.Get(1); ok {
						t.Error("key 1 still bound after its DeleteBegin")
					}
					if a := m.Audit(); a.Corrupt() {
						t.Errorf("audit: %s", a)
					}
				})
			}
		}
	}
}

// TestMapMPMCStrictAccounting is the strict ownership test: every process
// works a disjoint key range, so each of its Put/Get/Delete cycles must
// observe exactly its own writes — any miss or stale value is an ABA (or a
// broken traversal) caught red-handed.  It runs under every sound cell of
// the protection × reclaimer matrix, raw+hp and raw+epoch included: there
// the guard is value-blind and the reclaimer alone carries soundness.
func TestMapMPMCStrictAccounting(t *testing.T) {
	for _, tc := range soundConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			const perKey = 8
			const rounds = 300
			m := buildMap(t, n, 4*n*2, 4, tc.prot, tc.tagBits, tc.rc)
			var wg sync.WaitGroup
			errs := make(chan error, n)
			for pid := 0; pid < n; pid++ {
				h, err := m.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h *Handle) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						for j := 0; j < perKey; j++ {
							k := Word(pid)<<32 | Word(j)
							v := Word(r)<<8 | Word(j)
							for !h.Put(k, v) {
								runtime.Gosched() // transient exhaustion under contention
							}
							got, ok := h.Get(k)
							if !ok || got != v {
								errs <- fmt.Errorf("pid %d: Get(%#x) = (%#x,%v), want (%#x,true)", pid, k, got, ok, v)
								return
							}
							if !h.Delete(k) {
								errs <- fmt.Errorf("pid %d: Delete(%#x) missed its own binding", pid, k)
								return
							}
						}
					}
				}(pid, h)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if a := m.Audit(); a.Corrupt() || a.Live != 0 {
				t.Errorf("audit after strict run: %s", a)
			}
		})
	}
}

// TestMapMPMCSharedKeysAuditClean hammers a small shared key set from every
// process — puts, gets, and deletes all racing on the same chains — and
// requires the structure to audit clean under every sound configuration.
func TestMapMPMCSharedKeysAuditClean(t *testing.T) {
	for _, tc := range soundConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			const ops = 3000
			m := buildMap(t, n, 32, 2, tc.prot, tc.tagBits, tc.rc)
			var wg sync.WaitGroup
			for pid := 0; pid < n; pid++ {
				h, err := m.Handle(pid)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(pid int, h *Handle) {
					defer wg.Done()
					x := uint64(pid + 1)
					for i := 0; i < ops; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						k := Word(x % 8)
						switch x % 4 {
						case 0:
							h.Put(k, Word(i))
						case 1:
							h.Delete(k)
						default:
							h.Get(k)
						}
					}
				}(pid, h)
			}
			wg.Wait()
			if a := m.Audit(); a.Corrupt() {
				t.Errorf("audit after shared-key chaos: %s", a)
			}
		})
	}
}

// TestMapGuardedPoolComposes: the lock-free free list and the map's own
// guards share one regime, and the composition survives contention.
func TestMapGuardedPoolComposes(t *testing.T) {
	m, err := NewMap(shmem.NewNativeFactory(), 4, 16, 4, apps.LLSC, 0, apps.WithGuardedPool())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for pid := 0; pid < 4; pid++ {
		h, err := m.Handle(pid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(pid int, h *Handle) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Word(i % 8)
				h.Put(k, Word(i))
				h.Get(k)
				h.Delete(k)
			}
		}(pid, h)
	}
	wg.Wait()
	if a := m.Audit(); a.Corrupt() {
		t.Errorf("audit: %s", a)
	}
	if fm := m.FreelistMetrics(); fm.Commits == 0 {
		t.Error("guarded free list recorded no commits")
	}
}

func TestMapConstructorErrors(t *testing.T) {
	f := shmem.NewNativeFactory()
	if _, err := NewMap(f, 0, 8, 4, apps.LLSC, 0); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := NewMap(f, 1, 0, 4, apps.LLSC, 0); err == nil {
		t.Error("want error for capacity=0")
	}
	if _, err := NewMap(f, 1, 8, 0, apps.LLSC, 0); err == nil {
		t.Error("want error for buckets=0")
	}
	m := buildMap(t, 2, 8, 4, apps.LLSC, 0, nil)
	if _, err := m.Handle(2); err == nil {
		t.Error("want error for out-of-range pid")
	}
}

// TestMapMaxSpinBails: a handle with a spin budget fails operations instead
// of hanging (the harness setting for possibly-corrupted raw runs).
func TestMapMaxSpinBails(t *testing.T) {
	m := buildMap(t, 1, 8, 1, apps.LLSC, 0, nil)
	h, err := m.Handle(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []Word{1, 2, 3, 4}
	for _, k := range keys {
		if !h.Put(k, k) {
			t.Fatal("setup put failed")
		}
	}
	// The run is sorted by split order: the last key sorts deepest.
	sort.Slice(keys, func(i, j int) bool { return after(sortKeyData(keys[j]), sortKeyData(keys[i])) })
	deep := keys[len(keys)-1]
	h.MaxSpin = 2 // too small to reach the run's tail (deep, 4 hops in)
	if _, ok := h.Get(deep); ok {
		t.Error("budgeted Get deep into the run should bail")
	}
	h.MaxSpin = 0
	if v, ok := h.Get(deep); !ok || v != deep {
		t.Errorf("unbounded Get(%d) = (%d,%v)", deep, v, ok)
	}
	if a := m.Audit(); a.Corrupt() {
		t.Errorf("bailing corrupted the map: %s", a)
	}
}

func TestMapWorkerStopsAfterSpinBudget(t *testing.T) {
	// A raw map whose hot-key bucket holds a two-node next-cycle of keys
	// that sort before the hot key livelocks every lookup of that key: the
	// traversal chases the cycle until MaxSpin runs out.  The matrix worker
	// must pay that budget once and then stop issuing operations, reporting
	// the skipped ones, instead of re-spending the whole budget on every
	// later op of that bucket.
	f := shmem.NewCounting(shmem.NewNativeFactory(), 2)
	inst, err := NewMapInstance(f, 2, 8, guard.NewMaker(f, 2, guard.Raw, 0), apps.InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := inst.(mapInstance).m
	h, err := m.Handle(1)
	if err != nil {
		t.Fatal(err)
	}
	// Two keys the walk for the hot key 1 passes rather than stops at.
	var cycle []Word
	for k := Word(1000); len(cycle) < 2; k++ {
		if after(sortKeyData(1), sortKeyData(k)) {
			cycle = append(cycle, k)
		}
	}
	a, b := h.pool.Alloc(), h.pool.Alloc()
	m.node(a).key.Write(1, cycle[0])
	m.node(b).key.Write(1, cycle[1])
	h.link(a).Store(Word(b) << 1)
	h.link(b).Store(Word(a) << 1)
	hot, _ := h.locate(1)
	h.head(hot).Store(Word(a) << 1) // the worker's hot key

	step, err := inst.Worker(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Reset()
	const ops = 200
	for i := 0; i < ops; i++ {
		step(i)
	}
	// One spent budget (a spin is at most 4 steps) plus a short op's worth
	// for each op; re-spending the budget per op blows far past it.
	if steps, bound := f.TotalSteps(), int64(maxSpin*4+ops*64); steps >= bound {
		t.Errorf("%d ops took %d shared-memory steps, want < %d: the worker kept spinning on a livelocked bucket", ops, steps, bound)
	}
	corrupt, detail := inst.Audit()
	if !corrupt || !strings.Contains(detail, "abandoned=") {
		t.Errorf("audit = (%v, %q), want a failed audit reporting abandoned ops", corrupt, detail)
	}
}
