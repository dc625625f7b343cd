package getseq

import (
	"testing"

	"abadetect/internal/shmem"
)

func newEnv(t *testing.T, n int) (shmem.TripleCodec, []shmem.Register) {
	t.Helper()
	codec, err := shmem.NewTripleCodec(n, 1, 2*n+2)
	if err != nil {
		t.Fatal(err)
	}
	f := shmem.NewNativeFactory()
	a := make([]shmem.Register, n)
	for i := range a {
		a[i] = f.NewRegister("A", codec.Bottom())
	}
	return codec, a
}

func TestNewValidation(t *testing.T) {
	codec, a := newEnv(t, 3)
	if _, err := New(-1, 3, codec, a); err == nil {
		t.Error("want error for negative pid")
	}
	if _, err := New(3, 3, codec, a); err == nil {
		t.Error("want error for pid == n")
	}
	if _, err := New(0, 3, codec, a[:2]); err == nil {
		t.Error("want error for short announce array")
	}
	small, err := shmem.NewTripleCodec(3, 1, 4) // 4 < 2n+2 = 8
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(0, 3, small, a); err == nil {
		t.Error("want error for too-small seq domain")
	}
	if _, err := New(0, 3, codec, a); err != nil {
		t.Errorf("valid New failed: %v", err)
	}
}

func TestNextStaysInDomain(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		codec, a := newEnv(t, n)
		p, err := New(0, n, codec, a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10*n+50; i++ {
			s := p.Next()
			if s < 0 || s >= 2*n+2 {
				t.Fatalf("n=%d: Next() = %d outside [0,%d)", n, s, 2*n+2)
			}
		}
	}
}

func TestNoReuseWithinWindow(t *testing.T) {
	// Claim 2: two returns of the same sequence number are separated by at
	// least n complete GetSeq calls.  Our ring gives n+1.
	for _, n := range []int{1, 2, 3, 5, 8} {
		codec, a := newEnv(t, n)
		p, err := New(0, n, codec, a)
		if err != nil {
			t.Fatal(err)
		}
		lastAt := make(map[int]int)
		for i := 0; i < 50*(n+1); i++ {
			s := p.Next()
			if prev, seen := lastAt[s]; seen {
				if gap := i - prev - 1; gap < n {
					t.Fatalf("n=%d: seq %d reused after only %d intervening calls", n, s, gap)
				}
			}
			lastAt[s] = i
		}
	}
}

func TestCursorRotates(t *testing.T) {
	n := 4
	codec, a := newEnv(t, n)
	p, err := New(1, n, codec, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*n; i++ {
		if got, want := p.Cursor(), i%n; got != want {
			t.Fatalf("call %d: cursor = %d, want %d", i, got, want)
		}
		p.Next()
	}
}

func TestAnnouncedSeqAvoided(t *testing.T) {
	// Once a scan observes A[q] = (pid, s), Next must not return s until a
	// later scan of A[q] sees a different announcement.
	n := 3
	codec, a := newEnv(t, n)
	const me = 0
	p, err := New(me, n, codec, a)
	if err != nil {
		t.Fatal(err)
	}

	const blocked = 5
	a[1].Write(1, codec.EncodePair(me, blocked))

	// Run enough calls for several full scans; blocked must never appear.
	for i := 0; i < 10*n; i++ {
		if s := p.Next(); s == blocked {
			// Only acceptable before the first scan of A[1] completes.
			if i >= 1 { // cursor 0 scanned at call 0, A[1] scanned at call 1
				t.Fatalf("call %d returned announced seq %d", i, blocked)
			}
		}
	}

	// Clear the announcement; after the next scan of A[1] the seq becomes
	// available again (once it also leaves the usedQ window).
	a[1].Write(1, codec.Bottom())
	seen := false
	for i := 0; i < 10*(n+1); i++ {
		if p.Next() == blocked {
			seen = true
			break
		}
	}
	if !seen {
		t.Error("seq never became available after announcement cleared")
	}
}

func TestAnnouncementsOfOthersIgnored(t *testing.T) {
	// Announcements naming a different writer must not block this picker.
	n := 2
	codec, a := newEnv(t, n)
	p, err := New(0, n, codec, a)
	if err != nil {
		t.Fatal(err)
	}
	a[0].Write(0, codec.EncodePair(1, 2)) // pid 1's pair
	a[1].Write(1, codec.EncodePair(1, 3))
	returned := make(map[int]bool)
	for i := 0; i < 4*(n+1); i++ {
		returned[p.Next()] = true
	}
	if !returned[2] || !returned[3] {
		t.Errorf("seqs announced for another pid were avoided: returned=%v", returned)
	}
}

func TestAllSeqValuesEventuallyUsed(t *testing.T) {
	// With no announcements, the picker cycles through the whole domain.
	n := 4
	codec, a := newEnv(t, n)
	p, err := New(2, n, codec, a)
	if err != nil {
		t.Fatal(err)
	}
	returned := make(map[int]bool)
	for i := 0; i < 10*(2*n+2); i++ {
		returned[p.Next()] = true
	}
	if len(returned) != 2*n+2 {
		t.Errorf("used %d distinct seqs, want %d", len(returned), 2*n+2)
	}
}

// genRecount recomputes the forbidden multiset from na and used into marks,
// reusing the scratch across calls via a generation counter instead of a
// full clear (the slow-path technique: one int bump replaces an O(domain)
// reset).  Returns the per-seq counts for the current generation.
type genRecount struct {
	gen   uint64
	stamp []uint64
	count []int32
}

func newGenRecount(seqVals int) *genRecount {
	return &genRecount{stamp: make([]uint64, seqVals), count: make([]int32, seqVals)}
}

func (g *genRecount) at(s int) int32 {
	if g.stamp[s] != g.gen {
		return 0
	}
	return g.count[s]
}

func (g *genRecount) add(s int) {
	if g.stamp[s] != g.gen {
		g.stamp[s] = g.gen
		g.count[s] = 0
	}
	g.count[s]++
}

func (g *genRecount) recount(p *Picker) {
	g.gen++
	for _, s := range p.na {
		if s >= 0 {
			g.add(s)
		}
	}
	for _, s := range p.used {
		if s >= 0 {
			g.add(s)
		}
	}
}

func TestIncrementalForbiddenMatchesRecount(t *testing.T) {
	// The incremental refcounts must agree, after every Next, with a from-
	// scratch recount of na ∪ usedQ, under announcements that appear, move,
	// and vanish; and every unblocked number must sit in the candidate ring.
	n := 4
	codec, a := newEnv(t, n)
	const me = 1
	p, err := New(me, n, codec, a)
	if err != nil {
		t.Fatal(err)
	}
	rec := newGenRecount(codec.SeqVals())
	rng := uint32(0x1234567)
	for i := 0; i < 40*(2*n+2); i++ {
		// Churn one announce slot pseudo-randomly: ours, another pid's, or ⊥.
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		q := int(rng) & (n - 1)
		switch (rng >> 8) % 3 {
		case 0:
			a[q].Write(q, codec.EncodePair(me, int((rng>>10))%codec.SeqVals()))
		case 1:
			a[q].Write(q, codec.EncodePair((me+1)%n, int((rng>>10))%codec.SeqVals()))
		case 2:
			a[q].Write(q, codec.Bottom())
		}

		s := p.Next()
		rec.recount(p)
		for v := 0; v < codec.SeqVals(); v++ {
			if p.refcnt[v] != rec.at(v) {
				t.Fatalf("call %d: refcnt[%d] = %d, recount = %d", i, v, p.refcnt[v], rec.at(v))
			}
			if p.refcnt[v] == 0 && !p.inFree[v] {
				t.Fatalf("call %d: free seq %d missing from candidate ring", i, v)
			}
		}
		// The returned number was forbidden by nothing but its own fresh
		// usedQ slot, and never by a scanned announcement of our pid.
		for _, nas := range p.na {
			if nas == s {
				t.Fatalf("call %d: returned seq %d is na-blocked", i, s)
			}
		}
	}
}

func TestDomainNeverExhausted(t *testing.T) {
	// Even with every announce slot blocking a distinct seq for this pid,
	// Next always finds a value (domain 2n+2 > n + n+1).
	n := 5
	codec, a := newEnv(t, n)
	p, err := New(0, n, codec, a)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < n; q++ {
		a[q].Write(q, codec.EncodePair(0, q)) // block seqs 0..n-1
	}
	for i := 0; i < 5*(2*n+2); i++ {
		s := p.Next()
		if i >= n && s < n {
			// After one full scan all announced seqs are known-blocked.
			t.Fatalf("call %d returned blocked seq %d", i, s)
		}
	}
}
