package shmem

import (
	"errors"
	"sync"
	"testing"
)

func TestSpineBasic(t *testing.T) {
	s, err := NewSpine(5, 5, func(i int) (int, error) { return i * 10, nil })
	if err != nil {
		t.Fatalf("NewSpine: %v", err)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	for i := 0; i < 5; i++ {
		if got := s.Get(i); got != i*10 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i*10)
		}
	}
}

func TestSpineGrowGeometric(t *testing.T) {
	s, err := NewSpine(3, 100, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("NewSpine: %v", err)
	}
	// Grow through several doublings; every element must stay addressable
	// and correct after each step (old segments never move).
	for _, target := range []int{4, 6, 12, 24, 100} {
		if n, err := s.Grow(target, func(i int) (int, error) { return i, nil }); err != nil || n != target {
			t.Fatalf("Grow(%d) = %d, %v", target, n, err)
		}
		for i := 0; i < target; i++ {
			if got := s.Get(i); got != i {
				t.Fatalf("after Grow(%d): Get(%d) = %d", target, i, got)
			}
		}
	}
	// Shrinking or same-length grows are no-ops.
	if n, err := s.Grow(10, nil); err != nil || n != 100 {
		t.Fatalf("no-op Grow = %d, %v; want 100, nil", n, err)
	}
}

func TestSpineGrowPastMaxLen(t *testing.T) {
	s, err := NewSpine(3, 12, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("NewSpine: %v", err)
	}
	if n, err := s.Grow(12, func(i int) (int, error) { return i, nil }); err != nil || n != 12 {
		t.Fatalf("Grow to the maximum = %d, %v", n, err)
	}
	if n, err := s.Grow(13, func(i int) (int, error) { return i, nil }); err == nil || n != 12 {
		t.Fatalf("Grow past the maximum = %d, %v; want 12 and an error", n, err)
	}
}

func TestSpineGrowBuildError(t *testing.T) {
	s, err := NewSpine(2, 8, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("NewSpine: %v", err)
	}
	boom := errors.New("boom")
	n, err := s.Grow(8, func(i int) (int, error) {
		if i == 5 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || n != 5 {
		t.Fatalf("Grow with failing build = %d, %v; want 5, boom", n, err)
	}
	if s.Len() != 5 {
		t.Fatalf("Len after failed grow = %d, want 5", s.Len())
	}
	for i := 0; i < 5; i++ {
		if got := s.Get(i); got != i {
			t.Fatalf("Get(%d) = %d after failed grow", i, got)
		}
	}
	// A later grow resumes from the published length.
	if n, err := s.Grow(8, func(i int) (int, error) { return i, nil }); err != nil || n != 8 {
		t.Fatalf("resumed Grow = %d, %v", n, err)
	}
	for i := 0; i < 8; i++ {
		if got := s.Get(i); got != i {
			t.Fatalf("Get(%d) = %d after resumed grow", i, got)
		}
	}
}

func TestSpineConcurrentReadersDuringGrow(t *testing.T) {
	s, err := NewSpine(4, 1<<12, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("NewSpine: %v", err)
	}
	const target = 1 << 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := s.Len()
				for i := 0; i < n; i++ {
					if got := s.Get(i); got != i {
						t.Errorf("Get(%d) = %d during grow", i, got)
						return
					}
				}
			}
		}()
	}
	for n := 8; n <= target; n *= 2 {
		if _, err := s.Grow(n, func(i int) (int, error) { return i, nil }); err != nil {
			t.Errorf("Grow(%d): %v", n, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if s.Len() != target {
		t.Fatalf("final Len = %d, want %d", s.Len(), target)
	}
}
