package shmem

import (
	"sync"
	"testing"
	"unsafe"
)

func TestStripesShape(t *testing.T) {
	n := stripeCount
	if n < 1 || n&(n-1) != 0 {
		t.Fatalf("stripeCount = %d, want a positive power of two", n)
	}
	if n > 16 {
		t.Fatalf("stripeCount = %d, want the cap at 16", n)
	}
	if got := StripeFor(-1); got != 0 {
		t.Fatalf("StripeFor(-1) = %d, want the observer on stripe 0", got)
	}
	for pid := 0; pid < 64; pid++ {
		if s := StripeFor(pid); s < 0 || s >= n {
			t.Fatalf("StripeFor(%d) = %d out of [0,%d)", pid, s, n)
		}
	}
}

func TestStripedLanePadding(t *testing.T) {
	if sz := unsafe.Sizeof(stripedLane{}); sz != cacheLineBytes {
		t.Fatalf("stripedLane is %d bytes, want one full cache line (%d)", sz, cacheLineBytes)
	}
}

func TestStripedCounterSums(t *testing.T) {
	c := NewStripedCounter()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for pid := 0; pid < workers; pid++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(stripe, 1)
			}
		}(StripeFor(pid))
	}
	wg.Wait()
	c.Add(StripeFor(-1), 5)
	if got := c.Load(); got != workers*per+5 {
		t.Fatalf("Load() = %d, want %d", got, workers*per+5)
	}
}
