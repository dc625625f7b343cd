package main

import _ "unsafe" // for go:linkname

// nanotime reads the runtime's monotonic clock in one vDSO call; time.Now
// reads the wall clock as well.  Every latency sample and layer span pays a
// read at each end, so the cheaper read keeps the benchmark's own cost small
// next to a sub-microsecond operation.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64
