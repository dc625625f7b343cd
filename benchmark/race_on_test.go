//go:build race

package main

// raceEnabled reports a -race build, whose instrumentation makes timings meaningless.
const raceEnabled = true
