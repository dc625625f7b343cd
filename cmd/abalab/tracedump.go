package main

import (
	"fmt"
	"io"

	"abadetect/internal/apps"
	"abadetect/internal/kv"
	"abadetect/internal/trace"
)

// This file is abalab's -trace-dump mode: run a deterministic §1 corruption
// scenario under the vulnerable raw+none configuration and pretty-print the
// incident flight record — the armed load, the recycle, and the corrupting
// commit, one event per line in happens-before order.

// traceDumpScenarios indexes the deterministic scripts by the -trace-dump
// argument.
var traceDumpScenarios = []struct {
	id, summary string
	run         func() (apps.ScenarioResult, error)
}{
	{"stack", "Treiber stack: pop armed, 3 pops + 1 push recycle the head node", func() (apps.ScenarioResult, error) {
		return apps.StackABAScenario(apps.Raw, 0)
	}},
	{"queue", "Michael–Scott queue: deq armed, drain + re-enqueue restores the head index", func() (apps.ScenarioResult, error) {
		return apps.QueueABAScenario(apps.Raw, 0)
	}},
	{"map", "split-list map: delete armed, help-unlink + recycle restores the bucket head", func() (apps.ScenarioResult, error) {
		return kv.MapABAScenario(apps.Raw, 0)
	}},
	{"map-grow", "growing map: split armed, delete + recycle restores the link before the new dummy", func() (apps.ScenarioResult, error) {
		return kv.MapGrowABAScenario(apps.Raw, 0)
	}},
}

// runTraceDump runs the selected scenario(s) and prints each incident dump.
func runTraceDump(out io.Writer, which string) error {
	matched := false
	for _, sc := range traceDumpScenarios {
		if which != "all" && which != sc.id {
			continue
		}
		matched = true
		r, err := sc.run()
		if err != nil {
			return fmt.Errorf("%s scenario: %w", sc.id, err)
		}
		fmt.Fprintf(out, "%s (raw+none) — %s\n", sc.id, sc.summary)
		fmt.Fprintf(out, "  fooled=%v corrupt=%v starved=%v near-misses=%d\n", r.Fooled, r.Corrupt, r.Starved, r.Guard.NearMisses)
		if r.Corrupt {
			fmt.Fprintf(out, "  audit: %s\n", r.Detail)
		}
		fmt.Fprintln(out, "  incident flight record (pid 0 = adversary, pid 1 = victim):")
		fmt.Fprint(out, indent(trace.Format(r.Incident), "    "))
		fmt.Fprintln(out)
	}
	if !matched {
		return fmt.Errorf("unknown scenario %q (want stack, queue, map, map-grow, or all)", which)
	}
	return nil
}

// indent prefixes every non-empty line.
func indent(s, prefix string) string {
	var b []byte
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				b = append(b, prefix...)
				b = append(b, s[start:i]...)
			}
			if i < len(s) {
				b = append(b, '\n')
			}
			start = i + 1
		}
	}
	return string(b)
}
