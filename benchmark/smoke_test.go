package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload at 1/1000 of its op counts, measured and
// traced, and checks that the oracle passes and that every metric
// BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	start := time.Now()
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, config{seed: 1, traced: traced, scale: 0.001})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res.print(&out, w)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d, problems %q", w.name, traced, last.Correct, last.Failed, last.Attempted, res.Problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 10s", d)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--trace", "2"},
		{"--seconds", "-1"},
		{"stray"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%q) printed a result", args)
		}
	}
}
