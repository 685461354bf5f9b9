package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json states each workload's load constants in its why line;
// they must be the ones the benchmark runs.
func TestBenchmarkJSONStatesWorkloadConstants(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, want := range []string{fmt.Sprintf("W=%d", w.window), fmt.Sprintf("%d frames/s", int(w.lightPps))} {
			if !strings.Contains(sw.Why, want) {
				t.Errorf("%s: why %q does not state %q", sw.Name, sw.Why, want)
			}
		}
	}
}
