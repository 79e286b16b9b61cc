package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSelfTest runs every workload on short traces, once untraced and once
// traced, and checks each run is correct and reports exactly the metrics
// BENCHMARK.json declares, finite and in their declared units.
func TestSelfTest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	microBenchtime = "1x"
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOptions{workload: w.name, seed: 1, seconds: 1e-3, cap: selfTestCap}
			r, err := measure(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, bf.EndToEnd)
			o.trace = true
			r, err = traced(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, bf.PerLayer)
			if other := r.Metrics["cpu.other"].Value; other > 10 {
				t.Errorf("CPU attribution leaves %.1f%% of samples unattributed, want at most 10%%", other)
			}
		})
	}
}

func checkResult(t *testing.T, r *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("run not correct: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
		}
		got, ok := r.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v, want finite", m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json declares %q", m.Name, got.Unit, m.Unit)
		}
	}
}
