package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloadNames []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// result is the last line a run prints.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// tiny runs a workload at smoke-test size and parses its result line.
func tiny(t *testing.T, workload string, trace bool, corrupt string) result {
	t.Helper()
	opts := options{workload: workload, seed: 3, seconds: 0.2, trace: trace, minSteps: 2, setupReps: 2, segment: 3, corrupt: corrupt}
	b, err := runWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := b.report(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return r
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			r := tiny(t, name, trace, "")
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(r.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := r.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, n)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, n, m.Unit, unit)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, n)
				}
			}
		}
	}
}

func TestCorruptFingerprintFailsTheRun(t *testing.T) {
	for _, c := range []struct{ workload, corrupt string }{
		{"sim-suite", "digest"},
		{"dp2-tinycnn-inproc", "crc"},
	} {
		r := tiny(t, c.workload, false, c.corrupt)
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s with a corrupted %s: correct=%v failed=%d, want a failed run", c.workload, c.corrupt, r.Correct, r.Failed)
		}
	}
}
