package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json must list exactly the metrics the benchmark prints,
// with the units, directions and bounds defined here.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark defines %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark defines %+v", i, m, d)
		}
	}
	want := []string{probeRead, auditCold, ingestReplicated}
	if len(spec.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %v", len(spec.Workloads), want)
	}
	for i, w := range spec.Workloads {
		if w.Name != want[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, want[i])
		}
	}
}
