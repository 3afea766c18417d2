package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON pins the metric tables and the
// workload list to BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, table []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(table) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(table))
		}
		for i, m := range table {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Fatalf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", e2eMetrics, b.EndToEnd)
	check("per_layer", layerMetrics, b.PerLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}
