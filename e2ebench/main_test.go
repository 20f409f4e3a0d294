package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkSpec keeps BENCHMARK.json in step with the workloads the
// driver runs and the metrics it prints.
func TestBenchmarkSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var declared, printed []string
	for _, m := range spec.EndToEnd {
		declared = append(declared, m.Name+" "+m.Unit+" end_to_end")
	}
	for _, m := range spec.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit+" per_layer")
	}
	for _, d := range metricDefs {
		kind := "end_to_end"
		if d.layer {
			kind = "per_layer"
		}
		printed = append(printed, d.name+" "+d.unit+" "+kind)
	}
	if !slices.Equal(declared, printed) {
		t.Errorf("BENCHMARK.json declares\n%v\nthe driver prints\n%v", declared, printed)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, driver workloads %v", names, workloadNames())
	}
}
