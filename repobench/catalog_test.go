package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps the metric lists the program
// prints in step with the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code knows %v", names, workloadNames)
	}
}

func TestReseedKeepsCommittedSeed(t *testing.T) {
	base := suiteWorkloads(committedSeed)
	other := suiteWorkloads(committedSeed + 1)
	again := suiteWorkloads(committedSeed + 1)
	for i := range base {
		if base[i].Params.Seed == other[i].Params.Seed {
			t.Fatalf("%s: seed %d did not reseed the trace", base[i].Name, committedSeed+1)
		}
		if other[i].Params != again[i].Params {
			t.Fatalf("%s: reseeding is not deterministic", base[i].Name)
		}
	}
	if frontierSpec(7).Seed != 7 {
		t.Fatal("the seed must reseed the sampling spec")
	}
}
