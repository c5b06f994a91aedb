package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/btsim"
)

// TestMetricsMatchBenchmarkJSON checks that the metric names and units
// the program prints are exactly the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []declared, got map[string]metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(want), len(got))
		}
		for _, d := range want {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s metric %s: declared unit %q, printed %+v (present %v)", kind, d.Name, d.Unit, m, ok)
			}
		}
	}
	r := &rep{layers: map[string]float64{}}
	check("end_to_end", bench.EndToEnd, endToEnd([]*rep{r}))
	check("per_layer", bench.PerLayer, layerMetrics([]*rep{r}, []*rep{r}))

	known := map[string]bool{}
	for _, w := range workloads {
		known[w.name] = true
	}
	for _, w := range bench.Workloads {
		if !known[w.Name] {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// TestLiveSystemRegistered checks that the benchmark links the system
// registry the live-tcp workload runs through.
func TestLiveSystemRegistered(t *testing.T) {
	if _, ok := btsim.Lookup("bitcoin"); !ok {
		t.Fatal(`system "bitcoin" is not registered`)
	}
}
