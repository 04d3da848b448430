package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	slices.Sort(e2e)
	if !slices.Equal(e2e, endToEndMetrics) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEndMetrics)
	}
	layer := newProfile().layerMetrics()
	if len(bf.PerLayer) != len(layer) {
		t.Errorf("per_layer lists %d metrics, the program reports %d", len(bf.PerLayer), len(layer))
	}
	for _, m := range bf.PerLayer {
		if got, ok := layer[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per_layer %s (%s): program reports %+v (present %v)", m.Name, m.Unit, got, ok)
		}
	}
}

// TestEverySpanIsMapped runs every workload traced on small inputs and
// fails on any span name the layer table does not attribute.
func TestEverySpanIsMapped(t *testing.T) {
	small := map[string][]string{
		"tableI-exact":    {"s27", "bbara", "s208"},
		"large-aig-resyn": {"s27"},
		"prove-sweep":     {"s382"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: 1, seconds: time.Second, trace: true, workDir: t.TempDir(), rows: small[w.name]}
			out, err := w.run(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed > 0 {
				t.Errorf("%d failed checks: %v", out.failed, out.problems)
			}
			if len(out.unmapped) > 0 {
				t.Errorf("unmapped spans: %v", out.unmapped)
			}
			if _, ok := out.perLayer["trace.unattributed_share"]; !ok {
				t.Error("no trace.unattributed_share")
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 %v, want 5", q)
	}
	if g := geomean([]float64{2, 8, 0}); g != 4 {
		t.Errorf("geomean %v, want 4 (zeros skipped)", g)
	}
}
