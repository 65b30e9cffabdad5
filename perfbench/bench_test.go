package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTinyRunsPassTheGate runs every workload at tiny size, traced, so the
// correctness gate, the metrics cross-check, span reconciliation, and the
// replay all run, and checks that every declared metric is reported.
func TestTinyRunsPassTheGate(t *testing.T) {
	decl := declaredMetrics(t)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			name := wl + "/untraced"
			if traced {
				name = wl + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{Workload: wl, Seed: 3, Seconds: 0.4, Trace: traced, Sizes: tinySizes, Dir: t.TempDir(), Log: io.Discard}
				res, rep, err := bench(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || len(rep.Mismatches) > 0 {
					t.Fatalf("gate failed: %+v, mismatches %v", res, rep.Mismatches)
				}
				if res.Attempted == 0 || rep.Jobs.N == 0 || rep.Batches.N == 0 {
					t.Fatalf("nothing measured: %+v / jobs %+v batches %+v", res, rep.Jobs, rep.Batches)
				}
				want := decl["end_to_end"]
				if traced {
					want = decl["per_layer"]
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %q", name, m, unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, declared %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// declaredMetrics reads BENCHMARK.json's metric names and units.
func declaredMetrics(t *testing.T) map[string]map[string]string {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl map[string]json.RawMessage
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]string{}
	for _, key := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name, Unit string }
		if err := json.Unmarshal(decl[key], &ms); err != nil {
			t.Fatal(err)
		}
		out[key] = map[string]string{}
		for _, m := range ms {
			out[key][m.Name] = m.Unit
		}
	}
	return out
}

func TestEveryLayerMetricNamesItsTarget(t *testing.T) {
	layers := declaredMetrics(t)["per_layer"]
	for name := range layers {
		if layerTargets[name] == "" {
			t.Errorf("per-layer metric %s has no end-to-end target", name)
		}
	}
	if len(layerTargets) != len(layers) {
		t.Errorf("%d targets for %d per-layer metrics", len(layerTargets), len(layers))
	}
}

func TestUnknownWorkloadFailsWithoutAResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "nope", "--seconds", "1"}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Fatalf("code %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
