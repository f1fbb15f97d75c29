package main

import (
	"math"
	"path/filepath"
	"testing"
)

// TestSmoke runs all four workloads at 1/20 scale — one untraced and one
// traced pass each — inside `go test ./...`, so BENCHMARK.json, the driver
// and the program's public API cannot drift apart silently: every workload
// and metric the manifest names must be emitted, finite, under the manifest's
// unit, and every output check (pass-to-pass digest equality, per-round
// worker budgets, no stranded job, replay fingerprints, goroutines returned)
// must hold.
func TestSmoke(t *testing.T) {
	man, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	pinEnvironment()

	units := func(ms []manifestMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	wantE2E, wantLayer := units(man.EndToEnd), units(man.PerLayer)
	if len(wantE2E) != len(endToEnd) || len(wantLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d end-to-end and %d per-layer metrics, the driver emits %d and %d",
			len(wantE2E), len(wantLayer), len(endToEnd), len(perLayer))
	}
	if len(man.Workloads) != len(workloadDefs) {
		t.Fatalf("manifest lists %d workloads, the driver has %d", len(man.Workloads), len(workloadDefs))
	}

	for i, def := range workloadDefs {
		if man.Workloads[i].Name != def.name {
			t.Fatalf("manifest workload %d is %q, the driver's is %q", i, man.Workloads[i].Name, def.name)
		}
		t.Run(def.name, func(t *testing.T) {
			rep, err := runWorkload(def, runOpts{seed: 7, passes: 2, scale: 0.05, traced: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.failures {
				t.Errorf("failed operation: %s", f)
			}
			check := func(kind string, defs []metricDef, got map[string]float64, want map[string]string) {
				for _, d := range defs {
					v, ok := got[d.name]
					switch unit, listed := want[d.name]; {
					case !listed:
						t.Errorf("%s metric %s is not in BENCHMARK.json", kind, d.name)
					case unit != d.unit:
						t.Errorf("%s metric %s: unit %q, BENCHMARK.json says %q", kind, d.name, d.unit, unit)
					case !ok || math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("%s metric %s not emitted with a finite value (%v)", kind, d.name, v)
					}
				}
			}
			check("end-to-end", endToEnd, rep.e2e, wantE2E)
			check("per-layer", perLayer, rep.layer, wantLayer)
			for _, d := range endToEnd {
				if rep.e2e[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive", d.name, rep.e2e[d.name])
				}
			}
		})
	}
}
