package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// tinyConfig gives every measured window two seconds: long enough for
// the 5% pacing check to hold at the workloads' burst sizes.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	secs := 2.0
	if trace {
		secs = 4 // split between the untraced and the traced half
	}
	return config{workload: workload, seed: 3, seconds: secs, trace: trace, tiny: true, workdir: t.TempDir()}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Every workload, in tiny mode, converges and prints exactly the
// declared metrics: the end-to-end ones untraced, the per-layer ones
// traced.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := execute(tinyConfig(t, w, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			l := res
			if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, l.Correct, l.Attempted, l.Failed)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayerDefs)
			}
			got := keys(l.Metrics)
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: metrics %v, want %v", w, traced, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trace=%v: metrics %v, want %v", w, traced, got, want)
				}
			}
			if !traced {
				for name, m := range l.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
					}
				}
			}
		}
	}
}

// A replica changed behind the protocol's back must fail the run.
func TestDivergedReplicaTripsConvergenceGate(t *testing.T) {
	for w := range workloads {
		cfg := tinyConfig(t, w, false)
		cfg.diverge = true
		res, err := execute(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: diverged replica passed the gate (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this
// program runs and prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayerDefs)
}

func TestCoverageCountsOverlapOnce(t *testing.T) {
	ms := int64(time.Millisecond)
	parent := span{Start: 0, End: 10 * ms}
	kids := []span{
		{Start: 1 * ms, End: 3 * ms},
		{Start: 2 * ms, End: 4 * ms},
		{Start: 6 * ms, End: 12 * ms}, // clipped to the parent
	}
	if got, want := coverage(parent, kids), 7*time.Millisecond; got != want {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := quantile(v, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(v, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
}
