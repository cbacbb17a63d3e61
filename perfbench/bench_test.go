package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"klocal/internal/route"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// TestShortRunsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks that each emits every metric BENCHMARK.json names,
// with its unit, and that every walk was correct.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	root := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			res, err := run(w, options{workload: w.name, seed: 3, seconds: 1, trace: traced, root: root}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v (present %t), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestBrokenAlgorithmTripsCheck binds route.Algorithm2Broken, which
// loops on some cycle pairs, on engine-walk: the walk check must fail
// the run.
func TestBrokenAlgorithmTripsCheck(t *testing.T) {
	w, _ := workloadByName("engine-walk")
	res, err := run(w, options{workload: w.name, seed: 1, seconds: 1, root: t.TempDir(), alg: route.Algorithm2Broken()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("Algorithm2Broken passed the check: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	t.Logf("Algorithm2Broken: %d of %d walks failed", res.Failed, res.Attempted)
}
