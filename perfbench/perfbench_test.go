package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for the timed (end_to_end) and traced (per_layer) passes.
func benchmarkMetrics(t *testing.T) (timed, traced map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	want := workloadNames()
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
		}
	}
	timed, traced = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		timed[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		traced[m.Name] = m.Unit
	}
	return timed, traced
}

// runTiny runs one workload at the tiny size in a scratch directory and
// returns its exit code and decoded result line.
func runTiny(t *testing.T, args ...string) (int, result) {
	t.Helper()
	t.Chdir(t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"--size", "tiny", "--seconds", "1"}, args...), &stdout, &stderr)
	var res result
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		t.Fatalf("%v: no result line (%v); stderr:\n%s", args, err, stderr.String())
	}
	return code, res
}

// TestEveryMetricPrints runs every workload in both passes and checks
// that exactly the metrics BENCHMARK.json names are printed, each with
// its unit, and that no operation failed.
func TestEveryMetricPrints(t *testing.T) {
	timed, traced := benchmarkMetrics(t)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				code, res := runTiny(t, "--workload", w, "--trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
				}
				want := timed
				if trace == "1" {
					want = traced
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if m.Unit != unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestWrongPinIsAFailure checks that a digest mismatch is reported as a
// failed operation, not dropped.
func TestWrongPinIsAFailure(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		code, res := runTiny(t, "--workload", "sim-step-n1e5", "--trace", trace, "--corrupt-pin")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("trace=%s: exit %d, correct %v, %d of %d failed; want a failure", trace, code, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestSameSeedSameWork checks that the workload seed only rotates the
// pinned seed list.
func TestSameSeedSameWork(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	a, b := rotation(seeds, 6), rotation(seeds, 2)
	if len(a) != len(seeds) || a[0] != 3 || a[3] != 2 {
		t.Fatalf("rotation(…, 6) = %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeds 6 and 2 rotate differently: %v vs %v", a, b)
		}
	}
}
