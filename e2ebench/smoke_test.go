package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchSpec(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
}

// TestSmoke runs every workload once at the smallest size, untraced and
// traced, and checks that the correctness gate passes and that exactly
// the metrics BENCHMARK.json names are emitted, each with its unit.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloadNames() {
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "7", "--seconds", "0.3", "--size", "smoke",
					"--trace", fmt.Sprint(trace), "--workdir", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int               `json:"attempted"`
					Failed    int               `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

func TestDeriveSeedIsFixedAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := deriveSeed(42, "cold", i)
		if s <= 0 || seen[s] {
			t.Fatalf("seed %d for repetition %d is not positive and fresh", s, i)
		}
		if s != deriveSeed(42, "cold", i) {
			t.Fatal("deriveSeed is not a function of its arguments")
		}
		seen[s] = true
	}
}

func TestParsePromSumsLabelledSeries(t *testing.T) {
	page := "# HELP x y\nrescqd_store_appends_total{codec=\"binary\"} 5\nrescqd_store_appends_total{codec=\"json\"} 2\nrescqd_cache_hits_total 9\n"
	got := parseProm([]byte(page))
	if got["rescqd_store_appends_total"] != 7 || got["rescqd_cache_hits_total"] != 9 {
		t.Fatalf("parseProm = %v", got)
	}
}
