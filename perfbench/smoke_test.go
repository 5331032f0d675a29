package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runSmoke runs all workloads at smoke size and decodes the JSON line.
func runSmoke(t *testing.T, trace string) resultJSON {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "all", "--smoke", "--seconds", "0.3", "--seed", "7", "--trace", trace}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%t failed=%d attempted=%d\nstderr:\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	return res
}

func TestSmokeEndToEnd(t *testing.T) {
	res := runSmoke(t, "0")
	for _, w := range workloads {
		for _, d := range endToEnd {
			m, ok := res.Metrics[w.name+"/"+d.name]
			if !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s/%s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
			}
		}
	}
}

func TestSmokePerLayer(t *testing.T) {
	res := runSmoke(t, "1")
	for _, w := range workloads {
		for _, d := range perLayer {
			if m, ok := res.Metrics[w.name+"/"+d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s/%s = %+v, want a value in %s", w.name, d.name, m, d.unit)
			}
		}
	}
	for _, name := range []string{"colexec.preview_queries", "colexec.preview_ms", "colexec.preview_rows"} {
		if v := res.Metrics["lowres-sql/"+name].Value; v != 0 {
			t.Errorf("lowres-sql/%s = %v, want 0: the workload runs without previews", name, v)
		}
		if v := res.Metrics["paper-previews/"+name].Value; v <= 0 {
			t.Errorf("paper-previews/%s = %v, want > 0", name, v)
		}
	}
	for _, name := range []string{"session.cache_hit_frac", "server.round_ms", "serve.admitted"} {
		if v := res.Metrics["served-sessions/"+name].Value; v <= 0 {
			t.Errorf("served-sessions/%s = %v, want > 0", name, v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
