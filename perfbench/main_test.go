package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runOnce runs a short configuration and decodes its result line.
func runOnce(t *testing.T, cfg config) (int, result) {
	t.Helper()
	cfg.outDir = t.TempDir()
	var stdout, stderr bytes.Buffer
	code := runConfig(cfg, &stdout, &stderr)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("%s run stderr:\n%s", cfg.workload, stderr.String())
		}
	})
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v\nstderr:\n%s", lines[len(lines)-1], err, stderr.String())
	}
	return code, res
}

// TestOracleIsNotVacuous corrupts one bit of one reference output and
// checks that the operations on that input are reported as failed and
// that the command exits non-zero, while the same run without the
// corruption passes.
func TestOracleIsNotVacuous(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	cfg := config{workload: "apply-small", seed: 7, seconds: 0.4, minOps: 130}
	code, res := runOnce(t, cfg)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("clean run: exit %d, correct %v, failed %d of %d", code, res.Correct, res.Failed, res.Attempted)
	}
	cfg.corruptRef = true
	code, bad := runOnce(t, cfg)
	if code == 0 || bad.Correct {
		t.Fatalf("corrupted reference: exit %d, correct %v; want a non-zero exit", code, bad.Correct)
	}
	if frac := float64(bad.Failed) / float64(bad.Attempted); bad.Failed == 0 || !(frac > 0) {
		t.Fatalf("corrupted reference: failed %d of %d; want failed_frac > 0", bad.Failed, bad.Attempted)
	}
}

// TestTracedRunReportsEveryPerLayerMetric runs the cheaper workload
// traced and checks that it reports exactly the per-layer metrics.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the probes")
	}
	code, res := runOnce(t, config{workload: "apply-small", seed: 3, seconds: 0.5, trace: true})
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, correct %v", code, res.Correct)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

// TestRegistryMatchesBenchmarkJSON checks that BENCHMARK.json and
// rationale.json name the workloads and metrics this program reports.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	type metric struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", w.Name)
		}
	}

	var rat struct {
		PerLayer []struct {
			Name   string
			Moves  []string
			Bypass []string
		} `json:"per_layer"`
	}
	readJSON(t, "rationale.json", &rat)
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	if len(rat.PerLayer) != len(perLayer) {
		t.Fatalf("rationale.json covers %d metrics, want %d", len(rat.PerLayer), len(perLayer))
	}
	for i, r := range rat.PerLayer {
		if r.Name != perLayer[i].name {
			t.Errorf("rationale.json[%d] is %s, want %s", i, r.Name, perLayer[i].name)
		}
		for _, m := range r.Moves {
			name, wl, ok := strings.Cut(m, "@")
			if _, known := workloads[wl]; !ok || !e2e[name] || !known {
				t.Errorf("rationale.json %s: bad prediction %q", r.Name, m)
			}
		}
		for _, wl := range r.Bypass {
			if _, known := workloads[wl]; !known {
				t.Errorf("rationale.json %s: unknown bypass workload %q", r.Name, wl)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestQuantileLeavesTenBeyondP99 pins the nearest-rank definition the
// tail metrics rely on.
func TestQuantileLeavesTenBeyondP99(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	p99 := quantile(xs, 0.99)
	beyond := 0
	for _, x := range xs {
		if x > p99 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("p99 of 1000 samples has %d samples beyond it, want 10", beyond)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}
