package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared is the metric list of BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// smoke runs one workload at its tiny size and returns its output lines
// and the parsed result line.
func smoke(t *testing.T, name string, seed int64, trace bool) ([]string, result) {
	t.Helper()
	o := opts{seed: seed, seconds: 0.2, trace: trace, tiny: true, outDir: t.TempDir()}
	rep, err := runWorkload(workloads[name], o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := writeReport(&buf, name, o, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	return lines, res
}

// Every workload prints every metric BENCHMARK.json declares for its mode,
// on a metric line and in the result, with the declared unit, and its
// correctness checks pass.
func TestEveryDeclaredMetricIsPrinted(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			lines, res := smoke(t, w.Name, 1, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, strings.Join(lines, "\n"))
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			out := strings.Join(lines, "\n")
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out, "\nmetric "+m.Name+" ") {
					t.Errorf("%s trace=%v: no metric line for %s", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// The seed argument reaches the generated inputs: each workload prints its
// inputs, and they differ between two seeds.
func TestSeedChangesInputs(t *testing.T) {
	inputs := func(lines []string) string {
		var in []string
		for _, l := range lines {
			if strings.HasPrefix(l, "inputs ") {
				in = append(in, l)
			}
		}
		return strings.Join(in, "\n")
	}
	for name := range workloads {
		a, _ := smoke(t, name, 1, false)
		b, _ := smoke(t, name, 2, false)
		if ia, ib := inputs(a), inputs(b); ia == "" || ia == ib {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs:\n%s", name, ia)
		}
	}
}
