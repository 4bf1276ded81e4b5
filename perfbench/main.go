// Command perfbench is the repository benchmark. It runs one workload
// (fleet, offline or serve) through the public APIs of the sage packages,
// checks the outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// wrappers installed. With -trace 1 the run alternates untraced and traced
// work: the traced part wraps the interfaces the packages already accept
// (rollout.Controller/BatchFlusher, tcp.CongestionControl,
// serve.ShadowObserver, serve.TraceSink) and records one span per call,
// and the metrics are the per-layer set. BENCHMARK.json at the repository
// root lists both sets; WORKLOADS.md explains each workload.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// opts is what every workload receives: the command-line seed, the
// measuring budget, whether this is the traced run, and the size preset.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
	tiny    bool   // smoke-test sizes
	outDir  string // where span files go
	dir     string // this run's scratch directory, removed when it ends
}

// metric is one reported number. n is the sample count behind a median or
// percentile (0 for a plain count or total).
type metric struct {
	value float64
	unit  string
	n     int
}

// report is one workload run's outcome.
type report struct {
	attempted int64
	failed    int64
	problems  []string // failed correctness checks, one line each
	digest    string   // hash of simulated outcomes (fleet, offline)
	e2e       map[string]metric
	layer     map[string]metric
	// notes are informational lines printed before the result: the
	// workload-specific names of the shared end-to-end metrics, phase splits.
	notes []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records n failed operations (or one failed check, n = 1) under one
// explanatory line.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(opts) (*report, error){
	"fleet":   runFleet,
	"offline": runOffline,
	"serve":   runServe,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: fleet, offline or serve")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 30, "measuring budget in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		outDir  = flag.String("out", ".bench_build", "directory for span files and scratch state")
	)
	flag.Parse()
	work, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload fleet|offline|serve, -seconds > 0, -trace 0|1")
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	fmt.Fprintf(os.Stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d %s\n",
		*name, *seed, *seconds, *trace, stamp())
	rep, err := runWorkload(work, o)
	if err == nil {
		err = writeReport(os.Stdout, *name, o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in a fresh scratch directory under
// o.outDir and completes its metric set.
func runWorkload(work func(opts) (*report, error), o opts) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	rep, err := work(o)
	if err != nil {
		return nil, err
	}
	return rep, rep.complete()
}

// writeReport prints the human-readable lines and then the one-line JSON
// result. Every metric line reads "metric <name> <value> <unit> n=<n>".
func writeReport(w io.Writer, workload string, o opts, rep *report) error {
	for _, p := range rep.problems {
		fmt.Fprintf(w, "check FAILED: %s\n", p)
	}
	if rep.digest != "" {
		fmt.Fprintf(w, "digest %s seed=%d %s\n", workload, o.seed, rep.digest)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	set := rep.e2e
	if o.trace {
		set = rep.layer
		if m, ok := set["trace.overhead"]; ok {
			fmt.Fprintf(w, "trace.overhead %.4f %s\n", m.value, m.unit)
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]jsonMetric, len(set))
	for _, k := range names {
		m := set[k]
		fmt.Fprintf(w, "metric %s %s %s n=%d\n", k, strconv.FormatFloat(m.value, 'f', -1, 64), m.unit, m.n)
		out[k] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(rep.problems) == 0, attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
