// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the public functions of the internal packages and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced.
// With -trace 1 they are the per-layer set: the workload runs again with
// spans recorded around every call the benchmark makes into a layer, and
// outside-in probes time each layer through its own public functions.
// The spans are written as Chrome trace_event JSON under the output
// directory, next to a record that carries the host provenance and every
// metric with its sample count.
//
// Any oracle or exact-count violation marks the run incorrect and makes
// the command exit non-zero. See README.md for the workloads, the metric
// definitions and the prediction each per-layer metric carries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's metric registry; BENCHMARK.json must list the same
// names and units (checked by TestRegistryMatchesBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"time_to_solution_s", "s"},
	{"max_rate_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"partition.build_ms", "ms"},
	{"schedule.build_ms", "ms"},
	{"schedule.steps", "count"},
	{"parallel.pack_ms", "ms"},
	{"parallel.pack_words", "words"},
	{"parallel.open_ms", "ms"},
	{"sttsv.rank_max_ms", "ms"},
	{"sttsv.rank_sum_ms", "ms"},
	{"sttsv.imbalance", "ratio"},
	{"sttsv.ns_per_ternary", "ns"},
	{"sttsv.ternary", "count"},
	{"sttsv.bytes", "bytes"},
	{"machine.exchange_ms", "ms"},
	{"machine.step_us", "us"},
	{"machine.barrier_us", "us"},
	{"machine.dispatch_us", "us"},
	{"machine.msgs", "count"},
	{"machine.words", "words"},
	{"collective.allreduce_us", "us"},
	{"parallel.sent_words_max", "words"},
	{"parallel.sent_msgs_max", "count"},
	{"parallel.iterations", "count"},
	{"parallel.iter_ms", "ms"},
	{"parallel.unexplained_frac", "ratio"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.service_p50_ms", "ms"},
	{"serve.service_p99_ms", "ms"},
	{"serve.batch_cols_mean", "count"},
	{"serve.wait_flush_frac", "ratio"},
	{"serve.msgs_per_req", "count"},
	{"serve.rejected", "count"},
	{"netwire.wire_words_ratio", "ratio"},
	{"netwire.apply_over_sim", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench){
	"apply-small": runApply,
	"power-large": runPower,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// minOps is the least number of operations a closed-loop timing
	// window completes, so that its p99 has ten samples beyond it.
	minOps int
	// corruptRef flips one bit of one oracle reference after set-up. Only
	// the benchmark's own test sets it, to show the oracle is not vacuous.
	corruptRef bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{minOps: 1000}
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files and run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	cfg.trace = *traceFlag == 1
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs one configured workload, prints the result line, and
// returns the exit code: 0 when every check passed.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	res, ok := execute(cfg, stderr)
	if res == nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and assembles its result. It returns nil
// when the run could not produce one (bad arguments, missing sources);
// ok is false when any correctness check failed.
func execute(cfg config, log io.Writer) (res *result, ok bool) {
	drive, found := workloads[cfg.workload]
	if !found {
		fmt.Fprintf(log, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return nil, false
	}
	if cfg.seconds <= 0 {
		fmt.Fprintf(log, "perfbench: -seconds must be positive\n")
		return nil, false
	}
	b := newBench(cfg, log)
	prov, err := provenance(cfg)
	if err != nil {
		fmt.Fprintf(log, "perfbench: %v\n", err)
		return nil, false
	}
	b.prov = prov
	func() {
		defer func() {
			if r := recover(); r != nil {
				b.violate("workload panicked: %v", r)
			}
		}()
		drive(b)
	}()
	b.set("failed_frac", float64(b.failed)/float64(max(b.attempted, 1)), int(b.attempted))

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res = &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, have := b.metrics[d.name]
		if !have || math.IsNaN(v) || math.IsInf(v, 0) {
			b.violate("metric %s was not measured (have %v, value %v)", d.name, have, v)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if b.attempted < 1 {
		b.violate("no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	if b.failed > 0 {
		b.violate("%d of %d operations failed", b.failed, b.attempted)
	}
	res.Correct = len(b.violations) == 0
	b.report(defs)
	if err := b.writeRecord(res); err != nil {
		fmt.Fprintf(log, "perfbench: writing run record: %v\n", err)
	}
	return res, res.Correct
}
