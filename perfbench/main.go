// Command perfbench is the repository benchmark: it drives the thermal
// controller end to end on one named workload and prints one JSON
// result line. See README.md for the workloads, the metrics and the
// layer → end-to-end prediction table.
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown. The last line of
// standard output is always the result object; diagnostics go to
// standard error. A failed bind-or-fail guard, a failed checker
// self-test or an invalid (generator-limited) measurement exits
// non-zero without printing a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	seed   int64
	budget time.Duration
	trace  bool
}

// outcome is what a workload run hands back: the operations attempted
// and failed (errors plus wrong answers) and the metrics of the
// requested mode.
type outcome struct {
	attempted int
	failed    int
	metrics   metrics
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"niagara-online-hot": runNiagaraOnline,
	"grid64-dmpc-hot":    runGridDMPC,
	"serve-cluster":      runServeCluster,
}

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metrics BENCHMARK.json at the repository
// root declares for a run: end_to_end with --trace 0, per_layer with
// --trace 1. The file is the one list of names and units; the result
// carries exactly these.
func declaredMetrics(trace bool) ([]declared, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if trace {
		return spec.PerLayer, nil
	}
	return spec.EndToEnd, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown workload %q (want one of %v)", *workload, names)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	if err := selfTest(); err != nil {
		fatalf("checker self-test: %v", err)
	}
	want, err := declaredMetrics(*trace == 1)
	if err != nil {
		fatalf("%v", err)
	}

	out, err := run(runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if out.attempted < 1 {
		fatalf("%s: no operations attempted", *workload)
	}

	if *trace == 1 {
		out.metrics.set("error_ratio", "ratio", ratio(float64(out.failed), float64(out.attempted)))
	}
	// Every declared metric is reported: an end-to-end one must have been
	// measured, a per-layer one a workload never reaches reads 0. A
	// measured metric the file does not declare is a benchmark bug.
	final := metrics{}
	for _, d := range want {
		m, ok := out.metrics[d.Name]
		switch {
		case !ok && *trace == 0:
			fatalf("%s: end-to-end metric %s not measured", *workload, d.Name)
		case ok && m.Unit != d.Unit:
			fatalf("%s: metric %s measured in %s, declared %s", *workload, d.Name, m.Unit, d.Unit)
		}
		final.set(d.Name, d.Unit, m.Value)
	}
	for name := range out.metrics {
		if _, ok := final[name]; !ok {
			fatalf("%s: metric %s is not declared in BENCHMARK.json", *workload, name)
		}
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   final,
	})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

// fatalf reports a run that produced no valid measurement and exits
// non-zero without printing a result.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
