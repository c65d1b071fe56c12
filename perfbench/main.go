// Command perfbench is the repository's closed-loop benchmark of the MLQ
// feedback loop. It runs one workload per invocation from a single client
// goroutine, checks the workload's outputs, and prints one JSON result as
// the last line of standard output.
//
//	perfbench --workload loop-real --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the untraced timed phase (the reference for the tracing overhead and the
// source of the deterministic counts) is followed by a traced phase of the
// same length whose spans, recorded around each call into a layer, give the
// per-layer self times. Spans are kept in memory and written to
// <workdir>/<workload>.spans.tsv.gz when the run ends.
//
// Inputs (points, true costs, table rows) are generated from --seed before
// any clock starts; the system under test only receives them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options is one invocation's settings, shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each name in BENCHMARK.json to the function that runs it.
var workloads = map[string]func(options) (result, error){
	"loop-real":   runLoopReal,
	"model-synth": runModelSynth,
	"fleet":       runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload to run: loop-real, model-synth or fleet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "run"), "directory for journals and span files")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fail(fmt.Errorf("unknown workload %q (have %v)", *workload, names))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	stamp := hostStamp(*workload, opt)
	line, err := json.Marshal(map[string]any{"host": stamp})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))

	res, err := run(opt)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *workload, err))
	}
	for name, m := range res.Metrics {
		if !finite(m.Value) {
			fail(fmt.Errorf("%s: metric %s is not finite (%v)", *workload, name, m.Value))
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// phaseSplit returns the lengths of the untraced and traced timed phases.
// A traced run measures both, each --seconds long, so its untraced half
// holds as many samples as an untraced run.
func (o options) phaseSplit() (untraced, traced time.Duration) {
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		return d, 0
	}
	return d, d
}
