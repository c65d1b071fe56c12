// Command mlqbench regenerates the paper's evaluation (§5): every figure's
// table is printed from a fresh run of the corresponding experiment. The
// experiments are the entries of harness.Experiments(), run in order.
//
// Usage:
//
//	mlqbench [-exp all|fig8|fig9|fig10|fig11|fig12|shift|nn|cache|memcurve|
//	          memwall|leo|chaos|chaoslatency|chaosrepl|chaosnet|ablate|
//	          concurrency] [-quick] [-seed N]
//
// "all" (the default) runs every entry except concurrency, whose numbers
// are machine-dependent wall-clock throughput.
//
// Figures 9, 10(a), 11(a) and 12 execute the six "real" UDFs — the text and
// spatial search engines built in this repository — for every query, so a
// full run takes a few minutes; -quick shrinks the workloads ~10x while
// preserving the qualitative shapes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mlq/internal/events"
	"mlq/internal/harness"
	"mlq/internal/spatialdb"
	"mlq/internal/telemetry"
	"mlq/internal/textdb"
)

func main() {
	exp := flag.String("exp", "all", expHelp())
	seed := flag.Int64("seed", 1, "random seed")
	quick := flag.Bool("quick", false, "shrink workloads ~10x for a fast smoke run")
	queries := flag.Int("queries", 0, "override the test-workload length (0 = paper's values)")
	mem := flag.Int("mem", 0, "override the model memory limit in bytes (0 = paper's 1.8 KB)")
	trials := flag.Int("trials", 1, "replicate accuracy cells across N seeds (fig8 reports mean±std)")
	telemetryAddr := flag.String("telemetry", "", "serve live metrics on this address while experiments run (e.g. localhost:9090, :0 for a free port; empty disables)")
	traceOut := flag.String("trace-out", "", "write feedback-loop trace spans as JSONL to this file (empty disables)")
	eventsDir := flag.String("events-dir", "", "record the causal event spine: flight-recorder dumps land in this directory and a final events.mlqbb export is written on exit (empty disables)")
	flag.Parse()

	reg, tr, cleanup, err := setupTelemetry(*telemetryAddr, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlqbench:", err)
		os.Exit(1)
	}
	defer cleanup()

	rec, err := setupEvents(*eventsDir, *seed, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlqbench:", err)
		os.Exit(1)
	}

	if err := run(os.Stdout, *exp, *seed, *quick, *queries, *mem, *trials, reg, tr, rec); err != nil {
		fmt.Fprintln(os.Stderr, "mlqbench:", err)
		os.Exit(1)
	}

	if err := exportEvents(*eventsDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "mlqbench:", err)
		os.Exit(1)
	}
}

// setupEvents builds the causal event spine when -events-dir is set: fault
// triggers auto-dump black boxes into the directory, and exportEvents writes
// the final ring contents on exit so a healthy run still leaves a trace to
// decode with `mlqtool trace`.
func setupEvents(dir string, seed int64, reg *telemetry.Registry) (*events.Recorder, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating events dir: %w", err)
	}
	// 8192 slots per subsystem (512 KiB each): the replica ring sees up to
	// eight events per observation (sends, receives, applies, epochs across
	// the fleet) and chaos transports deliver in bursts, so the default ring
	// would evict an observation's early hops before its late ones land.
	rec := events.New(events.Config{Seed: uint64(seed), DumpDir: dir, RingSize: 8192})
	if reg != nil {
		rec.Instrument(reg)
	}
	return rec, nil
}

// exportEvents writes the spine's final state to events.mlqbb in the dir.
func exportEvents(dir string, rec *events.Recorder) error {
	if rec == nil {
		return nil
	}
	path := filepath.Join(dir, "events.mlqbb")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("exporting events: %w", err)
	}
	if err := rec.DumpTo(f, "run-complete"); err != nil {
		f.Close()
		return fmt.Errorf("exporting events: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("exporting events: %w", err)
	}
	fmt.Fprintf(os.Stderr, "events: exported %s (decode with `mlqtool trace -dump %s`)\n", path, path)
	return nil
}

// setupTelemetry starts the exposition server and trace sink per the CLI
// flags. All returns are nil/no-op when both flags are empty.
func setupTelemetry(addr, traceOut string) (*telemetry.Registry, *telemetry.Tracer, func(), error) {
	cleanup := func() {}
	var reg *telemetry.Registry
	var sink io.Writer
	if addr != "" {
		reg = telemetry.New()
		srv, err := telemetry.Serve(addr, reg)
		if err != nil {
			return nil, nil, cleanup, err
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving %s\n", srv.URL())
		cleanup = func() { srv.Close() }
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			cleanup()
			return nil, nil, func() {}, fmt.Errorf("opening trace sink: %w", err)
		}
		sink = f
		prev := cleanup
		cleanup = func() { prev(); f.Close() }
	}
	var tr *telemetry.Tracer
	if reg != nil || sink != nil {
		tr = telemetry.NewTracer(reg, nil, sink)
	}
	return reg, tr, cleanup, nil
}

func run(w io.Writer, exp string, seed int64, quick bool, queries, mem, trials int, reg *telemetry.Registry, tr *telemetry.Tracer, rec *events.Recorder) error {
	selected, err := selectExperiments(exp)
	if err != nil {
		return err
	}
	in := harness.Inputs{
		Synth: harness.Options{Seed: seed, Queries: 5000, MemoryLimit: mem, Trials: trials, Telemetry: reg, Tracer: tr, Events: rec},
		Real:  harness.Options{Seed: seed, Queries: 2500, MemoryLimit: mem, Telemetry: reg, Tracer: tr, Events: rec},
	}
	if quick {
		in.Synth.Queries, in.Real.Queries = 600, 400
	}
	if queries > 0 {
		in.Synth.Queries, in.Real.Queries = queries, queries
	}
	for _, e := range selected {
		if e.Substrates {
			if err := loadSubstrates(&in, seed); err != nil {
				return err
			}
			break
		}
	}

	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(in)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		for i, t := range tables {
			if i > 0 {
				fmt.Fprintln(w)
			}
			t.Fprint(w)
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// selectExperiments resolves -exp: "all" is every registry entry marked
// InAll, any other value one entry by name.
func selectExperiments(exp string) ([]harness.Experiment, error) {
	var selected []harness.Experiment
	for _, e := range harness.Experiments() {
		if exp == e.Name || (exp == "all" && e.InAll) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("unknown experiment %q; use all or one of:\n  %s",
			exp, strings.Join(experimentNames(), "\n  "))
	}
	return selected, nil
}

// experimentNames lists the registry's entries in run order.
func experimentNames() []string {
	var names []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
	}
	return names
}

// expHelp is the -exp flag's usage text.
func expHelp() string {
	var excluded []string
	for _, e := range harness.Experiments() {
		if !e.InAll {
			excluded = append(excluded, e.Name)
		}
	}
	return fmt.Sprintf("experiment to run: all, %s (all skips %s: machine-dependent wall-clock output)",
		strings.Join(experimentNames(), ", "), strings.Join(excluded, ", "))
}

// loadSubstrates generates the text corpus and spatial map the real-UDF
// experiments share.
func loadSubstrates(in *harness.Inputs, seed int64) error {
	fmt.Fprintln(os.Stderr, "building text corpus and spatial map...")
	start := time.Now()
	tdb, err := textdb.Generate(textdb.Config{Seed: seed})
	if err != nil {
		return err
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{Seed: seed + 1})
	if err != nil {
		return err
	}
	in.UDFs = append(tdb.UDFs(), sdb.UDFs()...)
	in.Win = sdb.UDFs()[1]
	fmt.Fprintf(os.Stderr, "substrates ready in %v (%d docs, %d objects, %d disk pages)\n\n",
		time.Since(start).Round(time.Millisecond), tdb.NumDocs(), sdb.NumObjects(),
		tdb.Store().NumPages()+sdb.Store().NumPages())
	return nil
}
