package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlq/internal/harness"
	"mlq/internal/telemetry"
)

// The experiment plumbing is covered in internal/harness; these tests pin
// the CLI wiring: every registry entry resolves and runs end to end on a
// tiny workload. The entries in realExperiments run in
// TestRunRealExperimentsSmall; TestRunEachExperiment runs the rest.
func TestRunEachExperiment(t *testing.T) {
	for _, e := range harness.Experiments() {
		e := e
		if isRealExperiment(e.Name) {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			if e.Substrates && testing.Short() {
				t.Skip("builds the full substrates")
			}
			runAndCheck(t, e.Name)
		})
	}
}

// realExperiments are the slowest end-to-end entries, run together so that
// -short skips them as one.
var realExperiments = []string{"fig9", "fig11", "chaos"}

func isRealExperiment(name string) bool {
	for _, r := range realExperiments {
		if r == name {
			return true
		}
	}
	return false
}

// TestRunRealExperimentsSmall runs the substrate-backed entries; fig9 and
// fig11 are deterministic, so their output is pinned like the goldens below.
func TestRunRealExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full substrates")
	}
	for _, name := range realExperiments {
		name := name
		t.Run(name, func(t *testing.T) {
			out := runAndCheck(t, name)
			if name != "chaos" {
				matchGolden(t, name, out)
			}
		})
	}
}

// runAndCheck runs one registry entry on a tiny workload, checks that it
// printed its completion line, and returns its output.
func runAndCheck(t *testing.T, name string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, name, 1, true, 60, 0, 1, nil, nil); err != nil {
		t.Fatalf("run(%q): %v", name, err)
	}
	if !strings.Contains(out.String(), "["+name+" completed in ") {
		t.Errorf("run(%q) printed no completion line:\n%s", name, out.String())
	}
	return out.String()
}

// goldenExperiments are the deterministic entries that need no substrates;
// their -quick -queries 120 output is pinned byte for byte.
var goldenExperiments = []string{"fig8", "shift", "memcurve", "leo", "memwall", "ablate"}

// completedLine matches the wall-clock completion line after each entry.
// The substrates' build-time line goes to stderr, so no output holds it.
var completedLine = regexp.MustCompile(`(?m)^\[.* completed in .*\]\n`)

// matchGolden compares an entry's output, completion line stripped, with
// testdata/<name>.golden.
func matchGolden(t *testing.T, name, out string) {
	t.Helper()
	got := completedLine.ReplaceAllString(out, "")
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestGoldenOutput(t *testing.T) {
	for _, name := range goldenExperiments {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, name, 1, true, 120, 0, 1, nil, nil); err != nil {
				t.Fatal(err)
			}
			matchGolden(t, name, out.String())
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(io.Discard, "nonsense", 1, true, 50, 0, 1, nil, nil)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var want []string
	for _, e := range harness.Experiments() {
		want = append(want, e.Name)
	}
	got := strings.Split(err.Error(), "\n  ")[1:]
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("error lists %v, want the registry's %v", got, want)
	}
}

func TestRunMemoryOverride(t *testing.T) {
	if err := run(io.Discard, "fig8", 2, true, 100, 4096, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// chaosSeries are the exposition families the chaos run must surface, one
// per instrumented layer: quadtree shape, engine feedback loop, buffer
// cache, the rolling model-accuracy tracker, and the stage spans.
var chaosSeries = []string{
	"mlq_quadtree_memory_utilization{",
	"mlq_quadtree_compressions_total{",
	"mlq_engine_predictions_total{",
	"mlq_engine_observations_total{",
	"mlq_engine_breaker_open{",
	"mlq_buffercache_hit_ratio{",
	"mlq_model_nae{",
	`mlq_trace_span_seconds_count{span="save"}`,
}

// TestTelemetryScrapeMidRun runs the chaos experiment with a live exposition
// server and scrapes /metrics over HTTP while it executes, checking every
// instrumented layer is visible to an external observer with sane values.
func TestTelemetryScrapeMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the chaos substrates")
	}
	reg := telemetry.New()
	srv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() { done <- run(io.Discard, "chaos", 1, true, 60, 0, 1, reg, nil) }()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(srv.URL())
		if err != nil {
			t.Fatalf("scraping %s: %v", srv.URL(), err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	hasAll := func(body string) bool {
		for _, s := range chaosSeries {
			if !strings.Contains(body, s) {
				return false
			}
		}
		return true
	}

	// Poll mid-run until every layer's series has appeared (or the run
	// ends first — the final scrape below still asserts everything).
	running := true
	for running && !hasAll(scrape()) {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		case <-time.After(20 * time.Millisecond):
		}
	}
	if running {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	body := scrape()
	for _, s := range chaosSeries {
		if !strings.Contains(body, s) {
			t.Errorf("series %q missing from exposition", s)
		}
	}
	if got := seriesSum(t, body, "mlq_engine_predictions_total{"); got <= 0 {
		t.Errorf("predictions total = %g, want > 0", got)
	}
	if got := seriesSum(t, body, "mlq_engine_observations_total{"); got <= 0 {
		t.Errorf("observations total = %g, want > 0", got)
	}
	if got := seriesMax(t, body, "mlq_quadtree_memory_utilization{"); got <= 0 || got > 1.0001 {
		t.Errorf("memory utilization = %g, want in (0, 1]", got)
	}
	if got := seriesSum(t, body, "mlq_quadtree_compressions_total{"); got <= 0 {
		t.Errorf("compressions total = %g, want > 0 (the 1.8 KB budget forces passes)", got)
	}
	if got := seriesMax(t, body, "mlq_buffercache_hit_ratio{"); got < 0 || got > 1 {
		t.Errorf("hit ratio = %g, want in [0, 1]", got)
	}
	for _, line := range seriesLines(body, "mlq_engine_breaker_open{") {
		v := lineValue(t, line)
		if v != 0 && v != 1 {
			t.Errorf("breaker gauge = %g, want 0 or 1: %s", v, line)
		}
	}
	if lines := seriesLines(body, "mlq_model_nae{"); len(lines) == 0 {
		t.Error("no rolling NAE series")
	} else {
		for _, line := range lines {
			if v := lineValue(t, line); v < 0 {
				t.Errorf("NAE = %g, want >= 0: %s", v, line)
			}
		}
	}
}

func seriesLines(body, prefix string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return out
}

func lineValue(t *testing.T, line string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", line, err)
	}
	return v
}

func seriesSum(t *testing.T, body, prefix string) float64 {
	t.Helper()
	var sum float64
	for _, line := range seriesLines(body, prefix) {
		sum += lineValue(t, line)
	}
	return sum
}

func seriesMax(t *testing.T, body, prefix string) float64 {
	t.Helper()
	max := -1.0
	for _, line := range seriesLines(body, prefix) {
		if v := lineValue(t, line); v > max {
			max = v
		}
	}
	return max
}
