package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mlq/internal/telemetry"
)

// TestChaosReplAllScenarios runs the full scenario set at a reduced
// workload: the experiment's own assertions (byte-identical convergence,
// bounded acked loss, fencing, staleness) are the test.
func TestChaosReplAllScenarios(t *testing.T) {
	reg := telemetry.New()
	cells, err := ChaosRepl(Options{Seed: 1, Queries: 600, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	byName := map[string]ChaosReplCell{}
	for _, c := range cells {
		byName[c.Scenario] = c
	}
	clean := byName["clean"]
	if clean.Failovers != 0 || clean.AckedLost != 0 || clean.FencedWrites != 0 {
		t.Fatalf("clean cell reported fault activity: %+v", clean)
	}
	if kill := byName["kill-primary"]; kill.Failovers != 1 || kill.FencedWrites == 0 {
		t.Fatalf("kill-primary accounting: %+v", kill)
	}
	if ph := byName["partition-heal"]; ph.Catchup == 0 || ph.Partitioned == 0 {
		t.Fatalf("partition-heal accounting: %+v", ph)
	}
	if nc := byName["net-chaos"]; nc.Dropped == 0 || nc.Duplicates == 0 || nc.Failovers != 1 {
		t.Fatalf("net-chaos accounting: %+v", nc)
	}

	// The replica telemetry series were published.
	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"mlq_replica_lag_records",
		"mlq_replica_applied_records",
		"mlq_replica_failovers",
		"mlq_replica_fenced_writes",
		"mlq_replica_catchup_records",
	} {
		if !strings.Contains(exp.String(), name) {
			t.Fatalf("exposition missing %s", name)
		}
	}

	// The renderer formats every scenario row.
	out := tableString(RenderChaosRepl(cells))
	for _, sc := range chaosReplScenarios {
		if !strings.Contains(out, sc) {
			t.Fatalf("render missing scenario %s:\n%s", sc, out)
		}
	}
}

// TestChaosReplSingleScenarioQuick keeps a fast path for the CI smoke job.
func TestChaosReplSingleScenarioQuick(t *testing.T) {
	opts := Options{Seed: 3, Queries: 300}.withDefaults()
	want, err := chaosReplReference(opts)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := runChaosScenarioDriver("kill-primary", want, opts, t.TempDir(), memChaosDriver())
	if err != nil {
		t.Fatal(err)
	}
	if cell.Acked == 0 {
		t.Fatalf("cell = %+v", cell)
	}
}

// TestChaosReplNAEDeterministic pins the NAE column to the seed: a scenario
// that lost no acknowledged observation converged to the reference model,
// so two same-seed runs must score it identically, however the async
// publishes interleaved.
func TestChaosReplNAEDeterministic(t *testing.T) {
	opts := Options{Seed: 1, Queries: 600}
	a, err := ChaosRepl(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChaosRepl(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].AckedLost != 0 || b[i].AckedLost != 0 {
			continue
		}
		if math.IsNaN(a[i].NAE) || a[i].NAE == 0 {
			t.Errorf("%s: NAE %v, want a scored, non-trivial value", a[i].Scenario, a[i].NAE)
		}
		if a[i].NAE != b[i].NAE {
			t.Errorf("%s: same-seed runs scored NAE %v and %v", a[i].Scenario, a[i].NAE, b[i].NAE)
		}
	}
}
