package harness

import (
	"bytes"
	"strings"
	"testing"

	"mlq/internal/telemetry"
)

// TestChaosNetAllScenarios runs the full networked scenario set at a
// reduced workload: the experiment's own assertions (byte-identical
// convergence over sockets, bounded acked loss, reconnects on heal,
// resumable bootstrap) are the test.
func TestChaosNetAllScenarios(t *testing.T) {
	reg := telemetry.New()
	cells, err := ChaosNet(Options{Seed: 1, Queries: 600, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5 {
		t.Fatalf("got %d cells, want 5 (four fault stories + mid-bootstrap-kill)", len(cells))
	}
	byName := map[string]ChaosNetCell{}
	for _, c := range cells {
		byName[c.Scenario] = c
	}
	if clean := byName["clean"]; clean.Failovers != 0 || clean.AckedLost != 0 {
		t.Fatalf("clean cell reported fault activity: %+v", clean)
	}
	if kill := byName["kill-primary"]; kill.Failovers != 1 || kill.FencedWrites == 0 {
		t.Fatalf("kill-primary accounting: %+v", kill)
	}
	if ph := byName["partition-heal"]; ph.Catchup == 0 || ph.Reconnects == 0 {
		t.Fatalf("partition-heal accounting: %+v", ph)
	}
	if nc := byName["net-chaos"]; nc.Reconnects == 0 || nc.Failovers != 1 {
		t.Fatalf("net-chaos accounting: %+v", nc)
	}
	boot := byName["mid-bootstrap-kill"]
	if boot.BootstrapResumes == 0 || boot.BootstrapChunks < 2 {
		t.Fatalf("bootstrap accounting: %+v", boot)
	}

	// The socket-layer telemetry series were published.
	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"mlq_net_reconnects_total",
		"mlq_net_heartbeats_missed_total",
		"mlq_net_frames_damaged_total",
		"mlq_net_bootstrap_chunks_total",
		"mlq_net_bootstrap_resumes_total",
	} {
		if !strings.Contains(exp.String(), name) {
			t.Fatalf("exposition missing %s", name)
		}
	}

	// The renderer formats every scenario row, and the bootstrap scenario,
	// which scores no model, shows no NAE rather than a perfect one.
	tbl := RenderChaosNet(cells)
	for i, sc := range []string{"clean", "kill-primary", "partition-heal", "net-chaos", "mid-bootstrap-kill"} {
		if row := tbl.Rows[i]; row[0] != sc {
			t.Fatalf("render row %d is %q, want scenario %s:\n%s", i, row[0], sc, tableString(tbl))
		}
	}
	if nae := tbl.Rows[4][1]; nae != "-" {
		t.Errorf("mid-bootstrap-kill NAE cell = %q, want -", nae)
	}
}

// TestChaosNetSingleScenarioQuick keeps a fast path for the CI smoke job.
func TestChaosNetSingleScenarioQuick(t *testing.T) {
	opts := Options{Seed: 3, Queries: 300}.withDefaults()
	want, err := chaosReplReference(opts)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := runChaosNetScenario("kill-primary", want, opts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boot, err := runChaosNetBootstrap(opts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if cell.Acked == 0 || boot.Acked == 0 {
		t.Fatalf("cells = %+v, %+v", cell, boot)
	}
}
