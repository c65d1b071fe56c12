package harness

import (
	"strings"
	"testing"

	"mlq/internal/core"
)

// TestChaosLatencySmall runs the default slow-disk sweep on a tiny workload. The
// experiment self-checks its three contracts — severity-0 transparency
// against a plain-loop baseline, journal-replay equivalence per cell, and
// bounded NAE inflation — so the assertions here are about the sweep's shape
// and that the degraded disk actually degraded.
func TestChaosLatencySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full substrates")
	}
	cells, err := ChaosLatency(Options{Seed: 1, Queries: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(chaosLatencySeverities) {
		t.Fatalf("got %d cells, want %d", len(cells), len(chaosLatencySeverities))
	}
	clean, slow := cells[0], cells[len(cells)-1]
	if clean.Severity != 0 || slow.Severity != 10 {
		t.Fatalf("severities %g, %g", clean.Severity, slow.Severity)
	}

	// The clean cell already passed the bit-identity assertion inside
	// ChaosLatency; it must also look fault-free from the outside.
	if clean.SlowReads != 0 || clean.ChargedUnits != 0 || clean.ExecFailures != 0 {
		t.Errorf("clean cell reported latency activity: %+v", clean)
	}
	if !core.ValidCost(clean.NAE) || clean.NAE == 0 {
		t.Errorf("clean NAE = %v", clean.NAE)
	}

	// The 10x cell must have actually slowed the disk and charged for it.
	if slow.SlowReads == 0 {
		t.Error("severity 10 injected no slow reads")
	}
	if slow.ChargedUnits == 0 {
		t.Error("slow reads were never charged into IO cost")
	}
	if !core.ValidCost(slow.NAE) {
		t.Errorf("slow NAE invalid: %v", slow.NAE)
	}
	if slow.Executions != clean.Executions {
		t.Errorf("execution counts diverged: %d vs %d", slow.Executions, clean.Executions)
	}

	// Crash-safety accounting: every accepted observation was journaled and
	// replayed byte-identically (the experiment errors otherwise).
	for _, c := range cells {
		if c.Journaled != c.Pub.Submitted || c.Replayed != c.Journaled {
			t.Errorf("severity %g journal accounting: %+v", c.Severity, c)
		}
		if c.Pub.Applied != c.Pub.Submitted {
			t.Errorf("severity %g publisher left observations behind: %+v", c.Severity, c.Pub)
		}
	}
}

func TestRenderChaosLatency(t *testing.T) {
	out := tableString(RenderChaosLatency([]ChaosLatencyCell{
		{Severity: 0, NAE: 0.12, Executions: 300, Journaled: 300, Replayed: 300},
		{Severity: 10, NAE: 0.19, Executions: 300, SlowReads: 1200, Retries: 4, ChargedUnits: 12345.5, Journaled: 300, Replayed: 300},
	}))
	for _, want := range []string{"severity", "10x", "0.1900", "12345.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}
