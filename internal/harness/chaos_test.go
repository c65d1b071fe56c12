package harness

import (
	"testing"

	"mlq/internal/core"
)

// TestChaosSmall runs the whole default chaos sweep on a tiny workload. The
// experiment self-checks its two contracts — rate-0 transparency against a
// nil-injector baseline, and bounded loss (valid NAE, valid predictions) at
// every rate — so the assertions here are about the sweep's shape and that
// the faults actually happened.
func TestChaosSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full substrates")
	}
	cells, err := Chaos(Options{Seed: 1, Queries: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(chaosRates) {
		t.Fatalf("got %d cells, want %d", len(cells), len(chaosRates))
	}

	clean, noisy := cells[0], cells[len(cells)-1]
	if clean.Rate != 0 || noisy.Rate != 0.2 {
		t.Fatalf("rates %g, %g", clean.Rate, noisy.Rate)
	}
	// The zero-rate cell already passed the exact-parity assertion inside
	// Chaos; it must also look like a clean run from the outside.
	if clean.ExecFailures != 0 || clean.Corrupted != 0 || clean.Degraded != 0 {
		t.Errorf("clean cell reported faults: %+v", clean)
	}
	if clean.Saves == 0 {
		t.Error("clean cell skipped the catalog save/load cycles")
	}
	if !core.ValidCost(clean.NAE) || clean.NAE == 0 {
		t.Errorf("clean NAE = %v", clean.NAE)
	}
	// At a 20% rate the injector must actually have done damage...
	if noisy.Corrupted == 0 || noisy.ExecFailures == 0 {
		t.Errorf("noisy cell saw no faults: %+v", noisy)
	}
	if noisy.Quarantined == 0 {
		t.Error("corrupted observations were never quarantined")
	}
	// ...and the hardened loop must have survived it with a usable answer.
	if !core.ValidCost(noisy.NAE) {
		t.Errorf("noisy NAE invalid: %v", noisy.NAE)
	}
	if noisy.Executions != clean.Executions {
		t.Errorf("execution counts diverged: %d vs %d", noisy.Executions, clean.Executions)
	}
}
