package harness

import (
	"fmt"
	"testing"
)

// TestMemWallQuick is the CI smoke over seeds 1–8: on every seed the arbiter
// must beat every static split, cycles must never fail, and the wall must
// not leak — MemWall enforces all three internally — and the arbiter must
// actually move bytes. The seed table pins the reversal guard: without it
// the arbiter loses to static-25 on 7 of the 8 seeds. (The 600-query request
// is floored to memWallMinQueries; the experiment's cost surface needs the
// longer run, which still finishes in under a second per seed.)
func TestMemWallQuick(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rows, err := MemWall(Options{Seed: seed, Queries: 600})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				t.Logf("%-10s model %6d>%6d  cache %3d>%3d  io %8.1f  mispred %8.1f  total %8.1f  moves %d",
					r.Name, r.ModelStart, r.ModelEnd, r.CacheStart, r.CacheEnd,
					r.IOCost, r.Mispredict, r.Total(), r.Moves)
			}
			arb := rows[len(rows)-1]
			if arb.Name != "arbiter" {
				t.Fatalf("last row is %q, want the arbiter", arb.Name)
			}
			if arb.Moves == 0 {
				t.Error("arbiter made no moves on a migrating workload")
			}
			if arb.ModelEnd == arb.ModelStart && arb.CacheEnd == arb.CacheStart {
				t.Error("arbiter ended exactly where it started on a migrating workload")
			}
			if got := arb.ModelEnd + arb.CacheEnd*memWallPageSize; got != memWallTotalBytes {
				t.Errorf("arbiter ended with %d bytes granted, want the %d-byte wall", got, memWallTotalBytes)
			}
		})
	}
}
