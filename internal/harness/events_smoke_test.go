package harness

import (
	"path/filepath"
	"testing"

	"mlq/internal/events"
)

// TestChaosReplFailoverBlackbox is the flight-recorder smoke test: a
// kill-primary chaos run with the event spine installed must leave a
// decodable black-box dump (zero CRC errors) whose events reconstruct an
// observation's full causal journey — observe, journal append, transport
// send/receive, follower apply, epoch publish — with per-hop lag.
func TestChaosReplFailoverBlackbox(t *testing.T) {
	dumpDir := t.TempDir()
	// The replica ring sees up to eight events per observation across the
	// fleet; size it so a full journey survives until the failover dump.
	rec := events.New(events.Config{Seed: 42, DumpDir: dumpDir, RingSize: 8192})
	opts := Options{Seed: 1, Queries: 300, Events: rec}.withDefaults()
	want, err := chaosReplReference(opts)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := runChaosScenarioDriver("kill-primary", want, opts, t.TempDir(), memChaosDriver())
	if err != nil {
		t.Fatal(err)
	}
	if cell.Failovers == 0 {
		t.Fatalf("kill-primary scenario did not fail over: %+v", cell)
	}

	dumps, err := filepath.Glob(filepath.Join(dumpDir, "blackbox-*-failover.mlqbb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) == 0 {
		t.Fatalf("failover triggered no black-box dump in %s", dumpDir)
	}
	meta, evts, crcErrs, err := events.ReadDumpFile(dumps[0])
	if err != nil {
		t.Fatalf("decoding %s: %v", dumps[0], err)
	}
	if crcErrs != 0 {
		t.Errorf("dump has %d CRC-damaged frame(s), want 0", crcErrs)
	}
	if meta.Reason != "failover" {
		t.Errorf("dump reason = %q, want failover", meta.Reason)
	}
	if len(evts) == 0 {
		t.Fatal("dump decoded zero events")
	}

	// Reconstruct the richest causal journey in the dump and check it spans
	// the whole pipeline.
	var best events.Trace
	for _, c := range events.Causes(evts) {
		if tr := events.BuildTrace(evts, c); len(tr.Hops) > len(best.Hops) {
			best = tr
		}
	}
	if len(best.Hops) == 0 {
		t.Fatal("no causal journey reconstructed from the dump")
	}
	seen := map[events.Kind]bool{}
	var lagged bool
	for _, h := range best.Hops {
		seen[h.Event.Kind] = true
		if (h.Event.Kind == events.KindRecv || h.Event.Kind == events.KindApply) && h.Event.Lag > 0 {
			lagged = true
		}
	}
	for _, k := range []events.Kind{
		events.KindObserve, events.KindJournalAppend, events.KindSend,
		events.KindRecv, events.KindApply, events.KindEpochPublish,
	} {
		if !seen[k] {
			t.Errorf("journey %016x is missing the %s hop (got %d hops: %v)",
				best.Cause, k, len(best.Hops), best.Hops)
		}
	}
	if !lagged {
		t.Error("no transport hop recorded a positive mint-to-hop lag")
	}
}
