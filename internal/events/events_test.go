package events

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mlq/internal/telemetry"
)

func fakeClock() *telemetry.FakeClock {
	c := &telemetry.FakeClock{}
	c.Set(time.Unix(1700000000, 0))
	return c
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if id := r.MintID(); id != 0 {
		t.Fatalf("nil MintID = %d, want 0", id)
	}
	if now := r.Now(); now != 0 {
		t.Fatalf("nil Now = %d, want 0", now)
	}
	r.Emit(SubCore, KindObserve, 1, 2, 3)
	r.EmitHop(SubReplica, KindApply, 1, 1, 0, 2)
	r.Trigger("nothing")
	r.Instrument(nil)
	if evts := r.Snapshot(); evts != nil {
		t.Fatalf("nil Snapshot = %v, want nil", evts)
	}
	if n := r.DumpErrors(); n != 0 {
		t.Fatalf("nil DumpErrors = %d, want 0", n)
	}
	if err := r.DumpTo(nil, "x"); err != nil {
		t.Fatalf("nil DumpTo: %v", err)
	}
}

func TestMintIDSeededDeterministic(t *testing.T) {
	a := New(Config{Clock: fakeClock(), Seed: 42})
	b := New(Config{Clock: fakeClock(), Seed: 42})
	c := New(Config{Clock: fakeClock(), Seed: 43})
	seen := map[uint64]bool{}
	var diverged bool
	for i := 0; i < 1000; i++ {
		ida, idb, idc := a.MintID(), b.MintID(), c.MintID()
		if ida != idb {
			t.Fatalf("mint %d: same seed diverged: %x vs %x", i, ida, idb)
		}
		if ida == 0 {
			t.Fatalf("mint %d: minted the reserved zero ID", i)
		}
		if seen[ida] {
			t.Fatalf("mint %d: duplicate ID %x", i, ida)
		}
		seen[ida] = true
		if ida != idc {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds minted identical streams")
	}
}

func TestEmitAndSnapshotOrdering(t *testing.T) {
	clk := fakeClock()
	r := New(Config{Clock: clk, RingSize: 16})
	r.Emit(SubCore, KindObserve, 7, 1, 0)
	clk.Advance(time.Millisecond)
	r.Emit(SubJournal, KindJournalAppend, 7, 1, 0)
	clk.Advance(time.Millisecond)
	r.Emit(SubReplica, KindApply, 7, 1, 0)

	evts := r.Snapshot()
	if len(evts) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(evts))
	}
	for i, want := range []Kind{KindObserve, KindJournalAppend, KindApply} {
		if evts[i].Kind != want {
			t.Fatalf("event %d kind = %v, want %v", i, evts[i].Kind, want)
		}
		if i > 0 && evts[i].LC <= evts[i-1].LC {
			t.Fatalf("logical clock not increasing: %d then %d", evts[i-1].LC, evts[i].LC)
		}
	}
	if evts[2].TS-evts[0].TS != int64(2*time.Millisecond) {
		t.Fatalf("timestamps span %dns, want 2ms", evts[2].TS-evts[0].TS)
	}

	// Many events interleaved across every subsystem, enough to wrap each
	// ring more than once: the merged snapshot holds exactly each ring's
	// newest ringSize events, in strictly increasing LC.
	const ringSize = 256
	r = New(Config{Clock: clk, RingSize: ringSize})
	rng := rand.New(rand.NewSource(5))
	var emitted [NumSubsystems][]uint64
	for a := uint64(1); a <= 3*ringSize*uint64(NumSubsystems); a++ {
		sub := Subsystem(rng.Intn(int(NumSubsystems)))
		r.Emit(sub, KindObserve, 7, a, 0)
		emitted[sub] = append(emitted[sub], a)
	}
	want := map[uint64]bool{}
	for _, as := range emitted {
		for _, a := range as[max(len(as)-ringSize, 0):] {
			want[a] = true
		}
	}
	evts = r.Snapshot()
	if len(evts) != len(want) {
		t.Fatalf("interleaved snapshot has %d events, want %d", len(evts), len(want))
	}
	for i, e := range evts {
		if !want[e.A] {
			t.Fatalf("event %d (A=%d) is not among its ring's newest %d", i, e.A, ringSize)
		}
		if i > 0 && e.LC <= evts[i-1].LC {
			t.Fatalf("interleaved logical clock not increasing at %d: %d then %d", i, evts[i-1].LC, e.LC)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(Config{Clock: fakeClock(), RingSize: 8})
	for i := uint64(1); i <= 20; i++ {
		r.Emit(SubCore, KindObserve, 0, i, 0)
	}
	evts := r.Snapshot()
	if len(evts) != 8 {
		t.Fatalf("snapshot has %d events, want ring size 8", len(evts))
	}
	for i, e := range evts {
		if want := uint64(13 + i); e.A != want {
			t.Fatalf("event %d A = %d, want %d (newest 8 retained)", i, e.A, want)
		}
	}
}

func TestEmitHopLag(t *testing.T) {
	clk := fakeClock()
	r := New(Config{Clock: clk, RingSize: 16})
	cause := r.MintID()
	mint := r.Now()
	clk.Advance(3 * time.Millisecond)
	r.EmitHop(SubReplica, KindApply, cause, mint, 2, 9)

	evts := r.Snapshot()
	if len(evts) != 1 {
		t.Fatalf("snapshot has %d events, want 1", len(evts))
	}
	e := evts[0]
	if e.Lag != int64(3*time.Millisecond) {
		t.Fatalf("lag = %dns, want 3ms", e.Lag)
	}
	if e.Actor != 2 || e.A != 9 || e.Cause != cause {
		t.Fatalf("hop fields = actor %d a %d cause %x", e.Actor, e.A, e.Cause)
	}

	// Unknown mint time (journal-recovered records): no lag recorded.
	r.EmitHop(SubReplica, KindApply, cause, 0, 2, 10)
	evts = r.Snapshot()
	if evts[1].Lag != 0 {
		t.Fatalf("lag with unknown mint = %d, want 0", evts[1].Lag)
	}
}

func promDump(t *testing.T, reg *telemetry.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.Bytes()
}

func containsLine(prom []byte, line string) bool {
	for _, l := range strings.Split(string(prom), "\n") {
		if l == line {
			return true
		}
	}
	return false
}

func TestInstrumentCountersAndHistograms(t *testing.T) {
	clk := fakeClock()
	reg := telemetry.New()
	r := New(Config{Clock: clk, RingSize: 4})
	r.Instrument(reg)

	cause := r.MintID()
	mint := r.Now()
	clk.Advance(time.Millisecond)
	for i := 0; i < 6; i++ { // 4-slot ring: 2 overwrites
		r.EmitHop(SubCore, KindObserve, cause, mint, 0, uint64(i+1))
	}
	prom := promDump(t, reg)
	for _, want := range []string{
		"mlq_events_emitted_total 6",
		"mlq_events_dropped_total 2",
		`mlq_events_hop_lag_seconds_count{hop="observe"} 6`,
	} {
		if !containsLine(prom, want) {
			t.Fatalf("exposition missing %q:\n%s", want, prom)
		}
	}

	r.Instrument(nil) // uninstall: emission keeps working
	r.Emit(SubCore, KindObserve, 0, 0, 0)
}

func TestConcurrentEmitRaceClean(t *testing.T) {
	r := New(Config{Clock: fakeClock(), RingSize: 64})
	reg := telemetry.New()
	r.Instrument(reg)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: exercises torn-slot skipping
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, e := range r.Snapshot() {
					if e.LC == 0 {
						t.Error("snapshot returned an uncommitted slot")
						return
					}
					// A committed slot must be internally consistent:
					// the A payload encodes the worker, B the iteration.
					if e.A >= workers || e.B >= perWorker {
						t.Errorf("torn event: A=%d B=%d", e.A, e.B)
						return
					}
				}
			}
		}
	}()
	var work sync.WaitGroup
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			for i := 0; i < perWorker; i++ {
				r.Emit(Subsystem(w%int(NumSubsystems)), KindObserve, r.MintID(), uint64(w), uint64(i))
			}
		}(w)
	}
	work.Wait()
	close(stop)
	wg.Wait()

	evts := r.Snapshot()
	seen := map[uint64]bool{}
	for _, e := range evts {
		if seen[e.LC] {
			t.Fatalf("duplicate logical clock %d", e.LC)
		}
		seen[e.LC] = true
	}
}

func TestSubsystemAndKindStrings(t *testing.T) {
	for s := Subsystem(0); s < NumSubsystems; s++ {
		if s.String() == "" || s.String()[0] == 'S' {
			t.Fatalf("Subsystem(%d) has no name: %q", s, s.String())
		}
	}
	for k := KindNone; k <= KindResize; k++ {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Fatalf("Kind(%d) has no name: %q", k, k.String())
		}
	}
}
