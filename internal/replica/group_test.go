package replica

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"mlq/internal/core"
	"mlq/internal/faults"
	"mlq/internal/geom"
	"mlq/internal/geom/geomtest"
	"mlq/internal/quadtree"
	"mlq/internal/telemetry"
)

// testModel builds the factory every replica (and the single-model
// reference) shares: identical configs are what byte-identical convergence
// is defined over.
func testModel() (*core.MLQ, error) {
	return core.NewMLQ(quadtree.Config{
		Region:      geomtest.MustRect(geom.Point{0, 0}, geom.Point{1, 1}),
		MemoryLimit: 64 * quadtree.DefaultNodeBytes,
	})
}

// obs is the deterministic workload: observation i's point and cost.
func obs(i int) (geom.Point, float64) {
	return geom.Point{float64(i%17) / 17, float64(i%23) / 23}, float64(i%31) + 0.5
}

func newTestGroup(t *testing.T, cfg Config) *Group {
	t.Helper()
	if cfg.Replicas == 0 {
		cfg.Replicas = 3
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.NewModel == nil {
		cfg.NewModel = testModel
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := g.Close(); err != nil {
			t.Errorf("closing group: %v", err)
		}
	})
	return g
}

// referenceBytes applies observations [0, n) to a fresh single model and
// serializes it: the ground truth every replica must match byte for byte.
func referenceBytes(t *testing.T, n int) []byte {
	t.Helper()
	m, err := testModel()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, v := obs(i)
		if err := m.Observe(p, v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeN pushes observations [from, to) through the handle, re-acquiring it
// across failovers is the caller's business — here a fenced write is fatal.
func writeN(t *testing.T, h *Handle, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		p, v := obs(i)
		if err := h.Observe(p, v); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
}

// assertConverged converges the group and checks every live replica's model
// serializes byte-identically to the reference of n observations.
func assertConverged(t *testing.T, g *Group, n int) {
	t.Helper()
	if err := g.Converge(); err != nil {
		t.Fatalf("converge: %v", err)
	}
	want := referenceBytes(t, n)
	for _, id := range g.IDs() {
		got, err := g.ModelBytes(id)
		if err != nil {
			if errors.Is(err, ErrNoPrimary) {
				t.Fatalf("%s: %v", id, err)
			}
			continue // down replica
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s diverged: %d bytes vs reference %d bytes", id, len(got), len(want))
		}
	}
	if errs := g.ApplyErrors(); len(errs) != 0 {
		t.Fatalf("apply errors recorded: %v", errs)
	}
}

func TestGroupStreamsToFollowers(t *testing.T) {
	g := newTestGroup(t, Config{})
	h := g.Handle()
	writeN(t, h, 0, 200)
	assertConverged(t, g, 200)

	st := g.Stats()
	if st.Acked != 200 {
		t.Fatalf("acked = %d, want 200", st.Acked)
	}
	for _, rs := range st.Replicas {
		if rs.Applied != 200 {
			t.Fatalf("%s applied %d, want 200", rs.ID, rs.Applied)
		}
	}
	// Every replica answers the same prediction from its own snapshot.
	probe := geom.Point{0.4, 0.6}
	base, ok := g.Predict(g.PrimaryID(), probe)
	if !ok {
		t.Fatal("primary cannot predict after 200 observations")
	}
	for _, id := range g.IDs() {
		got, ok := g.Predict(id, probe)
		if !ok || got != base {
			t.Fatalf("%s predicts (%g, %v), primary says %g", id, got, ok, base)
		}
	}
}

// TestStreamWaitsForInboxRoom pins the stream's flow control: with
// two-slot inboxes the writer outruns the follower pumps, yet no record
// overflows an inbox. So every follower trails by at most its inbox plus
// the record its pump holds, and convergence needs no journal catch-up.
func TestStreamWaitsForInboxRoom(t *testing.T) {
	const inbox, n = 2, 500
	g := newTestGroup(t, Config{InboxCapacity: inbox})
	h := g.Handle()
	for i := 0; i < n; i++ {
		p, v := obs(i)
		if err := h.Observe(p, v); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		st := g.Stats()
		for _, rs := range st.Replicas {
			if rs.Role == RoleFollower && st.Acked-rs.Applied > inbox+1 {
				t.Fatalf("after %d observations %s applied %d of %d acked; bound is inbox + 1",
					i+1, rs.ID, rs.Applied, st.Acked)
			}
		}
	}
	assertConverged(t, g, n)
	st := g.Stats()
	if st.Transport.Overflowed != 0 {
		t.Fatalf("stream overflowed %d inbox slots", st.Transport.Overflowed)
	}
	for _, rs := range st.Replicas {
		if rs.Catchup != 0 {
			t.Fatalf("%s caught up %d records; the stream lost none", rs.ID, rs.Catchup)
		}
	}
}

func TestFollowerViewsReportStaleness(t *testing.T) {
	g := newTestGroup(t, Config{MaxBatch: 8})
	writeN(t, g.Handle(), 0, 100)
	if err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	for _, id := range g.IDs() {
		v := g.View(id)
		if v == nil {
			t.Fatalf("%s has no view", id)
		}
		if v.Seq != 100 {
			t.Fatalf("%s view seq %d, want 100", id, v.Seq)
		}
		if v.Term != 1 {
			t.Fatalf("%s view term %d, want 1", id, v.Term)
		}
	}
}

func TestFailoverFencesOldHandleAndPromotesDeterministically(t *testing.T) {
	g := newTestGroup(t, Config{})
	h1 := g.Handle()
	writeN(t, h1, 0, 150)

	newPrimary, err := g.Failover()
	if err != nil {
		t.Fatal(err)
	}
	// All followers equally caught up: the tie breaks to the smallest id.
	if newPrimary != "r1" {
		t.Fatalf("promoted %s, want r1", newPrimary)
	}
	if g.Term() != 2 || g.PrimaryID() != "r1" {
		t.Fatalf("term %d primary %s, want term 2 primary r1", g.Term(), g.PrimaryID())
	}

	// The demoted lineage's capability is fenced forever.
	p, v := obs(150)
	if err := h1.Observe(p, v); !errors.Is(err, ErrFencedTerm) {
		t.Fatalf("stale handle observe: %v, want ErrFencedTerm", err)
	}

	// A fresh handle writes through the new lineage.
	h2 := g.Handle()
	writeN(t, h2, 150, 250)
	assertConverged(t, g, 250)

	st := g.Stats()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	if st.AckedLost != 0 {
		t.Fatalf("acked lost = %d, want 0 (journal recovery)", st.AckedLost)
	}
	if st.FencedWrites == 0 {
		t.Fatal("fenced writes not counted")
	}

	// A second failover can only promote r2 (r0 is down).
	if next, err := g.Failover(); err != nil || next != "r2" {
		t.Fatalf("second failover promoted %q (%v), want r2", next, err)
	}
	writeN(t, g.Handle(), 250, 300)
	assertConverged(t, g, 300)
}

func TestFailoverRecoversDroppedRecordsFromJournal(t *testing.T) {
	inj := faults.New(42)
	inj.Enable(faults.ReplicaDrop, faults.SiteConfig{Probability: 0.3})
	g := newTestGroup(t, Config{Transport: NewMemTransport(inj), MaxBatch: 16})
	writeN(t, g.Handle(), 0, 400)

	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	// Every acknowledged observation was on the demoted lineage's durable
	// journal, so promotion recovers all of them regardless of drops.
	if st.AckedLost != 0 {
		t.Fatalf("acked lost = %d, want 0", st.AckedLost)
	}
	if st.Acked != 400 {
		t.Fatalf("acked = %d, want 400", st.Acked)
	}
	writeN(t, g.Handle(), 400, 500)
	assertConverged(t, g, 500)
}

func TestCheckpointCompactionForcesResync(t *testing.T) {
	g := newTestGroup(t, Config{})
	writeN(t, g.Handle(), 0, 50)
	if err := g.Converge(); err != nil {
		t.Fatal(err)
	}

	// r2 misses a stretch of the stream entirely.
	g.Transport().Partition("r2")
	writeN(t, g.Handle(), 50, 200)
	// The checkpoint absorbs the journal: r2's gap is now unfillable from
	// the stream or the journal suffix alone.
	if err := g.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writeN(t, g.Handle(), 200, 220)
	g.Transport().Heal("r2")
	assertConverged(t, g, 220)

	for _, rs := range g.Stats().Replicas {
		if rs.ID == "r2" && rs.Catchup == 0 {
			t.Fatal("r2 resynced without counting catch-up records")
		}
	}
}

func TestRejoinRebuildsDownReplica(t *testing.T) {
	g := newTestGroup(t, Config{})
	writeN(t, g.Handle(), 0, 120)
	if _, err := g.Failover(); err != nil { // r0 dies
		t.Fatal(err)
	}
	writeN(t, g.Handle(), 120, 260)

	if _, ok := g.Predict("r0", geom.Point{0.5, 0.5}); ok {
		t.Fatal("down replica must not serve reads")
	}
	if err := g.Rejoin("r0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Rejoin("r0"); err == nil {
		t.Fatal("rejoining a live replica must fail")
	}
	assertConverged(t, g, 260)

	var r0 ReplicaStats
	for _, rs := range g.Stats().Replicas {
		if rs.ID == "r0" {
			r0 = rs
		}
	}
	if r0.Role != RoleFollower || r0.Applied != 260 {
		t.Fatalf("r0 after rejoin: role %s applied %d, want follower 260", r0.Role, r0.Applied)
	}
	if r0.Catchup == 0 {
		t.Fatal("rejoin counted no catch-up records")
	}

	// The rejoined replica follows the live stream again.
	writeN(t, g.Handle(), 260, 300)
	assertConverged(t, g, 300)
}

func TestDuplicatesAndReordersDoNotDiverge(t *testing.T) {
	inj := faults.New(7)
	inj.Enable(faults.ReplicaDup, faults.SiteConfig{Probability: 0.15})
	inj.Enable(faults.ReplicaReorder, faults.SiteConfig{Probability: 0.15})
	g := newTestGroup(t, Config{Transport: NewMemTransport(inj)})
	writeN(t, g.Handle(), 0, 500)
	assertConverged(t, g, 500)

	dupSeen := false
	for _, rs := range g.Stats().Replicas {
		if rs.Duplicates > 0 {
			dupSeen = true
		}
	}
	if !dupSeen {
		t.Fatal("duplicate fault at p=0.15 over 500 records deduplicated nothing")
	}
}

func TestTermAnnouncementPurgesStaleRecords(t *testing.T) {
	g := newTestGroup(t, Config{})
	writeN(t, g.Handle(), 0, 60)
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	writeN(t, g.Handle(), 60, 130)
	assertConverged(t, g, 130)
	st := g.Stats()
	if st.Term != 2 {
		t.Fatalf("term = %d, want 2", st.Term)
	}
	for _, rs := range st.Replicas {
		if rs.Role != RoleDown && rs.Term != 2 {
			t.Fatalf("%s still on term %d", rs.ID, rs.Term)
		}
	}
}

func TestGroupTelemetryPublishesReplicaSeries(t *testing.T) {
	reg := telemetry.New()
	g := newTestGroup(t, Config{Telemetry: NewGroupTelemetry(reg)})
	writeN(t, g.Handle(), 0, 80)
	if _, err := g.Failover(); err != nil {
		t.Fatal(err)
	}
	writeN(t, g.Handle(), 80, 120)
	if err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	out := exposition(t, reg)
	for _, name := range []string{
		"mlq_replica_lag_records",
		"mlq_replica_applied_records",
		"mlq_replica_catchup_records",
		"mlq_replica_failovers",
		"mlq_replica_fenced_writes",
	} {
		if !strings.Contains(out, name) {
			t.Fatalf("exposition missing %s:\n%s", name, out)
		}
	}

	// The lag series counts acknowledged observations a replica's view does
	// not cover: a partitioned follower falls behind, and convergence
	// brings every replica (the down one has no view) back to zero.
	g.Transport().Partition("r2")
	writeN(t, g.Handle(), 120, 170)
	if lag := lagSeries(t, exposition(t, reg), "r2"); lag <= 0 {
		t.Fatalf("partitioned r2 reads lag %g after 50 unseen observations, want > 0", lag)
	}
	g.Transport().Heal("r2")
	if err := g.Converge(); err != nil {
		t.Fatal(err)
	}
	out = exposition(t, reg)
	for _, id := range g.IDs() {
		if lag := lagSeries(t, out, id); lag != 0 {
			t.Fatalf("%s reads lag %g after converge, want 0", id, lag)
		}
	}
}

// exposition renders the registry in Prometheus text format.
func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// lagSeries reads mlq_replica_lag_records for one replica out of an
// exposition.
func lagSeries(t *testing.T, out, id string) float64 {
	t.Helper()
	prefix := `mlq_replica_lag_records{replica="` + id + `"} `
	for _, line := range strings.Split(out, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no lag series for %s:\n%s", id, out)
	return 0
}

func TestGroupCloseIsIdempotentAndFencesWrites(t *testing.T) {
	g := newTestGroup(t, Config{Replicas: 2})
	h := g.Handle()
	writeN(t, h, 0, 10)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	p, v := obs(10)
	if err := h.Observe(p, v); !errors.Is(err, ErrFencedTerm) {
		t.Fatalf("observe after close: %v, want ErrFencedTerm", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("missing NewModel accepted")
	}
	if _, err := New(Config{NewModel: testModel}); err == nil {
		t.Fatal("missing Dir accepted")
	}
}
