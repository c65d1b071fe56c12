package harness

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/events"
	"mlq/internal/faults"
	"mlq/internal/geom"
	"mlq/internal/metrics"
	"mlq/internal/replica"
)

// The replication chaos experiments' fixed parameters.
const (
	// chaosReplReplicas is the group size including the primary.
	chaosReplReplicas = 3
	// chaosReplMaxBatch is the primary publisher's batch bound — and
	// therefore the hard ceiling on acknowledged observations a failover may
	// lose, which every scenario asserts.
	chaosReplMaxBatch = 16
	// chaosReplInboxCapacity bounds follower stream inboxes; with
	// chaosReplMaxBatch it bounds the follower staleness the clean scenario
	// asserts.
	chaosReplInboxCapacity = 1024
	// chaosReplNetFaultP is the per-record probability of each network
	// fault (drop, duplicate, reorder) in the net-chaos scenario.
	chaosReplNetFaultP = 0.05
	// chaosReplProbes is the size of the fixed probe set the converged
	// model is scored on.
	chaosReplProbes = 1000
)

// chaosReplScenarios are the fault stories ChaosRepl and ChaosNet run.
var chaosReplScenarios = []string{"clean", "kill-primary", "partition-heal", "net-chaos"}

// chaosReplRegion is the replicated model's domain.
var chaosReplRegion = geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{100, 100}}

// ChaosReplCell is one scenario's outcome: the replication accounting that
// proves convergence was earned, not assumed.
type ChaosReplCell struct {
	Scenario string
	// NAE scores the converged model on a fixed probe set, seeded apart
	// from the workload; NaN when the scenario scores nothing.
	NAE float64

	Acked        uint64 // acknowledged observation high-water mark
	AckedLost    uint64 // acknowledged observations lost across failovers
	Failovers    int64
	FencedWrites int64  // writes rejected with ErrFencedTerm
	MaxLag       uint64 // max follower sequence lag sampled mid-run (reachable followers)

	Catchup    int64 // records recovered via journal catch-up / checkpoint resync
	Duplicates int64 // stream records deduplicated by followers

	Dropped, Duplicated, Reordered, Partitioned int64 // transport fault plane
}

// chaosReplCost is the deterministic synthetic cost surface the workload
// observes: nonlinear enough that the quadtree actually refines, cheap
// enough that the experiment measures replication, not UDF execution.
func chaosReplCost(p geom.Point) float64 {
	return 5 + 0.3*p[0]*p[0] + 1.7*p[1] + 0.02*p[0]*p[1]
}

// ChaosRepl runs the replicated-fleet chaos experiment: a primary streams
// the Figure-1 feedback loop's observations to followers while the harness
// kills primaries mid-stream, partitions and heals followers, and (in the
// net-chaos scenario) drops, duplicates and reorders the stream itself.
// Every scenario ends in Converge and asserts:
//
//   - byte-identical model serialization across every live replica;
//   - when no acknowledged observation was lost, bit-identity with a plain
//     single-Publisher run of the same workload (the replication layer is
//     transparent — the clean scenario's version of severity 0);
//   - acknowledged loss bounded by one publisher batch (chaosReplMaxBatch);
//   - zero follower lag after convergence, and mid-run staleness within
//     the inbox + batch bound for reachable followers;
//   - no divergence hazards (failed record applies) anywhere.
func ChaosRepl(opts Options) ([]ChaosReplCell, error) {
	return runChaosSuite("chaosrepl", chaosReplScenarios, opts,
		func(sc string, want []byte, opts Options, dir string) (ChaosReplCell, error) {
			return runChaosScenarioDriver(sc, want, opts, dir, memChaosDriver())
		})
}

// runChaosSuite runs each scenario in its own scratch directory against the
// transparency reference: the identical workload through one plain
// Publisher, no replication anywhere near it.
func runChaosSuite[C any](name string, scenarios []string, opts Options,
	run func(sc string, want []byte, opts Options, dir string) (C, error)) ([]C, error) {
	opts = opts.withDefaults()
	dir, err := os.MkdirTemp("", "mlq-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	want, err := chaosReplReference(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", name, err)
	}
	var cells []C
	for si, sc := range scenarios {
		cell, err := run(sc, want, opts, filepath.Join(dir, fmt.Sprintf("s%d", si)))
		if err != nil {
			return nil, fmt.Errorf("%s: scenario %s: %w", name, sc, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// chaosReplReference serializes the single-Publisher ground truth.
func chaosReplReference(opts Options) ([]byte, error) {
	model, err := NewModel(MLQE, chaosReplRegion, opts, nil)
	if err != nil {
		return nil, err
	}
	pub, err := core.NewPublisher(model.(*core.MLQ), core.PublisherConfig{MaxBatch: chaosReplMaxBatch})
	if err != nil {
		return nil, err
	}
	src, err := dist.NewSourceSeeded(dist.KindUniform, chaosReplRegion, opts.Queries, opts.Seed, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	for q := 0; q < opts.Queries; q++ {
		p := src.Next()
		if err := pub.Observe(p, chaosReplCost(p)); err != nil {
			return nil, err
		}
	}
	if err := pub.Flush(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := pub.Snapshot().WriteTo(&buf); err != nil {
		return nil, err
	}
	if err := pub.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// chaosDriver abstracts the transport plane a chaos scenario runs over, so
// the same fault stories and assertions drive both the in-process
// MemTransport (ChaosRepl) and real loopback sockets (ChaosNet).
type chaosDriver struct {
	// transport builds the scenario's transport over its fault plane.
	transport func(sc string, opts Options) replica.Transport
	// settle, when non-nil, runs after the group is built and before the
	// workload: socket planes wait for the stream links to establish, so
	// the fault schedule hits live connections instead of racing the lazy
	// dialers of an empty fleet.
	settle func(g *replica.Group) error
	// relaxCleanStaleness skips the clean scenario's mid-run staleness
	// bound: socket transports buffer in flight, so the inbox+batch bound
	// only models the in-process plane.
	relaxCleanStaleness bool
}

// memChaosDriver is the canonical in-process plane: record-level drop,
// duplicate and reorder faults inside MemTransport, in the net-chaos
// scenario only.
func memChaosDriver() chaosDriver {
	return chaosDriver{transport: func(sc string, opts Options) replica.Transport {
		var inj *faults.Injector
		if sc == "net-chaos" {
			inj = faults.New(opts.Seed + 7919)
			inj.Enable(faults.ReplicaDrop, faults.SiteConfig{Probability: chaosReplNetFaultP})
			inj.Enable(faults.ReplicaDup, faults.SiteConfig{Probability: chaosReplNetFaultP})
			inj.Enable(faults.ReplicaReorder, faults.SiteConfig{Probability: chaosReplNetFaultP})
		}
		return replica.NewMemTransport(inj)
	}}
}

// runChaosScenarioDriver drives one fault story end to end over the plane
// the driver supplies.
func runChaosScenarioDriver(sc string, want []byte, opts Options, dir string, drv chaosDriver) (ChaosReplCell, error) {
	cell := ChaosReplCell{Scenario: sc}
	g, err := newChaosGroup(drv.transport(sc, opts), opts, dir)
	if err != nil {
		return cell, err
	}
	defer g.Close()
	if drv.settle != nil {
		if err := drv.settle(g); err != nil {
			return cell, fmt.Errorf("settle: %w", err)
		}
	}

	// Scenario event schedule, by workload index. The partition victim is
	// always the last replica (never the initial primary r0).
	n := opts.Queries
	victim := fmt.Sprintf("r%d", chaosReplReplicas-1)
	var downed []string
	killPrimary := func() error {
		old := g.PrimaryID()
		stale := g.Handle()
		if _, err := g.Failover(); err != nil {
			return err
		}
		downed = append(downed, old)
		return expectFenced(stale)
	}
	sched := map[int]func() error{}
	switch sc {
	case "clean":
	case "kill-primary":
		sched[n/2] = killPrimary
	case "partition-heal":
		sched[n/4] = func() error { g.Transport().Partition(victim); return nil }
		// The checkpoint compacts the journal while the victim is cut off,
		// so healing alone cannot repair it — only a checkpoint resync can.
		sched[n/2] = g.Checkpoint
		sched[3*n/4] = func() error { g.Transport().Heal(victim); return nil }
	case "net-chaos":
		sched[n/3] = func() error { g.Transport().Partition(victim); return nil }
		sched[n/2] = killPrimary
		sched[2*n/3] = func() error { g.Transport().Heal(victim); return nil }
	default:
		return cell, fmt.Errorf("unknown scenario %q", sc)
	}

	if cell.MaxLag, err = runChaosWorkload(g, sched, opts); err != nil {
		return cell, err
	}

	// Resurrect every killed primary before the convergence check: the
	// rejoin path (checkpoint resync + journal suffix) is part of what the
	// scenario proves.
	for _, id := range downed {
		if err := g.Rejoin(id); err != nil {
			return cell, fmt.Errorf("rejoin %s: %w", id, err)
		}
	}
	if err := g.Converge(); err != nil {
		return cell, fmt.Errorf("converge: %w", err)
	}

	st := g.Stats()
	cell.Acked = st.Acked
	cell.AckedLost = st.AckedLost
	cell.Failovers = st.Failovers
	cell.FencedWrites = st.FencedWrites
	cell.Dropped = st.Transport.Dropped
	cell.Duplicated = st.Transport.Duplicated
	cell.Reordered = st.Transport.Reordered
	cell.Partitioned = st.Transport.Partitioned
	for _, rs := range st.Replicas {
		cell.Catchup += rs.Catchup
		cell.Duplicates += rs.Duplicates
	}

	// --- Assertions -----------------------------------------------------

	if st.AckedLost > chaosReplMaxBatch {
		return cell, fmt.Errorf("lost %d acknowledged observations, bound is one batch (%d)", st.AckedLost, chaosReplMaxBatch)
	}
	if errs := g.ApplyErrors(); len(errs) != 0 {
		return cell, fmt.Errorf("divergence hazards recorded: %v", errs)
	}

	// Byte-identical convergence across every live replica — and, when
	// nothing acknowledged was lost, bit-identity with the plain
	// single-Publisher reference.
	var first []byte
	live := 0
	for _, id := range g.IDs() {
		b, err := g.ModelBytes(id)
		if err != nil {
			return cell, fmt.Errorf("%s did not come back: %w", id, err)
		}
		live++
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			return cell, fmt.Errorf("%s diverged after heal (%d vs %d bytes)", id, len(b), len(first))
		}
	}
	if live != chaosReplReplicas {
		return cell, fmt.Errorf("%d of %d replicas serving after heal", live, chaosReplReplicas)
	}
	if cell.NAE, err = scoreChaosModel(first, opts); err != nil {
		return cell, err
	}
	if st.AckedLost == 0 {
		if st.Acked != uint64(n) {
			return cell, fmt.Errorf("acked %d of %d workload observations with zero loss", st.Acked, n)
		}
		if !bytes.Equal(first, want) {
			return cell, fmt.Errorf("replicated fleet diverged from the single-Publisher reference — replication is not transparent")
		}
	}

	// Staleness: zero lag everywhere after convergence; bounded samples
	// mid-run in the undisturbed scenario.
	for _, rs := range st.Replicas {
		if rs.Role == replica.RoleFollower && rs.LagEpochs != 0 {
			return cell, fmt.Errorf("%s still lags %d epochs after converge", rs.ID, rs.LagEpochs)
		}
		if rs.Applied != st.Acked {
			return cell, fmt.Errorf("%s applied %d of %d acked after converge", rs.ID, rs.Applied, st.Acked)
		}
	}
	if sc == "clean" && !drv.relaxCleanStaleness && cell.MaxLag > chaosReplInboxCapacity+chaosReplMaxBatch {
		return cell, fmt.Errorf("clean-run follower staleness %d exceeds inbox+batch bound %d", cell.MaxLag, chaosReplInboxCapacity+chaosReplMaxBatch)
	}

	// Scenario-specific accounting.
	switch sc {
	case "clean":
		if st.Failovers != 0 || st.FencedWrites != 0 || st.AckedLost != 0 {
			return cell, fmt.Errorf("clean scenario reported fault activity: %+v", st)
		}
	case "kill-primary", "net-chaos":
		if st.Failovers == 0 {
			return cell, fmt.Errorf("no failover recorded")
		}
		if st.FencedWrites == 0 {
			return cell, fmt.Errorf("stale handle was never fenced")
		}
		if cell.Catchup == 0 {
			return cell, fmt.Errorf("rejoin recovered no records")
		}
	case "partition-heal":
		if cell.Catchup == 0 {
			return cell, fmt.Errorf("healed partition recovered no records")
		}
	}
	return cell, nil
}

// newChaosGroup builds a chaosReplReplicas-strong fleet in dir whose
// stream rides tr.
func newChaosGroup(tr replica.Transport, opts Options, dir string) (*replica.Group, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mlqCfg := opts.mlqConfig(MLQE, chaosReplRegion)
	return replica.New(replica.Config{
		Replicas:      chaosReplReplicas,
		Dir:           dir,
		NewModel:      func() (*core.MLQ, error) { return core.NewMLQ(mlqCfg) },
		Transport:     tr,
		MaxBatch:      chaosReplMaxBatch,
		InboxCapacity: chaosReplInboxCapacity,
		Telemetry:     replica.NewGroupTelemetry(opts.Telemetry),
		Events:        opts.Events,
	})
}

// runChaosWorkload streams the seeded workload through the group's primary,
// firing sched's events at their query index and checking that every
// mid-run prediction is valid. It returns the largest follower lag sampled.
func runChaosWorkload(g *replica.Group, sched map[int]func() error, opts Options) (uint64, error) {
	src, err := dist.NewSourceSeeded(dist.KindUniform, chaosReplRegion, opts.Queries, opts.Seed, opts.Seed+1)
	if err != nil {
		return 0, err
	}
	// Mark the scenario boundary on the spine: a dump decoded later shows
	// which fault story the surrounding events belong to.
	opts.Events.Emit(events.SubHarness, events.KindMark, 0, uint64(opts.Queries), 0)
	var maxLag uint64
	h := g.Handle()
	for q := 0; q < opts.Queries; q++ {
		if ev, ok := sched[q]; ok {
			if err := ev(); err != nil {
				return maxLag, err
			}
			h = g.Handle() // events may have moved the term
		}
		p := src.Next()
		if pred, ok := g.Predict(g.PrimaryID(), p); ok && !core.ValidCost(pred) {
			return maxLag, fmt.Errorf("primary predicted invalid %v", pred)
		}
		if err := h.Observe(p, chaosReplCost(p)); err != nil {
			return maxLag, fmt.Errorf("observe %d: %w", q, err)
		}
		if q%64 == 0 {
			maxLag = max(maxLag, sampleFollowerLag(g))
		}
	}
	return maxLag, nil
}

// scoreChaosModel scores a converged model's serialization on
// chaosReplProbes points seeded apart from the workload. Scoring the bytes
// the convergence check compared, not a replica's live view, keeps the
// score independent of when an async publish lands. It returns NaN when the
// model answers no probe.
func scoreChaosModel(b []byte, opts Options) (float64, error) {
	m, err := core.ReadMLQ(bytes.NewReader(b))
	if err != nil {
		return 0, fmt.Errorf("decoding converged model: %w", err)
	}
	src, err := dist.NewSourceSeeded(dist.KindUniform, chaosReplRegion, chaosReplProbes, opts.Seed+15485863, opts.Seed+32452843)
	if err != nil {
		return 0, err
	}
	var nae metrics.NAE
	for i := 0; i < chaosReplProbes; i++ {
		p := src.Next()
		if pred, ok := m.Predict(p); ok {
			nae.Add(pred, chaosReplCost(p))
		}
	}
	if nae.Count() == 0 {
		return math.NaN(), nil
	}
	return nae.Value(), nil
}

// expectFenced asserts a demoted lineage's handle reports ErrFencedTerm.
func expectFenced(h *replica.Handle) error {
	p := geom.Point{1, 1}
	err := h.Observe(p, chaosReplCost(p))
	if !errors.Is(err, replica.ErrFencedTerm) {
		return fmt.Errorf("stale handle observe returned %v, want ErrFencedTerm", err)
	}
	return nil
}

// sampleFollowerLag returns the largest acked-minus-applied gap over the
// reachable followers right now.
func sampleFollowerLag(g *replica.Group) uint64 {
	st := g.Stats()
	var lag uint64
	for _, rs := range st.Replicas {
		if rs.Role != replica.RoleFollower || g.Transport().Cut(rs.ID) {
			continue
		}
		if st.Acked > rs.Applied {
			lag = max(lag, st.Acked-rs.Applied)
		}
	}
	return lag
}
