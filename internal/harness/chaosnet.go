package harness

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"mlq/internal/catalog"
	"mlq/internal/faults"
	"mlq/internal/journal"
	"mlq/internal/replica"
	"mlq/internal/replica/nettransport"
	"mlq/internal/telemetry"
)

// The networked replication chaos experiment's socket parameters.
const (
	// chaosNetHeartbeatEvery is the socket liveness probe cadence: fast
	// enough that a scenario's worth of chaos exercises the detector.
	chaosNetHeartbeatEvery = 20 * time.Millisecond
	// chaosNetBarrierTimeout bounds how long a drain barrier may ride a
	// socket before the watchdog delivers it locally.
	chaosNetBarrierTimeout = 300 * time.Millisecond
	// chaosNetChunkBytes is the bootstrap chunk size: small enough that the
	// default workload's snapshot spans dozens of chunks and a mid-transfer
	// kill always lands inside the stream.
	chaosNetChunkBytes = 1 << 10
)

// ChaosNetCell is one networked scenario's outcome: the ChaosRepl
// convergence accounting plus the socket layer's own counters.
type ChaosNetCell struct {
	ChaosReplCell
	nettransport.NetStats
}

// ChaosNet runs the replicated-fleet chaos suite over real TCP loopback
// sockets: the same kill-primary, partition-heal and chaos scenarios as
// ChaosRepl (same assertions: acked loss bounded by one batch,
// byte-identical convergence after heal), but with the stream carried by
// nettransport — so reconnect/backoff, heartbeat liveness and CRC framing
// are load-bearing, and the net-chaos scenario injects socket-level resets,
// truncation and delay instead of record-level faults. A final
// mid-bootstrap-kill scenario cuts the snapshot-shipping RPC partway
// through and asserts the transfer resumes from the last verified chunk.
func ChaosNet(opts Options) ([]ChaosNetCell, error) {
	return runChaosSuite("chaosnet", slices.Concat(chaosReplScenarios, []string{"mid-bootstrap-kill"}), opts, runChaosNetScenario)
}

// runChaosNetScenario drives one ChaosRepl fault story over sockets and
// asserts the socket layer's own share of it: a healed partition and socket
// chaos must both force reconnects. The mid-bootstrap-kill scenario runs
// runChaosNetBootstrap instead.
func runChaosNetScenario(sc string, want []byte, opts Options, dir string) (ChaosNetCell, error) {
	if sc == "mid-bootstrap-kill" {
		return runChaosNetBootstrap(opts, dir)
	}
	var tr *nettransport.NetTransport
	drv := chaosDriver{
		transport: func(sc string, opts Options) replica.Transport {
			tr = newChaosNetTransport(netChaosInjector(sc, opts), opts)
			tr.Instrument(opts.Telemetry, telemetry.L("scenario", sc))
			return tr
		},
		settle:              func(g *replica.Group) error { return settleLinks(tr, g) },
		relaxCleanStaleness: true,
	}
	cell, err := runChaosScenarioDriver(sc, want, opts, dir, drv)
	nc := ChaosNetCell{ChaosReplCell: cell}
	if err != nil {
		return nc, err
	}
	nc.NetStats = tr.NetStats()
	if (sc == "partition-heal" || sc == "net-chaos") && nc.Reconnects == 0 {
		return nc, fmt.Errorf("no socket reconnect: a healed partition and socket chaos must each force one")
	}
	return nc, nil
}

// settleLinks waits for the primary's stream connections to every follower
// to establish (the term broadcast at group construction starts the lazy
// dials). A fault schedule that fires before the links exist partitions
// nothing and reconnects nothing — the scenarios assert against live links.
func settleLinks(tr *nettransport.NetTransport, g *replica.Group) error {
	primary := g.PrimaryID()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range g.IDs() {
		if id == primary {
			continue
		}
		for !tr.LinkUp(id) {
			if time.Now().After(deadline) {
				return fmt.Errorf("stream link to %s never established", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// netChaosInjector builds the socket-level fault plane: connection resets,
// byte-level truncation/corruption, and read-delay bursts, all seeded. Only
// the net-chaos scenario gets faults; the other stories run over clean
// sockets (their chaos is administrative: kills and partitions).
func netChaosInjector(sc string, opts Options) *faults.Injector {
	if sc != "net-chaos" {
		return nil
	}
	inj := faults.New(opts.Seed + 7919)
	inj.Enable(faults.NetReset, faults.SiteConfig{Probability: 0.0015})
	inj.Enable(faults.NetTrunc, faults.SiteConfig{Probability: 0.004})
	inj.Enable(faults.NetDelay, faults.SiteConfig{Probability: 0.01, Delay: 200 * time.Microsecond, Burst: 4})
	return inj
}

// newChaosNetTransport builds the experiment's socket transport.
func newChaosNetTransport(inj *faults.Injector, opts Options) *nettransport.NetTransport {
	return nettransport.New(nettransport.Config{
		Injector:       inj,
		Seed:           opts.Seed,
		Events:         opts.Events,
		QueueCapacity:  4096,
		ChunkBytes:     chaosNetChunkBytes,
		HeartbeatEvery: chaosNetHeartbeatEvery,
		BarrierTimeout: chaosNetBarrierTimeout,
		BackoffBase:    2 * time.Millisecond,
		BackoffCap:     50 * time.Millisecond,
	})
}

// runChaosNetBootstrap is the mid-bootstrap-kill scenario: build a fleet
// over sockets, run the workload with a mid-run checkpoint (so the durable
// snapshot has both a catalog checkpoint and a journal suffix), then pull
// the primary's snapshot over the bootstrap RPC with a connection reset
// scheduled to land mid-transfer. The transfer must resume from the last
// verified chunk — not restart — and the received bytes must be exactly the
// primary's durable state, replayable and loadable.
func runChaosNetBootstrap(opts Options, dir string) (ChaosNetCell, error) {
	cell := ChaosNetCell{ChaosReplCell: ChaosReplCell{Scenario: "mid-bootstrap-kill", NAE: math.NaN()}}
	inj := faults.New(opts.Seed + 104729)
	tr := newChaosNetTransport(inj, opts)
	tr.Instrument(opts.Telemetry, telemetry.L("scenario", "mid-bootstrap-kill"))
	g, err := newChaosGroup(tr, opts, dir)
	if err != nil {
		return cell, err
	}
	defer g.Close()

	// Compact mid-run so the snapshot is checkpoint + journal suffix, not
	// just one or the other.
	sched := map[int]func() error{opts.Queries / 2: g.Checkpoint}
	if _, err := runChaosWorkload(g, sched, opts); err != nil {
		return cell, err
	}
	if err := g.Converge(); err != nil {
		return cell, err
	}

	// Quiesce the stream plane: partitioning the followers kills their
	// connections and parks the dialers, so the scheduled reset below is
	// consulted only by the bootstrap socket — fully deterministic.
	primary := g.PrimaryID()
	for _, id := range g.IDs() {
		if id != primary {
			tr.Partition(id)
		}
	}
	tr.SetSnapshotSource(primary, g)

	wantCkpt, wantJnl, err := g.Snapshot()
	if err != nil {
		return cell, err
	}
	chunks := (len(wantCkpt) + len(wantJnl) + chaosNetChunkBytes - 1) / chaosNetChunkBytes
	if chunks < 2 {
		return cell, fmt.Errorf("snapshot spans %d chunk(s); too small for a mid-transfer kill", chunks)
	}
	// The serving connection's fault-site consultations are deterministic:
	// 3 reads (preamble, request header, request payload), the meta write,
	// then one write per chunk. Aim the reset at the middle chunk.
	inj.Enable(faults.NetReset, faults.SiteConfig{Schedule: []int64{int64(4 + chunks/2 + 1)}})

	res, err := tr.Bootstrap(primary)
	if err != nil {
		return cell, fmt.Errorf("bootstrap through mid-transfer kill: %w", err)
	}
	if res.Resumes < 1 {
		return cell, fmt.Errorf("transfer finished with %d resumes; the kill should have forced one", res.Resumes)
	}
	if res.Restarts != 0 {
		return cell, fmt.Errorf("transfer restarted %d times; a resumable kill must not force a full resync", res.Restarts)
	}
	if res.Chunks != chunks {
		return cell, fmt.Errorf("received %d chunks, want exactly %d (no re-shipping of verified chunks)", res.Chunks, chunks)
	}
	if !bytes.Equal(res.Ckpt, wantCkpt) || !bytes.Equal(res.Journal, wantJnl) {
		return cell, fmt.Errorf("bootstrapped bytes differ from the primary's durable state")
	}

	// The shipped state must be usable, not merely byte-equal: the journal
	// suffix replays cleanly and the checkpoint loads as a catalog.
	recs, truncated, err := journal.Replay(bytes.NewReader(res.Journal))
	if err != nil || truncated != 0 {
		return cell, fmt.Errorf("bootstrapped journal does not replay (err %v, truncated %d)", err, truncated)
	}
	if len(recs) == 0 {
		return cell, fmt.Errorf("bootstrapped journal replayed empty; the post-checkpoint suffix is missing")
	}
	ckptPath := filepath.Join(dir, "bootstrapped.mlqc")
	if err := os.WriteFile(ckptPath, res.Ckpt, 0o644); err != nil {
		return cell, err
	}
	if _, _, err := catalog.LoadFile(ckptPath); err != nil {
		return cell, fmt.Errorf("bootstrapped checkpoint does not load: %w", err)
	}

	for _, id := range g.IDs() {
		if id != primary {
			tr.Heal(id)
		}
	}
	if err := g.Converge(); err != nil {
		return cell, fmt.Errorf("converge after heal: %w", err)
	}

	st := g.Stats()
	cell.Acked = st.Acked
	cell.AckedLost = st.AckedLost
	cell.Partitioned = st.Transport.Partitioned
	cell.NetStats = tr.NetStats()
	return cell, nil
}
