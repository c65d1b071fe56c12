package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mlq/internal/buffercache"
	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/faults"
	"mlq/internal/journal"
	"mlq/internal/metrics"
	"mlq/internal/pagestore"
	"mlq/internal/spatialdb"
	"mlq/internal/telemetry"
	"mlq/internal/textdb"
	"mlq/internal/udf"
)

// chaosLatencyFaultScale couples a small transient read-fault probability to
// the swept severity, so the retry/backoff path (not just the slow-read
// charge) shapes the observed IO costs.
const chaosLatencyFaultScale = 0.002

// chaosLatencySeverities sweeps the injected disk degradation: every
// physical read is delayed severity clean-read service times (severity 10 =
// an 11x slower disk), and transient read faults fire at severity *
// chaosLatencyFaultScale so the retry policy earns its keep. Severity 0
// doubles as the transparency assertion: the full resilience layer
// (armed-but-idle injector, retry policy, Publisher, journal) must reproduce
// the plain feedback loop's NAE bit for bit.
var chaosLatencySeverities = []float64{0, 1, 4, 10}

// chaosLatencyRetry is the buffercache policy under test.
var chaosLatencyRetry = buffercache.RetryPolicy{
	MaxAttempts: 3,
	BaseDelay:   buffercache.DefaultUnitLatency,
	Multiplier:  2,
}

// chaosLatencyMaxNAEInflation bounds how much worse any severity's NAE may be
// than the fault-free cell's: the self-tuning models must absorb a slower
// disk, not diverge from it.
const chaosLatencyMaxNAEInflation = 2.0

// ChaosLatencyCell is one swept severity's outcome: IO-cost prediction
// accuracy on a degraded disk, plus the resilience accounting that proves
// the latency was absorbed by modeling, not by losing observations.
type ChaosLatencyCell struct {
	Severity float64
	// NAE is IO-cost prediction accuracy against the charged (latency
	// inclusive) cost the executions actually observed.
	NAE float64

	Executions   int64   // UDF executions attempted
	ExecFailures int64   // executions lost to retry-exhausted read faults
	SlowReads    int64   // physical reads charged injected latency
	Retries      int64   // repeated read attempts under the retry policy
	ChargedUnits float64 // modeled latency folded into IO costs, in clean-read units

	Journaled int64 // observations persisted to the crash-safety journals
	Replayed  int64 // journal records replayed for the equivalence check
	Pub       core.PublisherStats
}

// chaosLatencyState is one UDF's resilient feedback loop: an MLQ wrapped in
// a journaled Publisher, predicting and observing latency-inclusive IO cost.
type chaosLatencyState struct {
	u     udf.UDF
	mlq   *core.MLQ
	pub   *core.Publisher
	jn    *journal.Journal
	jpath string
	src   dist.PointSource
}

// ChaosLatency runs the degraded-IO resilience experiment: the Figure-1
// feedback loop on the real UDFs' IO costs while the injector makes the disk
// slow (modeled latency, charged into observations via the buffercache retry
// policy) and transiently faulty (absorbed by retries). Every observation
// flows through a journaled Publisher; each cell ends with a replay
// equivalence check — a fresh model fed the journal must be byte-identical
// to the live one. It returns one cell per severity and errors if severity 0
// is not bit-identical to a run with no resilience layer at all, if any
// journal replay diverges, or if NAE inflates beyond chaosLatencyMaxNAEInflation.
func ChaosLatency(opts Options) ([]ChaosLatencyCell, error) {
	opts = opts.withDefaults()
	dir, err := os.MkdirTemp("", "mlq-chaoslatency-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The reference run: the identical workload with no resilience layer —
	// no injector, no retry policy, no Publisher, no journal.
	baseline, err := runChaosLatencyCell(0, false, opts, filepath.Join(dir, "baseline"))
	if err != nil {
		return nil, fmt.Errorf("chaoslatency: baseline: %w", err)
	}

	var cells []ChaosLatencyCell
	for ci, sev := range chaosLatencySeverities {
		cell, err := runChaosLatencyCell(sev, true, opts, filepath.Join(dir, fmt.Sprintf("cell%d", ci)))
		if err != nil {
			return nil, fmt.Errorf("chaoslatency: severity %g: %w", sev, err)
		}
		//lint:ignore floatguard the severity grid uses literal 0 as the fault-free cell
		if sev == 0 {
			// Transparency: retry policy installed, injector armed at zero,
			// observations journaled through the Publisher — and not one
			// bit of difference in accuracy.
			//lint:ignore floatguard the transparency check demands bit-exact equality
			if cell.NAE != baseline.NAE {
				return nil, fmt.Errorf("chaoslatency: severity-0 NAE %v != plain-loop baseline %v — resilience layer is not transparent when idle",
					cell.NAE, baseline.NAE)
			}
			//lint:ignore floatguard idle-charge check: zero is exact, nothing was ever added
			if cell.SlowReads+cell.Retries+cell.ExecFailures != 0 || cell.ChargedUnits != 0 {
				return nil, fmt.Errorf("chaoslatency: severity-0 cell reported fault activity: %+v", cell)
			}
		}
		if !core.ValidCost(cell.NAE) {
			return nil, fmt.Errorf("chaoslatency: severity %g produced invalid NAE %v", sev, cell.NAE)
		}
		cells = append(cells, cell)
	}

	// Bounded inflation: a 10x slower disk must not wreck accuracy — the
	// models observe the charged latency and re-tune to the degraded
	// service times. The fault-free NAE is the baseline's, which the
	// severity-0 cell matched bit for bit.
	if base := baseline.NAE; base > 0 {
		for _, c := range cells {
			if c.NAE > chaosLatencyMaxNAEInflation*base {
				return nil, fmt.Errorf("chaoslatency: severity %g NAE %.4f exceeds %gx the fault-free %.4f — self-tuning failed to absorb the slow disk",
					c.Severity, c.NAE, chaosLatencyMaxNAEInflation, base)
			}
		}
	}
	return cells, nil
}

// runChaosLatencyCell drives the feedback loop for both UDFs at one
// severity. resilient=false runs the identical workload with the plain
// (pre-resilience) loop for the transparency baseline.
func runChaosLatencyCell(sev float64, resilient bool, opts Options, dir string) (ChaosLatencyCell, error) {
	cell := ChaosLatencyCell{Severity: sev}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cell, err
	}

	// Fresh databases per cell: cache state, injected latency, and retry
	// charges must not leak across severities.
	tdb, err := textdb.Generate(textdb.Config{Seed: opts.Seed})
	if err != nil {
		return cell, err
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{Seed: opts.Seed + 1})
	if err != nil {
		return cell, err
	}
	udfs := []udf.UDF{tdb.UDFs()[0], sdb.UDFs()[1]} // SIMPLE and WIN
	caches := []*buffercache.Cache{tdb.Cache(), sdb.Cache()}
	stores := []*pagestore.Store{tdb.Store(), sdb.Store()}

	var inj *faults.Injector
	if resilient {
		inj = faults.New(opts.Seed + int64(sev*1e3) + 7919)
		inj.Enable(faults.PageLatency, faults.SiteConfig{
			Probability: 1,
			Delay:       time.Duration(sev * float64(buffercache.DefaultUnitLatency)),
		})
		inj.Enable(faults.PageRead, faults.SiteConfig{Probability: sev * chaosLatencyFaultScale})
		for _, c := range caches {
			c.SetRetryPolicy(chaosLatencyRetry)
			c.SetReadLatency(func(pagestore.PageID) time.Duration { return inj.PageReadDelay() })
		}
		for _, st := range stores {
			st.SetReadFault(func(pagestore.PageID) error { return inj.PageReadError() })
		}
		if opts.Telemetry != nil {
			tdb.Cache().Instrument(opts.Telemetry, telemetry.L("db", "text"), telemetry.L("exp", "chaoslatency"))
			sdb.Cache().Instrument(opts.Telemetry, telemetry.L("db", "spatial"), telemetry.L("exp", "chaoslatency"))
		}
	}

	states := make([]*chaosLatencyState, len(udfs))
	for i, u := range udfs {
		model, err := NewModel(MLQE, u.Region(), opts, nil)
		if err != nil {
			return cell, err
		}
		mlq := model.(*core.MLQ)
		src, err := dist.NewSourceSeeded(dist.KindUniform, u.Region(), opts.Queries, opts.Seed, opts.Seed+1)
		if err != nil {
			return cell, err
		}
		st := &chaosLatencyState{u: u, mlq: mlq, src: src}
		if resilient {
			st.jpath = filepath.Join(dir, u.Name()+".mlqj")
			st.jn, err = journal.Create(st.jpath, journal.WithEvents(opts.Events))
			if err != nil {
				return cell, err
			}
			st.pub, err = core.NewPublisher(mlq, core.PublisherConfig{Journal: st.jn, Events: opts.Events})
			if err != nil {
				return cell, err
			}
			if opts.Telemetry != nil {
				st.pub.Instrument(opts.Telemetry, telemetry.L("udf", u.Name()), telemetry.L("exp", "chaoslatency"))
			}
		}
		states[i] = st
	}

	var nae metrics.NAE
	for q := 0; q < opts.Queries; q++ {
		for _, s := range states {
			p := s.src.Next()
			var pred float64
			var ok bool
			if resilient {
				pred, ok = s.pub.Predict(p)
			} else {
				pred, ok = s.mlq.Predict(p)
			}
			cell.Executions++
			_, io, err := s.u.Execute(p)
			if err != nil {
				// A read fault survived every retry: the execution is lost,
				// the loop is not.
				cell.ExecFailures++
				continue
			}
			if ok {
				if !core.ValidCost(pred) {
					return cell, fmt.Errorf("model %s predicted invalid %v", s.u.Name(), pred)
				}
				nae.Add(pred, io)
			}
			if resilient {
				if err := s.pub.Observe(p, io); err != nil {
					return cell, fmt.Errorf("observe through publisher: %w", err)
				}
				// Flush per query: the serial experiment wants the paper's
				// synchronous loop, just routed through the resilient path.
				if err := s.pub.Flush(); err != nil {
					return cell, fmt.Errorf("flush: %w", err)
				}
			} else {
				if err := s.mlq.Observe(p, io); err != nil {
					return cell, fmt.Errorf("observe: %w", err)
				}
			}
		}
	}
	cell.NAE = nae.Value()

	if !resilient {
		return cell, nil
	}
	for _, c := range caches {
		rs := c.RetryStats()
		cell.SlowReads += rs.SlowReads
		cell.Retries += rs.Retries
		cell.ChargedUnits += c.ChargedUnits()
	}
	for _, s := range states {
		if err := s.pub.Close(); err != nil {
			return cell, fmt.Errorf("close publisher: %w", err)
		}
		st := s.pub.Stats()
		cell.Pub.Submitted += st.Submitted
		cell.Pub.Applied += st.Applied
		cell.Pub.Journaled += st.Journaled
		cell.Pub.JournalErrors += st.JournalErrors
		cell.Journaled += st.Journaled
		if st.Applied != st.Submitted || st.JournalErrors != 0 {
			return cell, fmt.Errorf("publisher accounting inconsistent for %s: %+v", s.u.Name(), st)
		}
		if err := s.jn.Close(); err != nil {
			return cell, err
		}
		// Replay equivalence: a fresh model fed the journal must be
		// byte-identical to the live one — proof that a restart loses
		// nothing that was journaled.
		replayModel, err := NewModel(MLQE, s.u.Region(), opts, nil)
		if err != nil {
			return cell, err
		}
		replayed, torn, err := core.ReplayJournal(replayModel.(*core.MLQ), s.jpath)
		if err != nil {
			return cell, fmt.Errorf("replay %s: %w", s.jpath, err)
		}
		if torn != 0 {
			return cell, fmt.Errorf("journal %s torn by %d bytes on a clean run", s.jpath, torn)
		}
		cell.Replayed += int64(replayed)
		var live, rep bytes.Buffer
		if _, err := s.mlq.WriteTo(&live); err != nil {
			return cell, err
		}
		if _, err := replayModel.(*core.MLQ).WriteTo(&rep); err != nil {
			return cell, err
		}
		if !bytes.Equal(live.Bytes(), rep.Bytes()) {
			return cell, fmt.Errorf("journal replay of %s diverged from the live model", s.u.Name())
		}
	}
	return cell, nil
}
