package harness

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"mlq/internal/catalog"
	"mlq/internal/core"
	"mlq/internal/dist"
	"mlq/internal/engine"
	"mlq/internal/faults"
	"mlq/internal/geom"
	"mlq/internal/histogram"
	"mlq/internal/metrics"
	"mlq/internal/pagestore"
	"mlq/internal/spatialdb"
	"mlq/internal/telemetry"
	"mlq/internal/textdb"
	"mlq/internal/udf"
)

// Relative per-site fault intensities: one swept "rate" drives all four
// sites, scaled to each site's consultation frequency. Cost corruption and
// panics are per UDF execution; the page-read site is consulted per physical
// page access (hundreds per execution), so it gets a much smaller scale; the
// tear site is consulted only once per catalog save, so it gets a larger one.
const (
	chaosPanicScale    = 0.25
	chaosPageReadScale = 0.005
	chaosTearScale     = 2.0
)

// chaosRates are the swept fault rates. Rate 0 doubles as the transparency
// assertion: its NAE must equal a run with no injector installed at all, bit
// for bit.
var chaosRates = []float64{0, 0.01, 0.05, 0.1, 0.2}

// chaosSaves is how many catalog save/load cycles each cell performs (the
// torn-write fault site fires inside them).
const chaosSaves = 5

// ChaosCell is one swept fault rate's outcome: accuracy under fire plus every
// fault-handling counter that proves the hardening worked instead of silently
// absorbing data loss.
type ChaosCell struct {
	Rate float64
	// NAE is prediction accuracy against the true (uncorrupted) cost;
	// failed executions contribute no sample.
	NAE float64

	Executions   int64 // UDF executions attempted
	ExecFailures int64 // executions lost to injected panics or page faults
	Corrupted    int64 // observed costs the injector corrupted
	Quarantined  int64 // invalid observations stopped before the models
	Rejected     int64 // model-rejected observations absorbed
	Skipped      int64 // observations dropped by open breakers
	BreakerTrips int64 // times a breaker opened
	PageFaults   int64 // injected page-read failures
	Panics       int64 // injected UDF panics
	Tears        int64 // torn catalog writes
	Saves        int64 // catalog save/load cycles
	FailedSaves  int64 // saves that reported an error (truncating tears)
	Degraded     int64 // catalog loads needing salvage or the .bak

	// Health is the per-UDF fault-handling breakdown: which predicate
	// absorbed the panics, quarantines and breaker trips the aggregate
	// counters above sum over.
	Health []ChaosUDFHealth
}

// ChaosUDFHealth is one UDF's fault-handling record within a chaos cell.
type ChaosUDFHealth struct {
	UDF          string
	ExecFailures int64 // executions lost to injected panics or page faults
	Guard        engine.GuardStats
}

// chaosState is one UDF's feedback loop under chaos: a fresh self-tuning MLQ
// fronted by the graceful-degradation chain, fed through an observation
// guard, persisted to (and re-adopted from) the catalog mid-run.
type chaosState struct {
	u     udf.UDF
	mlq   *core.MLQ
	fb    *core.Fallback
	hist  *histogram.Histogram
	prior float64
	guard engine.Guard
	src   dist.PointSource

	execFailures int64 // per-UDF share of the cell's ExecFailures

	// Telemetry handles (all inert when telemetry is disabled).
	label   telemetry.Label
	preds   *telemetry.Counter
	gm      *engine.GuardMetrics
	tracker *telemetry.ErrorTracker
	// Stage span histograms. save is per cell, not per UDF, so it carries no
	// label and every state holds the same series.
	predictSpan, executeSpan, observeSpan, saveSpan *telemetry.Histogram
}

// instrument attaches the state's current model tree, feedback counters and
// stage spans to the options' registry. Called once per cell and again after a
// catalog reload swaps in an adopted tree — the registry hands back the same
// series for the same labels, so the metrics continue seamlessly.
func (s *chaosState) instrument(opts Options) {
	if opts.Telemetry == nil {
		return
	}
	s.label = telemetry.L("udf", s.u.Name())
	s.mlq.Tree().Instrument(opts.Telemetry, s.label)
	s.preds = opts.Telemetry.Counter("mlq_engine_predictions_total",
		"model Predict calls made while planning", s.label)
	s.gm = engine.NewGuardMetrics(opts.Telemetry, s.label)
	if s.tracker == nil {
		s.tracker = telemetry.NewErrorTracker(opts.Telemetry, s.label)
	}
	s.predictSpan = opts.Telemetry.Span("predict", s.label)
	s.executeSpan = opts.Telemetry.Span("execute", s.label)
	s.observeSpan = opts.Telemetry.Span("observe", s.label)
	s.saveSpan = opts.Telemetry.Span("save")
}

// stageStart starts timing a stage into span h. With telemetry disabled (h
// nil) it reads no clock.
func stageStart(h *telemetry.Histogram) time.Time {
	if h == nil {
		return time.Time{}
	}
	return telemetry.Wall.Now()
}

// stageEnd records the stage begun at start into h; a no-op when h is nil.
func stageEnd(h *telemetry.Histogram, start time.Time) {
	if h != nil {
		h.Observe(telemetry.Wall.Now().Sub(start).Seconds())
	}
}

// Chaos runs the robustness experiment: the full Figure-1 feedback loop —
// predict, execute a real UDF, observe the measured cost, periodically
// persist the models — with the fault injector firing at each swept rate
// across all four sites (corrupted observations, UDF panics, page-read
// failures, torn catalog writes). It reports NAE degradation per rate and
// enforces the hardening contract: no crash at any rate, predictions always
// valid, and a zero-rate injector indistinguishable from no injector at all.
func Chaos(opts Options) ([]ChaosCell, error) {
	opts = opts.withDefaults()

	tdb, err := textdb.Generate(textdb.Config{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{Seed: opts.Seed + 1})
	if err != nil {
		return nil, err
	}
	udfs := []udf.UDF{tdb.UDFs()[0], sdb.UDFs()[1]} // SIMPLE and WIN
	stores := []*pagestore.Store{tdb.Store(), sdb.Store()}

	if opts.Telemetry != nil {
		// The page caches and the catalog persist across cells, so they are
		// instrumented once; the per-cell model trees and guards re-attach
		// inside runChaosCell.
		tdb.Cache().Instrument(opts.Telemetry, telemetry.L("db", "text"))
		sdb.Cache().Instrument(opts.Telemetry, telemetry.L("db", "spatial"))
		catalog.Instrument(opts.Telemetry)
	}

	// A-priori training for the static fallback level and the constant
	// prior, collected before any fault site is armed.
	hists := make([]*histogram.Histogram, len(udfs))
	priors := make([]float64, len(udfs))
	for i, u := range udfs {
		samples, err := realTraining(u, dist.KindUniform, CPUCost, opts)
		if err != nil {
			return nil, err
		}
		hists[i], err = histogram.Train(histogram.EquiHeight,
			histogram.Config{Region: u.Region(), MemoryLimit: opts.MemoryLimit}, samples)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, s := range samples {
			sum += s.Value
		}
		priors[i] = sum / float64(len(samples))
	}

	dir, err := os.MkdirTemp("", "mlq-chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The non-chaos reference run: no injector installed anywhere.
	baseline, err := runChaosCell(nil, 0, udfs, stores, hists, priors, opts,
		filepath.Join(dir, "baseline"))
	if err != nil {
		return nil, err
	}

	var cells []ChaosCell
	for ci, rate := range chaosRates {
		inj := faults.New(opts.Seed + int64(ci)*7919)
		inj.Enable(faults.ObserveCost, faults.SiteConfig{Probability: rate})
		inj.Enable(faults.UDFPanic, faults.SiteConfig{Probability: rate * chaosPanicScale})
		inj.Enable(faults.PageRead, faults.SiteConfig{Probability: rate * chaosPageReadScale})
		inj.Enable(faults.CatalogTear, faults.SiteConfig{Probability: rate * chaosTearScale})
		cell, err := runChaosCell(inj, rate, udfs, stores, hists, priors, opts,
			filepath.Join(dir, fmt.Sprintf("cell%d", ci)))
		if err != nil {
			return nil, fmt.Errorf("chaos: rate %g: %w", rate, err)
		}
		//lint:ignore floatguard the rate grid uses literal 0 as the no-fault cell
		if rate == 0 {
			// Transparency: an armed-but-idle injector must not perturb the
			// run by a single bit.
			//lint:ignore floatguard the transparency check demands bit-exact equality
			if cell.NAE != baseline.NAE {
				return nil, fmt.Errorf("chaos: rate-0 NAE %v != non-chaos baseline %v — injector is not transparent when idle",
					cell.NAE, baseline.NAE)
			}
			if cell.ExecFailures+cell.Corrupted+cell.Quarantined+cell.Rejected+
				cell.Skipped+cell.PageFaults+cell.Panics+cell.Tears+cell.FailedSaves+cell.Degraded != 0 {
				return nil, fmt.Errorf("chaos: rate-0 cell reported fault activity: %+v", cell)
			}
		}
		// Bounded loss: the survived run must still have produced a usable
		// accuracy number, not a poisoned one.
		if !core.ValidCost(cell.NAE) {
			return nil, fmt.Errorf("chaos: rate %g produced invalid NAE %v", rate, cell.NAE)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// runChaosCell drives the feedback loop for every UDF at one fault rate. A
// nil injector runs the identical loop with every fault site transparent.
func runChaosCell(inj *faults.Injector, rate float64, udfs []udf.UDF, stores []*pagestore.Store,
	hists []*histogram.Histogram, priors []float64, opts Options, dir string) (ChaosCell, error) {
	cell := ChaosCell{Rate: rate}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cell, err
	}
	for _, st := range stores {
		st.SetReadFault(func(pagestore.PageID) error { return inj.PageReadError() })
	}
	defer func() {
		for _, st := range stores {
			st.SetReadFault(nil)
		}
	}()

	states := make([]*chaosState, len(udfs))
	for i, u := range udfs {
		model, err := NewModel(MLQE, u.Region(), opts, nil)
		if err != nil {
			return cell, err
		}
		mlq := model.(*core.MLQ)
		fb, err := core.NewFallback(priors[i], mlq, hists[i])
		if err != nil {
			return cell, err
		}
		src, err := dist.NewSourceSeeded(dist.KindUniform, u.Region(), opts.Queries, opts.Seed, opts.Seed+1)
		if err != nil {
			return cell, err
		}
		states[i] = &chaosState{
			u: u, mlq: mlq, fb: fb, hist: hists[i], prior: priors[i],
			src: src,
		}
		states[i].instrument(opts)
	}

	saveEvery := max(opts.Queries/chaosSaves, 1)
	path := filepath.Join(dir, "models.cat")
	var nae metrics.NAE
	for q := 0; q < opts.Queries; q++ {
		for _, s := range states {
			p := s.src.Next()
			start := stageStart(s.predictSpan)
			pred, ok := s.fb.Predict(p)
			stageEnd(s.predictSpan, start)
			s.preds.Inc()
			if !ok || !core.ValidCost(pred) {
				return cell, fmt.Errorf("model %s answered invalid prediction (%v, %v) — degradation chain broken",
					s.fb.Name(), pred, ok)
			}
			cell.Executions++
			start = stageStart(s.executeSpan)
			actual, failed := chaosExecute(s.u, p, inj)
			stageEnd(s.executeSpan, start)
			if failed {
				// The execution produced no cost: no sample, no feedback,
				// and — the entire point — no crash.
				cell.ExecFailures++
				s.execFailures++
				continue
			}
			nae.Add(pred, actual)
			s.tracker.Observe(pred, actual)
			obs, corrupted := inj.MaybeCorruptCost(actual)
			if corrupted {
				cell.Corrupted++
			}
			start = stageStart(s.observeSpan)
			fed := s.guard.Feed(s.fb, p, obs)
			stageEnd(s.observeSpan, start)
			switch fed {
			case engine.FedQuarantined:
				cell.Quarantined++
			case engine.FedRejected:
				cell.Rejected++
			case engine.FedSkipped:
				cell.Skipped++
			}
			s.gm.Publish(s.guard.Stats())
		}
		if (q+1)%saveEvery == 0 {
			save := states[0].saveSpan
			start := stageStart(save)
			err := chaosSaveLoad(path, states, inj, &cell, opts)
			stageEnd(save, start)
			if err != nil {
				return cell, err
			}
		}
	}
	cell.NAE = nae.Value()
	for _, s := range states {
		cell.BreakerTrips += s.guard.Stats().Trips
		cell.Health = append(cell.Health, ChaosUDFHealth{
			UDF:          s.u.Name(),
			ExecFailures: s.execFailures,
			Guard:        s.guard.Stats(),
		})
	}
	cell.PageFaults = inj.Stats(faults.PageRead).Fired
	cell.Panics = inj.Stats(faults.UDFPanic).Fired
	cell.Tears = inj.Stats(faults.CatalogTear).Fired
	return cell, nil
}

// chaosExecute runs one UDF invocation with panic isolation, the injector
// supplying both panics (directly) and page faults (via the store hook).
func chaosExecute(u udf.UDF, p geom.Point, inj *faults.Injector) (cost float64, failed bool) {
	defer func() {
		if r := recover(); r != nil {
			cost, failed = 0, true
		}
	}()
	inj.MaybePanic()
	cpu, _, err := u.Execute(p)
	if err != nil {
		return 0, true
	}
	return cpu, false
}

// chaosSaveLoad persists the self-tuning models through the (possibly torn)
// catalog path and adopts whatever survives the load — simulating a restart
// mid-workload. A truncating tear fails the save and the previous generation
// lives on; a bit-flip tear corrupts the primary silently and the load
// salvages around it.
func chaosSaveLoad(path string, states []*chaosState, inj *faults.Injector, cell *ChaosCell, opts Options) error {
	c := catalog.New()
	for _, s := range states {
		if err := c.Put(s.u.Name(), s.mlq, nil); err != nil {
			return err
		}
	}
	cell.Saves++
	if err := catalog.SaveFile(path, c, catalog.WithWriterWrapper(inj.TearWriter)); err != nil {
		cell.FailedSaves++
	}
	got, rep, err := catalog.LoadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// The very first save was torn before anything reached disk;
			// the in-memory models carry on.
			cell.Degraded++
			return nil
		}
		return fmt.Errorf("catalog lost entirely after torn save: %w", err)
	}
	if rep.Degraded() {
		cell.Degraded++
	}
	for _, s := range states {
		e, ok := got.Get(s.u.Name())
		if !ok || e.CPU == nil {
			continue // dropped entry: keep the live model
		}
		mlq, ok := e.CPU.(*core.MLQ)
		if !ok {
			continue
		}
		fb, err := core.NewFallback(s.prior, mlq, s.hist)
		if err != nil {
			return err
		}
		s.mlq, s.fb = mlq, fb
		// The adopted tree replaces the instrumented one; re-attach so its
		// (continuing) series track the model that is actually live.
		s.instrument(opts)
	}
	return nil
}
