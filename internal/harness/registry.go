package harness

import (
	"mlq/internal/dist"
	"mlq/internal/udf"
)

// Experiment is one entry of the experiment registry: everything mlqbench
// needs to run an experiment and print its tables.
type Experiment struct {
	Name string
	// Substrates marks entries that run on the shared text corpus and
	// spatial map (Inputs.UDFs and Inputs.Win).
	Substrates bool
	// InAll includes the entry in the default "all" run. Entries whose
	// every number is a machine-dependent wall-clock measurement stay out.
	InAll bool
	// Run executes the experiment and renders its tables.
	Run func(in Inputs) ([]Table, error)
}

// Inputs is what a registry entry runs on.
type Inputs struct {
	// Synth and Real are the options of the synthetic- and real-UDF
	// workloads, which the paper sizes differently.
	Synth, Real Options
	// UDFs are the six real UDFs, text first, and Win is the spatial
	// window query. Both are set only for entries that need Substrates.
	UDFs []udf.UDF
	Win  udf.UDF
}

// tables passes an experiment's error through, or else its rendered tables.
// The tables render before err is checked, so every renderer accepts the nil
// rows a failed experiment returns.
func tables(err error, ts ...Table) ([]Table, error) {
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// Experiments returns the registry in run order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "fig8", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := Fig8(nil, in.Synth)
			return tables(err, RenderFig8(rows))
		}},
		{Name: "fig9", Substrates: true, InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := Fig9(in.UDFs, in.Real)
			return tables(err, RenderFig9("Figure 9: prediction accuracy (NAE), real UDFs, CPU cost", rows))
		}},
		{Name: "fig10", Substrates: true, InAll: true, Run: func(in Inputs) ([]Table, error) {
			real, err := Fig10Real(in.Win, in.Real)
			if err != nil {
				return nil, err
			}
			synth, err := Fig10Synthetic(in.Synth)
			return tables(err,
				RenderFig10("Figure 10(a): modeling costs, real UDF (WIN), uniform queries", real),
				RenderFig10("Figure 10(b): modeling costs, synthetic UDF, uniform queries", synth),
			)
		}},
		{Name: "fig11", Substrates: true, InAll: true, Run: func(in Inputs) ([]Table, error) {
			real, err := Fig11a(in.UDFs, in.Real)
			if err != nil {
				return nil, err
			}
			synth, err := Fig11b(nil, in.Synth)
			return tables(err,
				RenderFig9("Figure 11(a): prediction accuracy (NAE), real UDFs, disk IO cost, beta=10", real),
				RenderFig11b(synth),
			)
		}},
		{Name: "fig12", Substrates: true, InAll: true, Run: func(in Inputs) ([]Table, error) {
			synth, err := Fig12Synthetic(25, in.Synth)
			if err != nil {
				return nil, err
			}
			real, err := Fig12Real(in.Win, 25, in.Real)
			return tables(err,
				RenderFig12("Figure 12: prediction error vs data points processed (synthetic, uniform)", synth),
				RenderFig12("Figure 12: prediction error vs data points processed (WIN, uniform)", real),
			)
		}},
		{Name: "shift", InAll: true, Run: func(in Inputs) ([]Table, error) {
			series, err := Shift(16, in.Synth)
			return tables(err, RenderShift(series)...)
		}},
		{Name: "nn", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := NNComparison(dist.KindGaussianRandom, in.Synth)
			return tables(err, RenderNN(dist.KindGaussianRandom.String(), rows))
		}},
		{Name: "cache", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := CachePolicies(in.Real)
			return tables(err, RenderCachePolicies(rows))
		}},
		{Name: "memcurve", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := MemCurve(nil, dist.KindGaussianRandom, in.Synth)
			return tables(err, RenderMemCurve(dist.KindGaussianRandom.String(), rows))
		}},
		{Name: "memwall", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := MemWall(in.Synth)
			return tables(err, RenderMemWall(rows))
		}},
		{Name: "leo", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := LEOComparison(dist.KindGaussianRandom, in.Synth)
			return tables(err, RenderLEO(dist.KindGaussianRandom.String(), rows))
		}},
		// The four chaos experiments build their own databases, fleets and
		// scratch directories: their fault hooks must never touch the
		// shared substrates.
		{Name: "chaos", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := Chaos(in.Real)
			return tables(err, RenderChaos(rows)...)
		}},
		{Name: "chaoslatency", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := ChaosLatency(in.Real)
			return tables(err, RenderChaosLatency(rows))
		}},
		{Name: "chaosrepl", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := ChaosRepl(in.Real)
			return tables(err, RenderChaosRepl(rows))
		}},
		{Name: "chaosnet", InAll: true, Run: func(in Inputs) ([]Table, error) {
			rows, err := ChaosNet(in.Real)
			return tables(err, RenderChaosNet(rows))
		}},
		{Name: "ablate", InAll: true, Run: func(in Inputs) ([]Table, error) {
			var tables []Table
			for _, param := range AblationParams() {
				rows, err := Ablate(param, nil, in.Synth)
				if err != nil {
					return nil, err
				}
				tables = append(tables, RenderAblation(rows))
			}
			return tables, nil
		}},
		// Not part of "all": every number it prints is machine-dependent
		// wall-clock throughput, so folding it into the default run would
		// make the output unstable across hosts without adding any figure
		// the paper reproduces.
		{Name: "concurrency", Run: func(in Inputs) ([]Table, error) {
			rows, err := Concurrency(in.Synth)
			return tables(err, RenderConcurrency(rows))
		}},
	}
}
