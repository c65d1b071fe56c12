package harness

import (
	"strings"
	"testing"

	"mlq/internal/dist"
	"mlq/internal/geom"
	"mlq/internal/geom/geomtest"
	"mlq/internal/histogram"
	"mlq/internal/synthetic"
)

// fastOpts shrinks the workloads so tests run quickly while keeping the
// qualitative shapes intact.
func fastOpts() Options {
	return Options{Queries: 1200, TrainQueries: 1200, Seed: 42}
}

func TestMethodNamesAndSelfTuning(t *testing.T) {
	want := map[Method]string{MLQE: "MLQ-E", MLQL: "MLQ-L", SHH: "SH-H", SHW: "SH-W"}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), name)
		}
	}
	if !MLQE.SelfTuning() || !MLQL.SelfTuning() || SHH.SelfTuning() || SHW.SelfTuning() {
		t.Error("SelfTuning flags wrong")
	}
	if len(Methods()) != 4 {
		t.Error("Methods() must list all four")
	}
	if !strings.Contains(Method(9).String(), "9") {
		t.Error("unknown method must render")
	}
}

func TestNewModelAllMethods(t *testing.T) {
	region := geomtest.MustRect(geom.Point{0, 0}, geom.Point{10, 10})
	training := []histogram.Sample{{Point: geom.Point{1, 1}, Value: 5}}
	for _, m := range Methods() {
		model, err := NewModel(m, region, Options{}, training)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if model.Name() != m.String() {
			t.Errorf("%v: model name %q", m, model.Name())
		}
	}
	if _, err := NewModel(Method(9), region, Options{}, nil); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestRunSyntheticNAEAllMethodsReasonable(t *testing.T) {
	surface, err := synthetic.Generate(synthetic.Config{Seed: 42, NumPeaks: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		// On the clustered workload every method must beat the trivial
		// zero predictor (NAE 1) clearly.
		nae, err := RunSyntheticNAE(m, surface, dist.KindGaussianRandom, fastOpts())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if nae <= 0 || nae >= 1 {
			t.Errorf("%v gauss-rand: NAE = %g, want in (0, 1)", m, nae)
		}
		// The sparse surface under uniform queries is the hardest cell;
		// errors still must stay within a sane band.
		nae, err = RunSyntheticNAE(m, surface, dist.KindUniform, fastOpts())
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if nae <= 0 || nae >= 2.5 {
			t.Errorf("%v uniform: NAE = %g, want in (0, 2.5)", m, nae)
		}
	}
}

// The paper's headline (Fig. 8): MLQ-E performs the same as or better than
// the SH methods on synthetic data, despite learning on-line.
func TestMLQECompetitiveWithSHOnSynthetic(t *testing.T) {
	opts := fastOpts()
	for _, peaks := range []int{10, 50} {
		surface, err := synthetic.Generate(synthetic.Config{Seed: 7, NumPeaks: peaks})
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range dist.Kinds() {
			mlqe, err := RunSyntheticNAE(MLQE, surface, kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			shw, err := RunSyntheticNAE(SHW, surface, kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Allow a modest margin: the paper reports "same or
			// better"; in our substrate SH is marginally ahead on
			// uniform queries and MLQ ahead on skewed ones (see
			// EXPERIMENTS.md).
			if mlqe > shw+0.3 {
				t.Errorf("peaks=%d %v: MLQ-E NAE %.4f much worse than SH-W %.4f",
					peaks, kind, mlqe, shw)
			}
		}
	}
}

func TestFig8ProducesFullGrid(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 600
	opts.TrainQueries = 600
	rows, err := Fig8([]int{1, 50}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 distributions x 2 peak counts
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if len(r.NAE) != 4 {
			t.Errorf("row %+v missing methods", r)
		}
	}
	out := tableString(RenderFig8(rows))
	if !strings.Contains(out, "MLQ-E") || !strings.Contains(out, "GAUSS-SEQ") {
		t.Errorf("render missing columns:\n%s", out)
	}
}

// Fig. 10's qualitative claims: prediction cost is a tiny fraction of UDF
// execution cost, and MLQ-L's update cost is below MLQ-E's.
func TestFig10SyntheticShape(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 3000
	rows, err := Fig10Synthetic(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	byMethod := map[Method]CostBreakdown{}
	for _, r := range rows {
		byMethod[r.Method] = r
		if r.PC <= 0 || r.MUC <= 0 {
			t.Errorf("%v: empty cost breakdown %+v", r.Method, r)
		}
		if r.MUC < r.IC || r.MUC < r.CC {
			t.Errorf("%v: MUC %g below its components IC=%g CC=%g", r.Method, r.MUC, r.IC, r.CC)
		}
		// Modeling overhead must be small relative to execution cost
		// (the paper reports PC ~0.02%, MUC <= 1.2% for real UDFs; give
		// the synthetic surrogate a generous ceiling).
		if r.PC > 0.2 {
			t.Errorf("%v: PC fraction %g implausibly high", r.Method, r.PC)
		}
	}
	if byMethod[MLQL].Compressions >= byMethod[MLQE].Compressions {
		t.Errorf("MLQ-L compressions (%d) not below MLQ-E (%d)",
			byMethod[MLQL].Compressions, byMethod[MLQE].Compressions)
	}
	out := tableString(RenderFig10("fig10", rows))
	if !strings.Contains(out, "MUC") {
		t.Error("render missing header")
	}
}

// Fig. 11(b)'s shape per the paper: "SH-H outperforms the MLQ algorithms
// ... irrespective of the amount of noise simulated" — SH-H stays at least
// as good as MLQ under noise, and β=10 keeps MLQ's error bounded (flat-ish)
// rather than exploding with the noise level.
func TestFig11bShape(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 1500
	opts.TrainQueries = 1500
	rows, err := Fig11b([]float64{0, 0.4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, m := range []Method{MLQE, MLQL} {
		drift := rows[1].NAE[m] - rows[0].NAE[m]
		if drift > 0.5 || drift < -0.5 {
			t.Errorf("%v: NAE drifted by %.4f between 0%% and 40%% noise; beta=10 should absorb it", m, drift)
		}
		if rows[1].NAE[SHH] > rows[1].NAE[m]+0.05 {
			t.Errorf("SH-H (%.4f) lost to %v (%.4f) under 40%% noise; paper has SH-H ahead",
				rows[1].NAE[SHH], m, rows[1].NAE[m])
		}
	}
	out := tableString(RenderFig11b(rows))
	if !strings.Contains(out, "noiseP") {
		t.Error("render missing header")
	}
}

// Fig. 12's shape: learning curves fall as data accumulates, and MLQ-L
// stabilizes at least as fast as MLQ-E (it caps its resolution sooner).
func TestFig12SyntheticLearningCurves(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 4000
	series, err := Fig12Synthetic(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 8 {
			t.Fatalf("%v: %d points, want 8", s.Method, len(s.Points))
		}
		first, last := s.Points[0].NAE, s.Points[len(s.Points)-1].NAE
		if last >= first {
			t.Errorf("%v: error did not improve (%.4f -> %.4f)", s.Method, first, last)
		}
	}
	out := tableString(RenderFig12("fig12", series))
	if !strings.Contains(out, "SYNTH/MLQ-E") {
		t.Errorf("render missing series header:\n%s", out)
	}
}

func TestAblateValidation(t *testing.T) {
	if _, err := Ablate("nonsense", nil, fastOpts()); err == nil {
		t.Error("unknown parameter accepted")
	}
	if len(AblationParams()) != 6 {
		t.Error("expected six sweepable parameters")
	}
	for _, p := range AblationParams() {
		if len(DefaultAblationValues(p)) == 0 {
			t.Errorf("no default values for %q", p)
		}
	}
	if DefaultAblationValues("nope") != nil {
		t.Error("unknown parameter must have no defaults")
	}
}

func TestAblateMemorySweep(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 1500
	rows, err := Ablate("memory", []float64{400, 8192}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 values x 2 methods
		t.Fatalf("got %d rows", len(rows))
	}
	// More memory must not make accuracy dramatically worse, and the
	// small-memory runs must compress more.
	byKey := map[string]AblationRow{}
	for _, r := range rows {
		byKey[r.Method.String()+"/"+f4(r.Value)] = r
	}
	small := byKey["MLQ-E/400.0000"]
	big := byKey["MLQ-E/8192.0000"]
	if small.Compressions <= big.Compressions {
		t.Errorf("small memory compressed %d times, big %d; expected more under pressure",
			small.Compressions, big.Compressions)
	}
	if big.NAE > small.NAE+0.05 {
		t.Errorf("8KB model (NAE %.4f) much worse than 400B model (NAE %.4f)", big.NAE, small.NAE)
	}
	out := tableString(RenderAblation(rows))
	if !strings.Contains(out, "memory") {
		t.Error("render missing title")
	}
}

func TestAblateAlphaOnlyLazy(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 800
	rows, err := Ablate("alpha", []float64{0.05, 0.5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Method != MLQL {
			t.Errorf("alpha sweep included %v", r.Method)
		}
	}
}

// tableString renders a table as mlqbench prints it.
func tableString(t Table) string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "T", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("longer", "x")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	if !strings.HasPrefix(out, "T\n") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "longer") || !strings.Contains(out, "---") {
		t.Errorf("bad table:\n%s", out)
	}
}

func TestCostKindString(t *testing.T) {
	if CPUCost.String() != "CPU" || IOCost.String() != "IO" {
		t.Error("cost kind names wrong")
	}
	if CPUCost.pick(1, 2) != 1 || IOCost.pick(1, 2) != 2 {
		t.Error("pick broken")
	}
}

// The motivation experiment: after the workload shifts, the self-tuning
// methods must clearly beat the statically trained ones.
func TestShiftSelfTuningWinsAfterShift(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 2400
	opts.TrainQueries = 1200
	series, err := Shift(8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	byMethod := map[Method]ShiftSeries{}
	for _, s := range series {
		byMethod[s.Method] = s
		if len(s.Points) != 8 {
			t.Errorf("%v: %d curve points, want 8", s.Method, len(s.Points))
		}
	}
	// SH-H fits its bucket boundaries to the stale training marginals, so
	// the shift is catastrophic for it; the self-tuning methods must beat
	// it decisively. (SH-W's uniform boundaries are distribution-agnostic
	// — mediocre everywhere rather than catastrophic — so no strong claim
	// holds against it.)
	for _, m := range []Method{MLQE, MLQL} {
		if byMethod[m].After >= byMethod[SHH].After {
			t.Errorf("after shift, %v (%.4f) did not beat SH-H (%.4f)",
				m, byMethod[m].After, byMethod[SHH].After)
		}
		if byMethod[m].After > byMethod[SHW].After+0.5 {
			t.Errorf("after shift, %v (%.4f) far behind even SH-W (%.4f)",
				m, byMethod[m].After, byMethod[SHW].After)
		}
	}
	// Pre-shift, the statically trained models are competitive (they were
	// trained on exactly this distribution).
	if byMethod[SHH].Before > 3*byMethod[MLQE].Before+0.5 {
		t.Errorf("SH-H pre-shift NAE %.4f implausibly bad vs MLQ-E %.4f",
			byMethod[SHH].Before, byMethod[MLQE].Before)
	}
	if tables := RenderShift(series); len(tables) != 2 || !strings.Contains(tableString(tables[1]), "before") {
		t.Error("render missing aggregate table")
	}
}

// The compression-policy ablation: the paper's SSEG ordering must not lose
// to random eviction on a skewed workload.
func TestAblatePolicy(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 1500
	rows, err := Ablate("policy", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 policies x 2 methods
		t.Fatalf("got %d rows", len(rows))
	}
	out := tableString(RenderAblation(rows))
	if !strings.Contains(out, "sseg") || !strings.Contains(out, "random") {
		t.Errorf("render missing policy names:\n%s", out)
	}
}

func TestFig8ReplicatedTrials(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 400
	opts.TrainQueries = 400
	opts.Trials = 3
	rows, err := Fig8([]int{50}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	sawSpread := false
	for _, r := range rows {
		for _, m := range Methods() {
			if r.StdDev[m] < 0 {
				t.Errorf("negative stddev for %v", m)
			}
			if r.StdDev[m] > 0 {
				sawSpread = true
			}
		}
	}
	if !sawSpread {
		t.Error("three independent trials produced identical NAE everywhere; seeds not varied")
	}
	out := tableString(RenderFig8(rows))
	if !strings.Contains(out, "±") {
		t.Errorf("replicated render missing ± spread:\n%s", out)
	}
}

func TestMemCurve(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 1200
	opts.TrainQueries = 1200
	rows, err := MemCurve([]int{512, 8192}, dist.KindGaussianRandom, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, m := range Methods() {
		small, big := rows[0].NAE[m], rows[1].NAE[m]
		if small <= 0 || big <= 0 {
			t.Errorf("%v: empty NAE cells", m)
		}
		// 16x more memory must not make any method dramatically worse.
		if big > small*1.3+0.05 {
			t.Errorf("%v: NAE worsened with memory (%.4f -> %.4f)", m, small, big)
		}
	}
	// MLQ must improve substantially with a 16x budget on the clustered
	// workload (more nodes where the queries are).
	if rows[1].NAE[MLQE] >= rows[0].NAE[MLQE] {
		t.Errorf("MLQ-E did not improve with memory: %.4f -> %.4f",
			rows[0].NAE[MLQE], rows[1].NAE[MLQE])
	}
	out := tableString(RenderMemCurve("GAUSS-RAND", rows))
	if !strings.Contains(out, "bytes") {
		t.Error("render missing header")
	}
}
