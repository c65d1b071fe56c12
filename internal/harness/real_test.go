package harness

import (
	"slices"
	"strings"
	"testing"

	"mlq/internal/dist"
	"mlq/internal/spatialdb"
	"mlq/internal/textdb"
	"mlq/internal/udf"
)

// testUDFs builds one text and one spatial UDF over small databases.
func testUDFs(t *testing.T) (text udf.UDF, spatial udf.UDF) {
	t.Helper()
	tdb, err := textdb.Generate(textdb.Config{
		NumDocs: 400, VocabSize: 300, MeanDocLen: 40,
		PageSize: 512, CachePages: 16, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := spatialdb.Generate(spatialdb.Config{
		Extent: 300, NumObjects: 1500, GridSize: 12,
		PageSize: 512, CachePages: 16, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tdb.UDFs()[0], sdb.UDFs()[1] // SIMPLE and WIN
}

func realOpts() Options {
	return Options{Queries: 400, TrainQueries: 400, Seed: 11}
}

func TestRunRealNAEAllMethods(t *testing.T) {
	text, spatial := testUDFs(t)
	for _, u := range []udf.UDF{text, spatial} {
		for _, m := range Methods() {
			nae, err := RunRealNAE(m, u, dist.KindUniform, CPUCost, realOpts())
			if err != nil {
				t.Fatalf("%s/%v: %v", u.Name(), m, err)
			}
			// CPU cost surfaces of the real UDFs are learnable: every
			// method must clearly beat the zero predictor.
			if nae <= 0 || nae >= 1 {
				t.Errorf("%s/%v: CPU NAE = %g, want in (0, 1)", u.Name(), m, nae)
			}
		}
	}
}

func TestRunRealNAEIOCost(t *testing.T) {
	_, spatial := testUDFs(t)
	nae, err := RunRealNAE(MLQE, spatial, dist.KindUniform, IOCost, realOpts())
	if err != nil {
		t.Fatal(err)
	}
	// IO is noisy; just require finite, positive, and far better than a
	// wild guess.
	if nae <= 0 || nae > 2 {
		t.Errorf("IO NAE = %g, want in (0, 2]", nae)
	}
}

func TestFig9GridSmall(t *testing.T) {
	text, _ := testUDFs(t)
	opts := realOpts()
	opts.Queries = 200
	opts.TrainQueries = 200
	rows, err := Fig9([]udf.UDF{text}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 1 UDF x 3 distributions
		t.Fatalf("got %d rows", len(rows))
	}
	out := tableString(RenderFig9("Figure 9", rows))
	if !strings.Contains(out, "SIMPLE") {
		t.Error("render missing UDF name")
	}
}

// TestFig10RealShape runs the same seeded Fig. 10 measurement three times,
// each on a freshly built substrate, and bounds the median of each
// method's PC and MUC: one host stall inside a timed call or compression
// moves one run's wall-time ratio, not the median of three. The shape of
// every run is checked as it stands; the compression counts, which no
// clock decides, must agree across the runs.
func TestFig10RealShape(t *testing.T) {
	const runs = 3
	pc, muc := map[Method][]float64{}, map[Method][]float64{}
	compressions := map[Method]int64{}
	for i := 0; i < runs; i++ {
		_, spatial := testUDFs(t)
		opts := realOpts()
		opts.Queries = 600
		rows, err := Fig10Real(spatial, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("got %d rows", len(rows))
		}
		for _, r := range rows {
			if r.Workload != "WIN" {
				t.Errorf("workload %q", r.Workload)
			}
			if r.PC <= 0 || r.MUC <= 0 {
				t.Errorf("%v: empty breakdown %+v", r.Method, r)
			}
			if c, ok := compressions[r.Method]; ok && c != r.Compressions {
				t.Errorf("%v: %d compressions, %d in an earlier run of the same seed", r.Method, r.Compressions, c)
			}
			compressions[r.Method] = r.Compressions
			pc[r.Method] = append(pc[r.Method], r.PC)
			muc[r.Method] = append(muc[r.Method], r.MUC)
		}
	}
	median := func(v []float64) float64 {
		v = slices.Clone(v)
		slices.Sort(v)
		return v[len(v)/2]
	}
	for m := range pc {
		// The paper's key claim: modeling overhead is a small fraction
		// of real UDF execution cost (PC ~0.02%, MUC <= 1.2%). Our
		// simulated UDFs are faster than Oracle's, so allow up to 20%.
		if p, u := median(pc[m]), median(muc[m]); p > 0.2 || u > 0.5 {
			t.Errorf("%v: overhead too high: median PC %g, MUC %g over runs PC %v, MUC %v", m, p, u, pc[m], muc[m])
		}
	}
}

func TestFig11aGridSmall(t *testing.T) {
	_, spatial := testUDFs(t)
	opts := realOpts()
	opts.Queries = 200
	opts.TrainQueries = 200
	rows, err := Fig11a([]udf.UDF{spatial}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for m, v := range r.NAE {
			if v < 0 {
				t.Errorf("%s/%v: negative NAE", r.UDF, m)
			}
		}
	}
}

func TestFig12RealCurves(t *testing.T) {
	text, _ := testUDFs(t)
	opts := realOpts()
	opts.Queries = 800
	series, err := Fig12Real(text, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("%v: empty curve", s.Method)
		}
		first := s.Points[0].NAE
		last := s.Points[len(s.Points)-1].NAE
		if last >= first {
			t.Errorf("%v: curve did not improve (%.4f -> %.4f)", s.Method, first, last)
		}
	}
}
