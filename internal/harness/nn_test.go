package harness

import (
	"strings"
	"testing"

	"mlq/internal/dist"
)

func TestNNComparison(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 800
	opts.TrainQueries = 800
	rows, err := NNComparison(dist.KindGaussianRandom, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]NNRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.NAE <= 0 || r.NAE > 2 {
			t.Errorf("%s: NAE = %g out of sane range", r.Name, r.NAE)
		}
		if r.RunTime <= 0 {
			t.Errorf("%s: run time not recorded", r.Name)
		}
	}
	nn, sh, mlq := byName["NN"], byName["SH-H"], byName["MLQ-E"]
	// The paper's §2.1 claim: the NN approach is "very slow to train".
	if nn.TrainTime < 10*sh.TrainTime {
		t.Errorf("NN training (%v) not clearly slower than SH-H (%v)", nn.TrainTime, sh.TrainTime)
	}
	if mlq.TrainTime != 0 {
		t.Error("MLQ has no a-priori training; TrainTime must be zero")
	}
	out := tableString(RenderNN("GAUSS-RAND", rows))
	if !strings.Contains(out, "NN") || !strings.Contains(out, "train time") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestLEOComparison(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 2000
	rows, err := LEOComparison(dist.KindGaussianRandom, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]LEORow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.NAE <= 0 || r.PeakMemory <= 0 {
			t.Errorf("%s: empty row %+v", r.Name, r)
		}
	}
	// The §2.2 storage-efficiency claim: LEO's peak working set (table +
	// log) exceeds MLQ's fixed budget, without being more accurate.
	mlq, leoRow := byName["MLQ-E"], byName["LEO"]
	if leoRow.PeakMemory <= mlq.PeakMemory {
		t.Errorf("LEO peak memory %d not above MLQ's %d", leoRow.PeakMemory, mlq.PeakMemory)
	}
	if leoRow.NAE < mlq.NAE*0.8 {
		t.Errorf("LEO (NAE %.4f) clearly beat MLQ (%.4f); unexpected given coarse grid", leoRow.NAE, mlq.NAE)
	}
	out := tableString(RenderLEO("GAUSS-RAND", rows))
	if !strings.Contains(out, "LEO") {
		t.Error("render incomplete")
	}
}

func TestCachePolicies(t *testing.T) {
	opts := fastOpts()
	opts.Queries = 250
	opts.TrainQueries = 250
	rows, err := CachePolicies(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for m, v := range r.NAE {
			if v <= 0 || v > 2 {
				t.Errorf("%v/%v: NAE %g out of range", r.Policy, m, v)
			}
		}
	}
	out := tableString(RenderCachePolicies(rows))
	if !strings.Contains(out, "fifo") {
		t.Errorf("render missing policies:\n%s", out)
	}
}
