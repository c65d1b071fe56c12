package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"mlq/internal/metrics"
	"mlq/internal/quadtree"
)

// Table is a simple aligned text table for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint writes the table to w with aligned columns. A table without a
// header (an experiment that produced no rows) writes nothing.
func (t *Table) Fprint(w io.Writer) {
	if len(t.Header) == 0 {
		return
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		line(row)
	}
}

// f4 formats a float with four decimals.
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// naeCell formats an NAE, or "-" when nothing was scored (NaN).
func naeCell(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return f4(v)
}

// pct formats a fraction as a percentage with four decimals.
func pct(v float64) string { return fmt.Sprintf("%.4f%%", v*100) }

// RenderFig8 renders Figure 8's rows; replicated runs show mean±std.
func RenderFig8(rows []Fig8Row) Table {
	t := Table{
		Title:  "Figure 8: prediction accuracy (NAE) vs number of peaks, synthetic UDFs",
		Header: []string{"dist", "peaks", "MLQ-E", "MLQ-L", "SH-H", "SH-W"},
	}
	cell := func(r Fig8Row, m Method) string {
		if r.StdDev[m] > 0 {
			return fmt.Sprintf("%.4f±%.3f", r.NAE[m], r.StdDev[m])
		}
		return f4(r.NAE[m])
	}
	for _, r := range rows {
		t.AddRow(r.Dist.String(), fmt.Sprint(r.Peaks),
			cell(r, MLQE), cell(r, MLQL), cell(r, SHH), cell(r, SHW))
	}
	return t
}

// RenderFig9 renders Figure 9's (or 11(a)'s) rows.
func RenderFig9(title string, rows []Fig9Row) Table {
	t := Table{
		Title:  title,
		Header: []string{"udf", "dist", "MLQ-E", "MLQ-L", "SH-H", "SH-W"},
	}
	for _, r := range rows {
		t.AddRow(r.UDF, r.Dist.String(),
			f4(r.NAE[MLQE]), f4(r.NAE[MLQL]), f4(r.NAE[SHH]), f4(r.NAE[SHW]))
	}
	return t
}

// RenderFig10 renders Figure 10's modeling-cost breakdowns.
func RenderFig10(title string, rows []CostBreakdown) Table {
	t := Table{
		Title:  title,
		Header: []string{"workload", "method", "PC", "IC", "CC", "MUC", "compressions"},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, r.Method.String(),
			pct(r.PC), pct(r.IC), pct(r.CC), pct(r.MUC), fmt.Sprint(r.Compressions))
	}
	return t
}

// RenderFig11b renders Figure 11(b)'s noise sweep.
func RenderFig11b(rows []Fig11bRow) Table {
	t := Table{
		Title:  "Figure 11(b): prediction accuracy (NAE) vs noise probability, synthetic UDFs, beta=10",
		Header: []string{"noiseP", "MLQ-E", "MLQ-L", "SH-H", "SH-W"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.2f", r.NoiseP),
			f4(r.NAE[MLQE]), f4(r.NAE[MLQL]), f4(r.NAE[SHH]), f4(r.NAE[SHW]))
	}
	return t
}

// RenderFig12 renders Figure 12's learning curves, one column per series.
func RenderFig12(title string, series []Fig12Series) Table {
	var names []string
	var curves [][]metrics.CurvePoint
	for _, s := range series {
		names = append(names, fmt.Sprintf("%s/%s", s.Workload, s.Method))
		curves = append(curves, s.Points)
	}
	return curveTable(title, names, curves)
}

// curveTable tabulates windowed NAE curves, one column per named curve, one
// row per window of the first; a shorter curve pads with "-".
func curveTable(title string, names []string, curves [][]metrics.CurvePoint) Table {
	if len(curves) == 0 {
		return Table{}
	}
	t := Table{Title: title, Header: append([]string{"queries"}, names...)}
	for i, p := range curves[0] {
		row := []string{fmt.Sprint(p.N)}
		for _, c := range curves {
			if i < len(c) {
				row = append(row, f4(c[i].NAE))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// RenderAblation renders a parameter sweep.
func RenderAblation(rows []AblationRow) Table {
	if len(rows) == 0 {
		return Table{}
	}
	workload := "uniform queries"
	switch rows[0].Param {
	case "policy":
		workload = "Gaussian-random queries"
	case "beta":
		workload = "uniform queries, 20% noise"
	}
	t := Table{
		Title:  fmt.Sprintf("Ablation: %s sweep (synthetic, %s)", rows[0].Param, workload),
		Header: []string{"value", "method", "NAE", "compressions"},
	}
	for _, r := range rows {
		value := fmt.Sprintf("%g", r.Value)
		if r.Param == "policy" {
			value = quadtree.CompressionPolicy(int(r.Value)).String()
		}
		t.AddRow(value, r.Method.String(), f4(r.NAE), fmt.Sprint(r.Compressions))
	}
	return t
}

// RenderShift renders the workload-shift experiment: per-window error curves
// and before/after aggregates for every method.
func RenderShift(series []ShiftSeries) []Table {
	if len(series) == 0 {
		return nil
	}
	var names []string
	var curves [][]metrics.CurvePoint
	agg := Table{Title: "Aggregate NAE before/after the shift", Header: []string{"method", "before", "after"}}
	for _, s := range series {
		names = append(names, s.Method.String())
		curves = append(curves, s.Points)
		agg.AddRow(s.Method.String(), f4(s.Before), f4(s.After))
	}
	return []Table{curveTable("Workload shift: NAE per window (clusters move at the midpoint)", names, curves), agg}
}

// RenderNN renders the neural-network comparison.
func RenderNN(kind string, rows []NNRow) Table {
	t := Table{
		Title:  fmt.Sprintf("Neural-network baseline (Boulos et al.) vs SH-H and MLQ-E (synthetic, %s)", kind),
		Header: []string{"method", "NAE", "train time", "run time"},
	}
	for _, r := range rows {
		train := "-"
		if r.TrainTime > 0 {
			train = r.TrainTime.Round(time.Millisecond).String()
		}
		t.AddRow(r.Name, f4(r.NAE), train, r.RunTime.Round(time.Millisecond).String())
	}
	return t
}

// RenderLEO renders the LEO storage-efficiency comparison.
func RenderLEO(kind string, rows []LEORow) Table {
	t := Table{
		Title:  fmt.Sprintf("LEO-style learning optimizer vs MLQ-E (synthetic, %s)", kind),
		Header: []string{"method", "NAE", "peak memory (bytes)"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, f4(r.NAE), fmt.Sprint(r.PeakMemory))
	}
	return t
}

// RenderMemCurve renders the accuracy-vs-memory sweep.
func RenderMemCurve(kind string, rows []MemCurveRow) Table {
	t := Table{
		Title:  fmt.Sprintf("Accuracy vs memory budget (synthetic, %s)", kind),
		Header: []string{"bytes", "MLQ-E", "MLQ-L", "SH-H", "SH-W"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.MemoryBytes),
			f4(r.NAE[MLQE]), f4(r.NAE[MLQL]), f4(r.NAE[SHH]), f4(r.NAE[SHW]))
	}
	return t
}

// RenderMemWall renders the global-memory-wall experiment.
func RenderMemWall(rows []MemWallRow) Table {
	t := Table{
		Title: "Global memory wall: one budget split between cost model and buffer cache\n" +
			"(migrating hot set; total = physical-read cost + |predicted-actual| cost)",
		Header: []string{"contender", "model-bytes", "cache-pages", "io-cost",
			"mispredict", "total", "moves", "bytes-moved"},
	}
	for _, r := range rows {
		mb := fmt.Sprint(r.ModelStart)
		cp := fmt.Sprint(r.CacheStart)
		if r.ModelEnd != r.ModelStart || r.CacheEnd != r.CacheStart {
			mb = fmt.Sprintf("%d>%d", r.ModelStart, r.ModelEnd)
			cp = fmt.Sprintf("%d>%d", r.CacheStart, r.CacheEnd)
		}
		t.AddRow(r.Name, mb, cp,
			fmt.Sprintf("%.1f", r.IOCost), fmt.Sprintf("%.1f", r.Mispredict),
			fmt.Sprintf("%.1f", r.Total()),
			fmt.Sprint(r.Moves), fmt.Sprint(r.BytesMoved))
	}
	return t
}

// RenderCachePolicies renders the cache-policy IO-noise experiment.
func RenderCachePolicies(rows []CachePolicyRow) Table {
	t := Table{
		Title:  "IO-cost prediction accuracy (NAE) by buffer-cache replacement policy (WIN, GAUSS-RAND, beta=10)",
		Header: []string{"policy", "MLQ-E", "SH-H"},
	}
	for _, r := range rows {
		t.AddRow(r.Policy.String(), f4(r.NAE[MLQE]), f4(r.NAE[SHH]))
	}
	return t
}

// RenderChaosLatency renders the slow-disk resilience experiment.
func RenderChaosLatency(rows []ChaosLatencyCell) Table {
	t := Table{
		Title: "Chaos latency: IO-cost accuracy vs disk degradation (SIMPLE + WIN;\n" +
			"injected slow reads + transient read faults, charged into observations via the retry policy)",
		Header: []string{"severity", "NAE", "execs", "failed", "slow-reads",
			"retries", "charged-units", "journaled", "replayed"},
	}
	for _, c := range rows {
		t.AddRow(
			fmt.Sprintf("%.0fx", c.Severity), f4(c.NAE),
			fmt.Sprintf("%d", c.Executions), fmt.Sprintf("%d", c.ExecFailures),
			fmt.Sprintf("%d", c.SlowReads), fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%.1f", c.ChargedUnits),
			fmt.Sprintf("%d", c.Journaled), fmt.Sprintf("%d", c.Replayed),
		)
	}
	return t
}

// RenderChaos renders the chaos experiment's degradation table.
func RenderChaos(rows []ChaosCell) []Table {
	t := Table{
		Title: "Chaos: accuracy degradation vs fault rate (SIMPLE + WIN, CPU cost;\n" +
			"faults: corrupted observations, UDF panics, page-read failures, torn catalog writes)",
		Header: []string{"rate", "NAE", "execs", "failed", "corrupted",
			"quarantined", "trips", "page-faults", "panics", "tears", "saves", "degraded-loads"},
	}
	for _, c := range rows {
		t.AddRow(
			fmt.Sprintf("%.2f", c.Rate), f4(c.NAE),
			fmt.Sprintf("%d", c.Executions), fmt.Sprintf("%d", c.ExecFailures),
			fmt.Sprintf("%d", c.Corrupted), fmt.Sprintf("%d", c.Quarantined),
			fmt.Sprintf("%d", c.BreakerTrips), fmt.Sprintf("%d", c.PageFaults),
			fmt.Sprintf("%d", c.Panics), fmt.Sprintf("%d", c.Tears),
			fmt.Sprintf("%d", c.Saves), fmt.Sprintf("%d", c.Degraded),
		)
	}
	health := Table{
		Title: "Per-UDF fault handling (engine.Health: recovered panics and observation-guard state)",
		Header: []string{"rate", "udf", "exec-failures", "fed", "quarantined",
			"rejected", "skipped", "trips", "breaker"},
	}
	for _, c := range rows {
		for _, h := range c.Health {
			breaker := "closed"
			if h.Guard.Open {
				breaker = "OPEN"
			}
			health.AddRow(
				fmt.Sprintf("%.2f", c.Rate), h.UDF,
				fmt.Sprintf("%d", h.ExecFailures), fmt.Sprintf("%d", h.Guard.Fed),
				fmt.Sprintf("%d", h.Guard.Quarantined), fmt.Sprintf("%d", h.Guard.Rejected),
				fmt.Sprintf("%d", h.Guard.Skipped), fmt.Sprintf("%d", h.Guard.Trips),
				breaker,
			)
		}
	}
	if len(health.Rows) == 0 {
		return []Table{t}
	}
	return []Table{t, health}
}

// RenderConcurrency renders the concurrency experiment: prediction throughput
// of the mutex baseline and the snapshot publisher as reader parallelism
// grows, plus the publisher's staleness bound in practice. Throughputs are
// wall-clock measurements and vary with the machine; the speedup column is
// the figure of merit.
func RenderConcurrency(rows []ConcurrencyRow) Table {
	t := Table{
		Title: "Concurrency: prediction throughput, N predictors + 1 observer\n" +
			"(mutex = core.Synchronized baseline; snapshot = core.Publisher epoch publishing)",
		Header: []string{"goroutines", "mutex-qps", "snapshot-qps", "speedup", "max-staleness", "epochs"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Goroutines),
			fmt.Sprintf("%.0f", r.MutexQPS),
			fmt.Sprintf("%.0f", r.SnapshotQPS),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.MaxStaleness),
			fmt.Sprintf("%d", r.FinalEpoch),
		)
	}
	return t
}

// RenderChaosRepl renders the replication chaos experiment: per-scenario
// convergence and loss accounting for the replicated model fleet.
func RenderChaosRepl(rows []ChaosReplCell) Table {
	t := Table{
		Title: "Chaos replication: journal-streaming followers, fenced failover, partition heal\n" +
			"(every scenario converged byte-identically; acked loss bounded by one batch)",
		Header: []string{"scenario", "NAE", "acked", "lost", "failovers", "fenced",
			"max-lag", "catchup", "dedup", "drop", "dup", "reorder", "cut"},
	}
	for _, c := range rows {
		t.AddRow(
			c.Scenario, naeCell(c.NAE),
			fmt.Sprintf("%d", c.Acked), fmt.Sprintf("%d", c.AckedLost),
			fmt.Sprintf("%d", c.Failovers), fmt.Sprintf("%d", c.FencedWrites),
			fmt.Sprintf("%d", c.MaxLag), fmt.Sprintf("%d", c.Catchup),
			fmt.Sprintf("%d", c.Duplicates), fmt.Sprintf("%d", c.Dropped),
			fmt.Sprintf("%d", c.Duplicated), fmt.Sprintf("%d", c.Reordered),
			fmt.Sprintf("%d", c.Partitioned),
		)
	}
	return t
}

// RenderChaosNet renders the networked replication chaos experiment: the
// ChaosRepl fault stories over real loopback sockets, plus the socket
// layer's own accounting and the resumable-bootstrap scenario.
func RenderChaosNet(rows []ChaosNetCell) Table {
	t := Table{
		Title: "Chaos replication over sockets: reconnect/backoff, heartbeat liveness, resumable bootstrap\n" +
			"(same convergence assertions as chaosrepl, carried by the TCP transport under socket-level chaos)",
		Header: []string{"scenario", "NAE", "acked", "lost", "failovers", "catchup",
			"drop", "cut", "reconn", "hb-miss", "dmg-frames", "boot-chunks", "boot-resumes"},
	}
	for _, c := range rows {
		t.AddRow(
			c.Scenario, naeCell(c.NAE),
			fmt.Sprintf("%d", c.Acked), fmt.Sprintf("%d", c.AckedLost),
			fmt.Sprintf("%d", c.Failovers), fmt.Sprintf("%d", c.Catchup),
			fmt.Sprintf("%d", c.Dropped), fmt.Sprintf("%d", c.Partitioned),
			fmt.Sprintf("%d", c.Reconnects), fmt.Sprintf("%d", c.HeartbeatsMissed),
			fmt.Sprintf("%d", c.FramesDamaged),
			fmt.Sprintf("%d", c.BootstrapChunks), fmt.Sprintf("%d", c.BootstrapResumes),
		)
	}
	return t
}
