package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// hostStamp describes the machine and the run, printed before the result
// so every number can be traced to the host state that produced it.
func hostStamp(workload string, o options) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
		"source":     envOr("PERFBENCH_SOURCE", "unknown"),
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage is a point-in-time reading of the process's CPU and Go runtime
// counters; the difference of two readings is what a phase cost.
type usage struct {
	wall   time.Time
	cpu    time.Duration // user + system CPU of the whole process
	gcCPU  float64       // seconds of CPU the runtime attributes to GC
	gcs    uint64        // completed GC cycles
	allocs uint64        // cumulative heap bytes allocated
}

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u := usage{wall: time.Now(), cpu: processCPU()}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.gcs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		u.allocs = s[2].Value.Uint64()
	}
	return u
}

// phase is one timed closed loop: the ops it measured, their latencies and
// what they cost the process. The measured ops are cut into phaseSlices
// slices of equal op count; the rate and CPU metrics are medians over
// slices, so a burst of interference from outside the process moves one
// slice, not the result.
type phase struct {
	ops     int64 // measured ops
	extra   int64 // ops run after the measured ones to fill the phase's time
	failed  int64 // failed ops, measured or not
	elapsed time.Duration
	lat     []int64 // per-op latency of the measured ops in ns, in op order
	slices  []slice
	cpu     time.Duration
	gcCPU   float64
	gcs     uint64
	allocs  uint64
}

// slice is one of a phase's equal op-count slices of measured ops.
type slice struct {
	ops     int64
	elapsed time.Duration
	cpu     time.Duration
	lat     [2]int // range of the slice's ops in phase.lat
	ext     [2]int // range of the slice's samples in the workload's own series
}

const phaseSlices = 20

// runPhase runs op in a closed loop from the calling goroutine: each op
// starts when the previous one returns. It measures the first n ops, which
// are the same ops with the same inputs on every run of a seed, so a run
// that gets further into a workload whose cost drifts is not measured on
// different work. It then keeps running unmeasured ops until d has
// elapsed, so a phase lasts at least d. The GC runs before the clock
// starts. op reports whether it failed. ext, when not nil, reports the
// length of a sample series the workload keeps itself, so each slice knows
// its share of that series too. onSlice, when not nil, runs before the
// first op of every slice k, outside the op's timing.
func runPhase(d time.Duration, n int64, first int64, op func(i int64) bool, ext func() int, onSlice func(k int)) phase {
	if ext == nil {
		ext = func() int { return 0 }
	}
	if onSlice == nil {
		onSlice = func(int) {}
	}
	onSlice(0)
	runtime.GC()
	p := phase{ops: n, lat: make([]int64, 0, n)}
	before := readUsage()
	start := before.wall
	deadline := start.Add(d)
	cur := slice{ext: [2]int{ext(), 0}}
	curStart, curCPU := start, before.cpu
	closeSlice := func(now time.Time) {
		cpu := processCPU()
		cur.elapsed = now.Sub(curStart)
		cur.cpu = cpu - curCPU
		cur.lat[1] = len(p.lat)
		cur.ext[1] = ext()
		p.slices = append(p.slices, cur)
		cur = slice{lat: [2]int{len(p.lat), 0}, ext: [2]int{ext(), 0}}
		curStart, curCPU = now, cpu
	}
	var after usage
	i := first
	for k := int64(0); ; k++ {
		if k == n {
			closeSlice(time.Now())
			after = readUsage()
		}
		if k >= n && time.Now().After(deadline) {
			break
		}
		if k > 0 && k < n && k == int64(len(p.slices)+1)*n/phaseSlices {
			closeSlice(time.Now())
			onSlice(len(p.slices))
		}
		t0 := time.Now()
		if !op(i) {
			p.failed++
		}
		if k < n {
			p.lat = append(p.lat, int64(time.Since(t0)))
			cur.ops++
		} else {
			p.extra++
		}
		i++
	}
	p.elapsed = after.wall.Sub(start)
	p.cpu = after.cpu - before.cpu
	p.gcCPU = after.gcCPU - before.gcCPU
	p.gcs = after.gcs - before.gcs
	p.allocs = after.allocs - before.allocs
	return p
}

// run is every op the phase ran, measured or not.
func (p phase) run() int64 { return p.ops + p.extra }

// extEnd is where the measured ops end in the workload's own series.
func (p phase) extEnd() int { return p.slices[len(p.slices)-1].ext[1] }

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rate is the median over slices of work per second, with perOp units of
// work in every op.
func (p phase) rate(perOp float64) float64 { return p.rateOf(perOp, -1) }

// rateOf is rate over the slices whose index has the given parity (0 even,
// 1 odd); -1 takes every slice.
func (p phase) rateOf(perOp float64, parity int) float64 {
	v := make([]float64, 0, len(p.slices))
	for k, s := range p.slices {
		if s.ops > 0 && (parity < 0 || k%2 == parity) {
			v = append(v, float64(s.ops)*perOp/s.elapsed.Seconds())
		}
	}
	return median(v)
}

// cpuPerKop is the median over slices of process CPU in ms per 1000 units
// of work, with perOp units in every op.
func (p phase) cpuPerKop(perOp float64) float64 {
	v := make([]float64, 0, len(p.slices))
	for _, s := range p.slices {
		if s.ops > 0 {
			v = append(v, float64(s.cpu)/float64(time.Millisecond)/(float64(s.ops)*perOp/1000))
		}
	}
	return median(v)
}

// sliceP99 is the median of the p99s of consecutive groups of slices, each
// group merged until it holds enough samples for a p99 (ten beyond it);
// series picks the sample range of a slice.
func (p phase) sliceP99(samples []int64, series func(slice) [2]int, u time.Duration) float64 {
	var v []float64
	from := -1
	for _, s := range p.slices {
		r := series(s)
		if from < 0 {
			from = r[0]
		}
		if r[1]-from >= 2000 {
			v = append(v, percentile(samples[from:r[1]], 0.99, u))
			from = -1
		}
	}
	if len(v) == 0 {
		return percentile(samples, 0.99, u)
	}
	return median(v)
}

// blockP50 is the median, over consecutive blocks of n ns samples, of
// each block's mean, in unit u. Short calls are summed per block before
// dividing, so the figure is a block mean, not a single call's time; the
// median over blocks leaves out the few blocks that hold a rare stall.
func blockP50(ns []int64, n int, u time.Duration) float64 {
	v := make([]float64, 0, len(ns)/n)
	for i := 0; i+n <= len(ns); i += n {
		var sum int64
		for _, x := range ns[i : i+n] {
			sum += x
		}
		v = append(v, float64(sum)/float64(n)/float64(u))
	}
	return median(v)
}

// obsBlock is how many consecutive Observe calls blockP50 averages.
const obsBlock = 64

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func opRange(s slice) [2]int  { return s.lat }
func extRange(s slice) [2]int { return s.ext }

// runtimeMetricsOf reports the phase's Go runtime costs per unit of work,
// with perOp units in every op.
func (p phase) runtimeMetricsOf(m map[string]metric, perOp float64) {
	work := float64(p.ops) * perOp
	m["runtime.alloc_bytes_per_op"] = metric{float64(p.allocs) / work, "B"}
	m["runtime.gc_per_kop"] = metric{float64(p.gcs) / (work / 1000), "count"}
	frac := 0.0
	if p.cpu > 0 {
		frac = p.gcCPU / p.cpu.Seconds()
	}
	m["runtime.gc_cpu_fraction"] = metric{frac, "ratio"}
}

// percentile returns the p-quantile (0..1) of ns samples in unit u
// (nearest rank on a sorted copy). A percentile above the median is only
// reported when at least ten samples lie beyond it; otherwise it is NaN,
// which fails the run.
func percentile(ns []int64, p float64, u time.Duration) float64 {
	n := len(ns)
	if n == 0 || float64(n)*(1-p) < 10 && p > 0.5 {
		return math.NaN()
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k]) / float64(u)
}

// heapMiB is the live heap after a full GC.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// medianSetup builds the system under test n times and returns the median
// build time; every build but the last is closed again. Only the
// system's construction is timed, never input generation.
func medianSetup[T any](n int, build func() (T, error), closeFn func(T) error) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		sut, err := build()
		d := time.Since(t0).Seconds()
		if err != nil {
			return last, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d)
		if i < n-1 {
			if err := closeFn(sut); err != nil {
				return last, 0, fmt.Errorf("setup: closing build %d: %w", i, err)
			}
			continue
		}
		last = sut
	}
	sort.Float64s(times)
	return last, times[len(times)/2], nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// spanKind names a span. Spans store it as a one-byte code so a traced
// phase of millions of spans stays compact.
type spanKind uint8

const (
	spQuery spanKind = iota
	spUDFExec
	spModelObserve
	spStep
	spPredictBlock
	spWindow
	spObserve
	spBarrierWait
	spFollowerPredictBlock
)

var spanNames = [...]string{
	spQuery:                "query",
	spUDFExec:              "udf.exec",
	spModelObserve:         "model.observe",
	spStep:                 "step",
	spPredictBlock:         "model.predict_block",
	spWindow:               "window",
	spObserve:              "observe",
	spBarrierWait:          "barrier.wait",
	spFollowerPredictBlock: "follower.predict_block",
}

// span is one timed call into a layer, recorded from the benchmark side.
// Times are ns since the tracer started; parent 0 is a root span.
type span struct {
	id, parent int32
	kind       spanKind
	start, end int64
}

// tracer keeps spans in memory for the traced phase. Spans of one op share
// their root's id through the parent chain. Recording stops at a fixed cap
// so a long run cannot exhaust memory; dropped counts what was cut.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int64
}

const maxSpans = 4 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<20)}
}

// begin opens a span and returns its id (0 when recording has stopped).
func (t *tracer) begin(kind spanKind, parent int32) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, kind: kind, start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int32) {
	if id == 0 {
		return
	}
	t.spans[id-1].end = int64(time.Since(t.t0))
}

// record adds a span already timed by the caller (a block of calls timed
// as one).
func (t *tracer) record(kind spanKind, parent int32, start, end time.Time) int32 {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, kind: kind,
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))})
	return id
}

// layerTimes are the reduced spans of one name: every duration and every
// self time (duration minus the part its children cover), in ns.
type layerTimes struct {
	dur, self []int64
}

// reduce folds the spans into per-name durations and self times. Spans of
// one goroutine nest, so a child's interval lies inside its parent's.
func (t *tracer) reduce() map[string]*layerTimes {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.parent > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*layerTimes)
	for _, s := range t.spans {
		name := spanNames[s.kind]
		lt := out[name]
		if lt == nil {
			lt = &layerTimes{}
			out[name] = lt
		}
		d := s.end - s.start
		lt.dur = append(lt.dur, d)
		lt.self = append(lt.self, d-child[s.id])
	}
	return out
}

func mean(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return sum / float64(len(ns))
}

// write stores the spans as gzip-compressed TSV (id, parent, name, start
// ns, end ns) for offline inspection.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSlices is the onSlice hook of a traced phase: odd slices record
// spans, even slices run untraced, so the two interleave over the same
// stretch of the run and their rates give the tracing overhead.
func tracedSlices(tr *tracer, set func(*tracer)) func(k int) {
	return func(k int) {
		if k%2 == 1 {
			set(tr)
		} else {
			set(nil)
		}
	}
}

// finishTrace writes the spans and adds the tracing overhead: the traced
// slices' median throughput against the interleaved untraced slices', as a
// share lost.
func finishTrace(tr *tracer, o options, workload string, traced phase, m map[string]metric) error {
	if err := tr.write(filepath.Join(o.workdir, workload+".spans.tsv.gz")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	m["trace.overhead"] = metric{1 - traced.rateOf(1, 1)/traced.rateOf(1, 0), "ratio"}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	m["trace.dropped_spans"] = metric{float64(tr.dropped), "count"}
	return nil
}
