package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mlq/internal/core"
	"mlq/internal/metrics"
	"mlq/internal/quadtree"
	"mlq/internal/replica"
	"mlq/internal/replica/nettransport"
	"mlq/internal/synthetic"
)

// fleet is the replicated model as an operator runs it: a primary r0 and a
// follower r1 over the TCP transport on loopback. The client observes in
// windows of flWindow, waits on a transport barrier until r1 has applied
// the window, and reads from the follower once per flReadEvery observations.
const (
	flWindow    = 256
	flReadEvery = 16
	flBudget    = 16 << 10 // model budget in bytes
	flPool      = 1 << 19  // pre-generated observations, cycled
	flProbe     = 16384    // fixed probe set for the follower's accuracy
	probeSeed   = 20040316
	flDetWins   = 200  // deterministic counts cover the first flDetWins windows
	flMeasure   = 1792 // windows measured per phase
	flSetups    = 11
	flWarm      = 4 * flWindow // set-up observations that fill both models to their budget
)

type flSystem struct {
	dir string
	net *nettransport.NetTransport
	g   *replica.Group
	h   *replica.Handle
}

func (s *flSystem) close() error {
	err := s.g.Close()
	s.net.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func newFleetModel(surf *synthetic.Surface) func() (*core.MLQ, error) {
	return func() (*core.MLQ, error) {
		return core.NewMLQ(quadtree.Config{Region: surf.Region(), Strategy: quadtree.Lazy, MemoryLimit: flBudget})
	}
}

// journalBytes sums the journal files in the group directory.
func journalBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.mlqj"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

func runFleet(o options) (result, error) {
	surf, err := synthSurface()
	if err != nil {
		return result{}, err
	}
	obs := uniformPool(surf, flPool, o.seed+3)
	probe := uniformPool(surf, flProbe, probeSeed)

	root := filepath.Join(o.workdir, fmt.Sprintf("fleet-%d", os.Getpid()))
	builds := 0
	build := func() (*flSystem, error) {
		builds++
		s := &flSystem{dir: filepath.Join(root, fmt.Sprint(builds))}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
		s.net = nettransport.New(nettransport.Config{Seed: o.seed})
		g, err := replica.New(replica.Config{Replicas: 2, Dir: s.dir, NewModel: newFleetModel(surf), Transport: s.net})
		if err != nil {
			s.net.Close()
			return nil, err
		}
		s.g, s.h = g, g.Handle()
		// The group announces its term at construction, which starts the
		// lazy dial; a barrier returns once the link carries traffic.
		done, err := s.net.Barrier("r1")
		if err != nil {
			s.close()
			return nil, err
		}
		<-done
		if !s.net.LinkUp("r1") {
			s.close()
			return nil, fmt.Errorf("link to r1 did not come up")
		}
		// Warm up: the first flWarm observations bring both replicas'
		// models to their budget before any clock starts.
		for i := 0; i < flWarm; i++ {
			if err := s.h.Observe(obs.at(i), obs.cost[i]); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		if done, err = s.net.Barrier("r1"); err != nil {
			s.close()
			return nil, err
		}
		<-done
		return s, nil
	}
	defer os.RemoveAll(root)
	sys, setupS, err := medianSetup(flSetups, build, (*flSystem).close)
	if err != nil {
		return result{}, err
	}
	defer sys.close()
	g, h := sys.g, sys.h

	var (
		observeLat []int64          // Handle.Observe ack latency, ns
		visible    []int64          // last ack of a window until r1 covers it, ns
		acked      uint64  = flWarm // observations acknowledged so far
		tr         *tracer
		det        struct {
			nae      float64
			snap     bytes.Buffer
			jbytes   int64
			observes uint64
		}
		reads int64
	)
	observeLat = make([]int64, 0, 1<<20)
	visible = make([]int64, 0, 1<<14)
	window := func(w int64) bool {
		ok := true
		var root int32
		if tr != nil {
			root = tr.begin(spWindow, 0)
		}
		for j := 0; j < flWindow; j++ {
			k := int(acked % flPool)
			var id int32
			if tr != nil {
				id = tr.begin(spObserve, root)
			}
			t0 := time.Now()
			err := h.Observe(obs.at(k), obs.cost[k])
			observeLat = append(observeLat, int64(time.Since(t0)))
			if tr != nil {
				tr.end(id)
			}
			if err != nil {
				ok = false
				continue
			}
			acked++
		}
		lastAck := time.Now()
		var bw int32
		if tr != nil {
			bw = tr.begin(spBarrierWait, root)
		}
		done, err := sys.net.Barrier("r1")
		if err != nil {
			return false
		}
		<-done
		visible = append(visible, int64(time.Since(lastAck)))
		if tr != nil {
			tr.end(bw)
		}
		if v := g.View("r1"); v == nil || v.Seq != acked {
			ok = false
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		for j := 0; j < flWindow/flReadEvery; j++ {
			p := probe.at(int(reads % flProbe))
			reads++
			if _, good := g.Predict("r1", p); !good {
				ok = false
			}
		}
		if tr != nil {
			tr.record(spFollowerPredictBlock, root, t0, time.Now())
			tr.end(root)
		}
		if w == flDetWins-1 {
			v := g.View("r1")
			var e metrics.NAE
			for i := 0; i < probe.len(); i++ {
				pred, _ := v.Snap.Predict(probe.at(i))
				e.Add(pred, probe.cost[i])
			}
			det.nae = e.Value()
			det.observes = v.Seq
			if _, err := v.Snap.WriteTo(&det.snap); err != nil {
				ok = false
			}
			jb, err := journalBytes(sys.dir)
			if err != nil {
				ok = false
			}
			det.jbytes = jb
		}
		return ok
	}

	ackCount := func() int { return len(observeLat) }
	untracedDur, tracedDur := o.phaseSplit()
	st0 := g.Stats()
	ep0 := [2]uint64{g.View("r0").Epoch, g.View("r1").Epoch}
	a := runPhase(untracedDur, flMeasure, 0, window, ackCount, nil)
	attempted, failed := a.run(), a.failed // in windows, as failures are counted
	st1 := g.Stats()
	ep1 := [2]uint64{g.View("r0").Epoch, g.View("r1").Epoch}
	m := map[string]metric{}
	var b phase
	var rec *tracer
	if o.trace {
		rec = newTracer()
		b = runPhase(tracedDur, flMeasure, a.run(), window, ackCount, tracedSlices(rec, func(t *tracer) { tr = t }))
		attempted += b.run()
		failed += b.failed
	}

	// Correctness gates after the last barrier: the follower holds exactly
	// the primary's model, nothing acknowledged was lost, and the stream
	// neither overflowed nor dropped.
	ref, refLat, replayErr := fleetReplay(surf, obs, det.observes)
	gateErr := func() error {
		if replayErr != nil {
			return replayErr
		}
		b0, err := g.ModelBytes("r0")
		if err != nil {
			return err
		}
		b1, err := g.ModelBytes("r1")
		if err != nil {
			return err
		}
		if !bytes.Equal(b0, b1) {
			return fmt.Errorf("r1 model differs from r0")
		}
		st := g.Stats()
		if st.AckedLost != 0 || len(g.ApplyErrors()) != 0 || st.Transport.Overflowed != 0 || st.Transport.Dropped != 0 {
			return fmt.Errorf("acked lost %d, apply errors %v, overflowed %d, dropped %d",
				st.AckedLost, g.ApplyErrors(), st.Transport.Overflowed, st.Transport.Dropped)
		}
		// The follower's model after the deterministic prefix must be the
		// one a single model builds from the same observations.
		var rb bytes.Buffer
		if _, err := ref.WriteTo(&rb); err != nil {
			return err
		}
		if !bytes.Equal(rb.Bytes(), det.snap.Bytes()) {
			return fmt.Errorf("r1 after %d observations differs from a single model fed the same stream", det.observes)
		}
		return nil
	}()
	attempted++
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fleet gate:", gateErr)
		failed++
	}

	if !o.trace {
		m["setup_s"] = metric{setupS, "s"}
		m["ops_per_s"] = metric{a.rate(flWindow), "1/s"}
		m["op_p50_us"] = metric{percentile(observeLat[:a.extEnd()], 0.5, time.Microsecond), "us"}
		m["visible_p50_ms"] = metric{percentile(visible[:a.ops], 0.5, time.Millisecond), "ms"}
		m["cpu_ms_per_kop"] = metric{a.cpuPerKop(flWindow), "ms"}
		m["nae"] = metric{det.nae, "ratio"}
		observeLat, visible, a.lat, ref, refLat = nil, nil, nil, nil, nil
		m["heap_mb"] = metric{heapMiB(), "MiB"}
		runtime.KeepAlive(sys)
		return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
	}

	spans := rec.reduce()
	// Publish and frame counts cover the whole untraced phase.
	fobs := float64(a.run() * flWindow)
	m["core.epochs_per_kobs"] = metric{float64(ep1[0]-ep0[0]) / (fobs / 1000), "count"}
	m["core.batch_mean"] = metric{fobs / float64(ep1[0]-ep0[0]), "count"}
	m["journal.bytes_per_obs"] = metric{float64(det.jbytes) / float64(det.observes), "B"}
	m["replica.follower_epochs_per_obs"] = metric{float64(ep1[1]-ep0[1]) / fobs, "count"}
	m["client.op_p99_us"] = metric{a.sliceP99(observeLat, extRange, time.Microsecond), "us"}
	m["client.op_samples"] = metric{float64(a.extEnd()), "count"}
	m["replica.visible_ms_p99"] = metric{percentile(visible[:a.ops], 0.99, time.Millisecond), "ms"}
	m["replica.follower_predict_ns"] = metric{mean(spans["follower.predict_block"].dur) / (flWindow / flReadEvery), "ns"}
	m["quadtree.predict_ns"] = m["replica.follower_predict_ns"]
	st := g.Stats()
	for _, r := range st.Replicas {
		if r.ID == "r1" {
			m["replica.catchup_records"] = metric{float64(r.Catchup), "count"}
			m["replica.duplicates"] = metric{float64(r.Duplicates), "count"}
			m["replica.fetch_fails"] = metric{float64(r.FetchFails), "count"}
		}
	}
	m["nettransport.frames_per_obs"] = metric{float64(st1.Transport.Sent-st0.Transport.Sent) / fobs, "count"}
	m["nettransport.overflowed"] = metric{float64(st.Transport.Overflowed), "count"}
	m["nettransport.reconnects"] = metric{float64(sys.net.NetStats().Reconnects), "count"}
	a.runtimeMetricsOf(m, flWindow)
	// Both replicas fold the same sequence into an identical tree (the gate
	// checks it), so the single replay has exactly their quadtree counts,
	// and its timed inserts are what each replica's apply pays per record.
	if replayErr != nil {
		return result{}, replayErr
	}
	t := ref.Tree()
	m["quadtree.observe_us_p50"] = metric{percentile(refLat, 0.5, time.Microsecond), "us"}
	m["quadtree.observe_us_p99"] = metric{percentile(refLat, 0.99, time.Microsecond), "us"}
	m["quadtree.compressions"] = metric{float64(t.Compressions()), "count"}
	m["quadtree.compress_ms"] = metric{float64(t.CompressTime()) / float64(time.Millisecond), "ms"}
	m["quadtree.removed_nodes"] = metric{float64(t.RemovedNodes()), "count"}
	m["quadtree.nodes"] = metric{float64(t.NodeCount()), "count"}
	if err := finishTrace(rec, o, "fleet", b, m); err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: completeLayers(m, true)}, nil
}

// fleetReplay feeds the first n observations of the stream into one
// model, outside any clock, and returns it with each insert's latency in ns.
func fleetReplay(surf *synthetic.Surface, obs pointPool, n uint64) (*core.MLQ, []int64, error) {
	ref, err := newFleetModel(surf)()
	if err != nil {
		return nil, nil, err
	}
	lat := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		k := int(i % flPool)
		t0 := time.Now()
		if err := ref.Observe(obs.at(k), obs.cost[k]); err != nil {
			return nil, nil, err
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return ref, lat, nil
}
