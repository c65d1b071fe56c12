package main

// perLayer names every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. A traced run reports all of them on every
// workload; a layer the workload does not exercise reads 0 there (no UDF
// runs on model-synth, nothing replicates on loop-real).
var perLayer = []struct{ name, unit string }{
	{"client.op_p99_us", "us"},
	{"client.op_samples", "count"},
	{"engine.self_us", "us"},
	{"engine.evals_per_row", "count"},
	{"engine.work_per_row", "units"},
	{"udf.exec_us_p50", "us"},
	{"udf.exec_us_p99", "us"},
	{"udf.execs", "count"},
	{"buffercache.hit_ratio", "ratio"},
	{"buffercache.misses_per_exec", "count"},
	{"buffercache.evictions_per_exec", "count"},
	{"quadtree.predict_ns", "ns"},
	{"quadtree.observe_us_p50", "us"},
	{"quadtree.observe_us_p99", "us"},
	{"quadtree.compressions", "count"},
	{"quadtree.compress_ms", "ms"},
	{"quadtree.removed_nodes", "count"},
	{"quadtree.nodes", "count"},
	{"core.epochs_per_kobs", "count"},
	{"core.batch_mean", "count"},
	{"journal.bytes_per_obs", "B"},
	{"replica.follower_epochs_per_obs", "count"},
	{"replica.visible_ms_p99", "ms"},
	{"replica.follower_predict_ns", "ns"},
	{"replica.catchup_records", "count"},
	{"replica.duplicates", "count"},
	{"replica.fetch_fails", "count"},
	{"nettransport.frames_per_obs", "count"},
	{"nettransport.overflowed", "count"},
	{"nettransport.reconnects", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
	{"trace.dropped_spans", "count"},
}

// completeLayers fills in, for a traced run, every per-layer metric the
// workload did not measure with 0.
func completeLayers(m map[string]metric, traced bool) map[string]metric {
	if !traced {
		return m
	}
	for _, l := range perLayer {
		if _, ok := m[l.name]; !ok {
			m[l.name] = metric{0, l.unit}
		}
	}
	return m
}
