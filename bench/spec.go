package main

// The benchmark's contract: the workloads and the metric names, units and
// bounds. BENCHMARK.json at the repo root lists the same names; the smoke
// test fails if the two drift apart.

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	// Exact marks counts of deterministic work: two runs of the same code
	// with the same seed must report the same value to the last digit.
	Exact bool
	Doc   string
}

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"record", "journey 1, program to .wet bytes: the only workload where the builder, epoch seal, freeze and stream encode do the work"},
	{"replay", "journey 2, .wet bytes to whole-trace extraction: container load, sequential stream decode and query extraction, no build"},
	{"slice", "paper Table 9: backward slice batches, where cursor seek/checkpoint traffic and slice logic dominate and sequential decode is minor"},
	{"serve", "journey 3, HTTP request to JSON response from wetd's stack over a starved segment cache; the warm cache is the alternate"},
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Doc: "median of the set-ups of a run: program generation, oracle run, input containers, criteria, warm-up ops"},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Doc: "primary work units / summed wall time of the primary ops, over the quiet quarter of the run's cycles"},
	{Name: "alt_work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Doc: "the same for the alternate ops, interleaved with the primary ops"},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25, Doc: "median primary-op latency over the quiet quarter of cycles"},
	{Name: "op_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25, Doc: "tail over the quiet half of cycles: p80 primary-op latency (>= 10 samples beyond); p99 request latency on serve"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.10, Doc: "TotalAlloc delta across the primary ops / ops"},
	{Name: "wet_bytes_per_kstmt", Unit: "bytes", Better: "lower", Bound: 0.01, Exact: true, Doc: "serialized container bytes per 1000 recorded statements"},
}

var perLayer = []metricSpec{
	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.run_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "interp.run_allocs_per_kstmt", Unit: "count", Better: "lower"},
	{Name: "trace.count_ns_per_stmt", Unit: "ns", Better: "lower"},

	{Name: "core.build_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.freeze_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.freeze_par_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.stream_build_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.seal_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.build_alloc_b_per_stmt", Unit: "bytes", Better: "lower"},
	{Name: "core.build_allocs_per_kstmt", Unit: "count", Better: "lower"},
	{Name: "core.t1_bytes_per_kstmt", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "core.t2_bytes_per_kstmt", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "stream.size_best_ns_per_val", Unit: "ns", Better: "lower"},
	{Name: "stream.compress_ns_per_val", Unit: "ns", Better: "lower"},
	{Name: "stream.bits_per_val", Unit: "bits", Better: "lower", Exact: true},
	{Name: "stream.next_ns_per_val", Unit: "ns", Better: "lower"},
	{Name: "stream.prev_ns_per_val", Unit: "ns", Better: "lower"},
	{Name: "stream.step_ns", Unit: "ns", Better: "lower"},
	{Name: "stream.seek_us", Unit: "us", Better: "lower"},
	{Name: "stream.seeks_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "stream.steps_per_seek", Unit: "count", Better: "lower", Exact: true},
	{Name: "stream.restores_per_seek", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "wetio.save_ms", Unit: "ms", Better: "lower"},
	{Name: "wetio.save_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wetio.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "wetio.load_eager_ms", Unit: "ms", Better: "lower"},
	{Name: "wetio.load_lazy_ms", Unit: "ms", Better: "lower"},
	{Name: "wetio.load_par_ratio", Unit: "ratio", Better: "higher"},
	{Name: "wetio.load_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "wetio.container_overhead_pct", Unit: "%", Better: "lower", Exact: true},

	{Name: "query.cf_fwd_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "query.cf_bwd_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "query.values_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "query.addrs_ns_per_sample", Unit: "ns", Better: "lower"},
	{Name: "query.cf_t2_over_t1", Unit: "ratio", Better: "lower"},
	{Name: "query.cfrange_us", Unit: "us", Better: "lower"},
	{Name: "query.bslice_ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "query.bslice_t2_over_t1", Unit: "ratio", Better: "lower"},
	{Name: "query.fslice_us_per_inst", Unit: "us", Better: "lower"},
	{Name: "query.instance_of_ts_us", Unit: "us", Better: "lower"},

	{Name: "corpus.add_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "corpus.segment_loads_per_kreq", Unit: "count", Better: "lower", Exact: true},
	{Name: "corpus.evictions_per_kreq", Unit: "count", Better: "lower", Exact: true},
	{Name: "corpus.cold_penalty_us", Unit: "us", Better: "lower"},

	{Name: "serve.query_us", Unit: "us", Better: "lower"},
	{Name: "serve.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.shed_per_kreq", Unit: "count", Better: "lower"},
	{Name: "serve.queue_peak", Unit: "count", Better: "lower"},
	{Name: "metrics.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.gc_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}
