package main

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists what a timed run (-trace 0) reports, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"accesses_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"batch_p50_ms", "ms", "lower"},
	{"batch_p99_ms", "ms", "lower"},
	{"model_result", "ratio", "higher"},
}

// perLayer lists what a traced run (-trace 1) reports, on every workload.
var perLayer = func() []metricDef {
	ds := []metricDef{
		{"engine.cell_s.p50", "s", "lower"},
		{"engine.cell_s.max", "s", "lower"},
		{"engine.worker_idle_frac", "ratio", "lower"},
		{"workload.ns_per_access", "ns", "lower"},
		{"workload.allocs_per_access", "allocs", "lower"},
		{"trace.decode_ns_per_access", "ns", "lower"},
		{"cache.l1_ns_per_access", "ns", "lower"},
		{"cache.l1_miss_ratio", "ratio", "lower"},
		{"prefetch.eval_ns_per_access", "ns", "lower"},
	}
	for _, p := range []string{"vldp", "isb", "stms", "digram", "domino"} {
		ds = append(ds, metricDef{"prefetch.accuracy." + p, "ratio", "higher"})
	}
	for _, m := range []string{"core", "stms", "digram", "isb", "vldp"} {
		ds = append(ds,
			metricDef{m + ".trigger_ns", "ns", "lower"},
			metricDef{m + ".triggers", "count", "lower"},
			metricDef{m + ".allocs_per_trigger", "allocs", "lower"},
			metricDef{m + ".candidates_per_trigger", "count", "higher"})
	}
	ds = append(ds,
		metricDef{"sequitur.ns_per_symbol", "ns", "lower"},
		metricDef{"sequitur.allocs_per_symbol", "allocs", "lower"},
		metricDef{"sequitur.rules", "count", "lower"},
		metricDef{"timing.step_ns_per_access", "ns", "lower"},
		metricDef{"timing.allocs_per_access", "allocs", "lower"})
	for _, p := range []string{"none", "vldp", "isb", "stms", "digram", "domino"} {
		ds = append(ds, metricDef{"timing.ipc." + p, "instr/cycle", "higher"})
	}
	return append(ds,
		metricDef{"serve.submit_wait_ms.p50", "ms", "lower"},
		metricDef{"serve.submit_wait_ms.p99", "ms", "lower"},
		metricDef{"serve.session_ns_per_access", "ns", "lower"},
		metricDef{"serve.overhead_frac", "ratio", "lower"},
		metricDef{"runtime.gc_cpu_frac", "ratio", "lower"},
		metricDef{"runtime.alloc_mb", "MB", "lower"},
		metricDef{"traced.overhead_frac", "ratio", "lower"})
}()
