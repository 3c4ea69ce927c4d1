package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported by
// an untraced pass.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_s", "s"},
	{"latency_p90_s", "s"},
	{"runs_per_s", "1/s"},
}

// expIDs are the experiments the workloads run, each with an
// exp.<id>_s metric.
var expIDs = []string{"fig6", "tab1", "tab3", "fig13", "fig14", "fig15", "fig16", "cluster", "serving2", "resilience"}

// perLayer are the metrics a traced pass reports.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s"})
	}
	defs = append(defs,
		metricDef{"dram.requests", "count"},
		metricDef{"dram.cycles", "count"},
		metricDef{"dram.streams", "count"},
		metricDef{"dram.ns_per_request", "ns"},
		metricDef{"engine.lookup_cold_ns", "ns"},
		metricDef{"engine.lookup_warm_ns", "ns"},
		metricDef{"serve.events", "count"},
		metricDef{"serve.completed", "count"},
		metricDef{"serve.ns_per_event", "ns"},
		metricDef{"cluster.routed", "count"},
		metricDef{"cluster.shed", "count"},
		metricDef{"cluster.stolen", "count"},
		metricDef{"cluster.barriers", "count"},
	)
	for _, id := range expIDs {
		defs = append(defs, metricDef{"exp." + id + "_s", "s"})
	}
	return append(defs,
		metricDef{"daemon.queue_wait_p50_s", "s"},
		metricDef{"daemon.service_p50_s", "s"},
		metricDef{"daemon.service_p90_s", "s"},
		metricDef{"daemon.http_p50_s", "s"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"loadgen.late_p90_s", "s"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}
