package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same names; TestMetricsMatchBenchmarkJSON keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the untraced run's metrics.
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"peak_rps", "req/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
	{"cpu_ms_per_job", "ms", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise (the router without a fleet, a solver no request ran) reads 0.
// p99_ms, the open loop's tail, is here rather than in endToEnd: its
// run-to-run spread on a shared 2-core host exceeds any bound the
// benchmark may set.
var perLayer = []metricDef{
	{"p99_ms", "ms", "lower"},
	{"server.decode.us_p50", "us", "lower"},
	{"server.decode.bytes", "bytes", "lower"},
	{"server.key.us_p50", "us", "lower"},
	{"nocmap.solve.nmap-single.us_p50", "us", "lower"},
	{"nocmap.solve.nmap-single.us_p99", "us", "lower"},
	{"nocmap.solve.nmap-single.events", "count", "lower"},
	{"nocmap.solve.nmap-split.us_p50", "us", "lower"},
	{"nocmap.solve.nmap-split.us_p99", "us", "lower"},
	{"nocmap.solve.nmap-split.events", "count", "lower"},
	{"nocmap.encode.us_p50", "us", "lower"},
	{"nocmap.encode.bytes", "bytes", "lower"},
	{"server.unattributed.us_p50", "us", "lower"},
	{"server.unattributed.us_p99", "us", "lower"},
	{"server.cache.hit_ratio", "ratio", "higher"},
	{"server.coalesced_ratio", "ratio", "higher"},
	{"server.problems_reused_ratio", "ratio", "higher"},
	{"server.queue.len_max", "count", "lower"},
	{"server.store_pending.max", "count", "lower"},
	{"store.apply.us_p50", "us", "lower"},
	{"store.apply.us_p99", "us", "lower"},
	{"store.bytes_per_job", "bytes", "lower"},
	{"store.compactions_per_1k_jobs", "count", "lower"},
	{"store.errors", "count", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"shard.hop.us_p50", "us", "lower"},
	{"shard.retries", "count", "lower"},
	{"shard.failovers", "count", "lower"},
	{"server.replication.acked_ratio", "ratio", "higher"},
	{"server.replication.records_per_job", "count", "lower"},
	{"server.replication.lag_max", "count", "lower"},
	{"gen.lag_p99_ms", "ms", "lower"},
	{"gen.backlog_max", "count", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("nocbench: unregistered metric " + name)
}
