package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what each workload costs its user. Every workload
// reports all of them. Time is gated as CPU time: on a shared 2-core
// machine the host took up to a quarter of the cores' time while the
// benchmark ran, which moved wall-clock figures far beyond any bound on
// durable-ingest (see doc.go). Wall-clock figures are printed by name.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
}

// perLayerMetrics are printed by a traced run. A workload reports 0 for a
// layer it bypasses.
var perLayerMetrics = []metricDef{
	// paper-document
	{"cauniverse.new_s", "s", "lower"},
	{"population.generate_s", "s", "lower"},
	{"tlsnet.world_s", "s", "lower"},
	{"certgen.leaf_sign_us", "us", "lower"},
	{"notary.feed_s", "s", "lower"},
	{"notary.ingest_chains", "count", "higher"},
	{"analysis.table3_s", "s", "lower"},
	{"analysis.categories_s", "s", "lower"},
	{"analysis.figure2_s", "s", "lower"},
	{"analysis.population_s", "s", "lower"},
	{"chain.cache_hits", "count", "higher"},
	{"chain.cache_misses", "count", "lower"},
	{"chain.cache_lookups", "count", "lower"},
	{"chain.cache_hit_ratio", "ratio", "higher"},
	{"document.encode_s", "s", "lower"},
	{"document.untraced_share", "ratio", "lower"},
	{"trace.overhead_s", "s", "lower"},
	// columnar-reanalysis
	{"dataset.verify_ms", "ms", "lower"},
	{"dataset.read_ms", "ms", "lower"},
	{"analysis.aggregates_ms", "ms", "lower"},
	{"dataset.read_alloc_mb", "MB", "lower"},
	{"dataset.read_allocs", "count", "lower"},
	{"go.gc_cycles_per_pass", "count", "lower"},
	{"dataset.read_bytes", "count", "lower"},
	{"dataset.certs_interned", "count", "lower"},
	{"corpus.interned", "count", "lower"},
	{"corpus.hits", "count", "higher"},
	{"reanalysis.untraced_share", "ratio", "lower"},
	// durable-ingest
	{"client.queue_wait_ms", "ms", "lower"},
	{"router.apply_ms", "ms", "lower"},
	{"wire.overhead_ms", "ms", "lower"},
	{"shard.apply_p99_ms", "ms", "lower"},
	{"wal.fsyncs_per_request", "count", "lower"},
	{"wal.bytes_per_obs", "bytes", "lower"},
	{"read.has_record_ms", "ms", "lower"},
	{"read.stats_ms", "ms", "lower"},
	{"notaryshard.merges_per_stats", "count", "lower"},
	{"notary.recover_ms", "ms", "lower"},
	{"gen.late_max_ms", "ms", "lower"},
	// fleet-campaign
	{"netalyzr.probe_mean_ms", "ms", "lower"},
	{"campaign.session_mean_ms", "ms", "lower"},
	{"trusteval.evals", "count", "higher"},
	{"dials_per_session", "count", "lower"},
	{"resilient.retries", "count", "lower"},
}

// workloads are the benchmark's workloads by name. Why each exists, and
// which layers it bypasses, is recorded in BENCHMARK.json.
var workloads = map[string]workload{
	"paper-document": {
		repeat: true, minChildren: 3,
		child: documentChild, finish: finishDocument,
	},
	"columnar-reanalysis": {setupOnly: 2, child: reanalysisChild},
	"durable-ingest":      {setupOnly: 2, child: ingestChild},
	"fleet-campaign": {
		repeat: true, minChildren: 2,
		child: fleetChild,
	},
}
