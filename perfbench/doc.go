// Command perfbench is the repository's end-to-end benchmark. It builds
// from the checkout it sits in (run.sh) and runs one workload per call:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Inputs are generated from --seed. Every workload checks its outputs, and
// the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The lines above it
// print the same numbers by name, plus each workload's own names for them.
//
// # Processes
//
// The command only orchestrates. All work runs in child processes of the
// same binary, each fresh: the shared certificate corpus keeps everything
// a process ever interned, so in-process repeats would drift memory and GC
// cost. Children run with GOMAXPROCS 2 and at most two client
// connections, campaign workers and analysis workers.
//
// # Workloads
//
//   - paper-document: the whole paperfigs pipeline, cold, once per child:
//     cauniverse.New → population.Generate (scale 0.25) → tlsnet.NewWorld
//     (4,000 leaves) → notary.New + tlsnet.Feed → Tables 1–5, Figures 1–3,
//     headlines, trust attribution → JSON. Children repeat until --seconds
//     of documents are measured. Checks: Table 1 sizes 139/140/146/150/227/153,
//     117 AOSP 4.4 roots byte-identical in Mozilla, attribution causes
//     summing to sessions, and one document digest across all children.
//   - columnar-reanalysis: set-up writes the paper-scale columnar dataset;
//     each pass then reads it with a fresh corpus and computes Table 2,
//     Table 5, Figure 1, headlines, sessions per month and the trust
//     attribution on a two-worker engine. Check: every pass's artifacts
//     are byte-equal to those computed from the in-memory population.
//   - durable-ingest: a notary server process sets up a 2-shard durable
//     store (prefeed, checkpoint, close, reopen as a restarted daemon) and
//     serves it; the measuring process drives an open loop over two
//     connections: observe_batch of 16 leaves, one in 50 of them a fresh
//     certificate's first sighting and the rest prefed leaves drawn
//     uniformly, one has_record per observe_batch and four stats per
//     second. It runs first at the reference rate of 6,000 observations/s
//     for 60% of the time, then at 12,000 and 18,000. The maximum rate is
//     the highest step below the first one that misses the 250 ms p99
//     limit or grows a backlog. Latency runs from each request's due time.
//     The server is then killed, and its store must reopen with prefeed +
//     acknowledged sessions and every acknowledged leaf on record.
//     has_record answers are checked against the load's own history, the
//     server's count of acknowledged observations against the clients',
//     and a run whose generator ran late by a tenth of the limit at p99 is
//     rejected. Each step's offered mix is printed.
//   - fleet-campaign: campaign.Run with two workers over a scale-0.1 fleet,
//     against loopback origins, the interception proxy, a collector and an
//     in-memory notary server. Checks: no failed session, submit or
//     observation, and the collector's session count equals the fleet's.
//
// # End-to-end metrics
//
// Every workload reports every end-to-end metric.
//
//   - setup_s: median CPU seconds of set-up over several fresh processes —
//     the universe on paper-document (its document still includes it),
//     dataset generation and write on columnar-reanalysis, pool, prefeed
//     and reopen on durable-ingest, fleet and servers on fleet-campaign.
//     CPU time (user and system, from getrusage) leaves out the time a
//     hypervisor gives the cores to other guests.
//   - rss_peak_mb: median peak resident set (VmHWM) of the measuring
//     processes; on durable-ingest, of the server.
//   - cpu_ms_per_op: CPU milliseconds per op, where an op is a cold
//     document, a reanalysis pass, a request completed at the reference
//     rate (server and load generator together) or a campaign session.
//
// Each run also prints, by name, each workload's own wall-clock numbers:
// document_s; reanalysis_pass_p50_ms and reanalysis_pass_tail_ms, the
// highest percentile with at least ten passes beyond it; ingest_p50_ms,
// ingest_p99_ms, read_p99_ms, stats_p50_ms, ingest_max_rate_obs_s and
// ingest_new_leaf_share; campaign_sessions_per_s and
// campaign_session_mean_ms (from the observer's span aggregate). They are
// not gated, because wall time is gated for every workload or for none,
// and durable-ingest's cannot be: while the benchmark ran, the host took
// up to a quarter of the cores' time, which raised the CPU time per
// request by at most a quarter but the observe_batch p50 by up to 8x, as
// waits for a core queued behind one another. The cost is that a change adding
// waiting rather than work (an extra fsync per batch, a retry's back-off,
// workers that no longer run in parallel) shows only in these printed
// figures and in per-layer counts, not in the gate.
//
// # Per-layer metrics
//
// A traced run records spans from this package's calls into each layer
// and reads the counters the program already exports (obs snapshots,
// notary.CacheStats, corpus stats, runtime MemStats); nothing is traced
// inside the program. A workload reports 0 for a layer it bypasses. On
// paper-document and columnar-reanalysis traced and untraced units
// alternate: span self-times must cover 90% of the untraced time, and the
// difference is trace.overhead_s. The campaign's trust engines carry no
// chain cache, so chain.cache_* read 0 on fleet-campaign.
package main
