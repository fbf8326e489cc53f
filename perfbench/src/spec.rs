//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer ladder with the
//! end-to-end metric each rung is expected to move. `BENCHMARK.json`
//! is rendered from these tables (`--manifest`), so the manifest and
//! the code cannot drift apart.

use std::fmt::Write as _;
use std::time::Duration;

/// One seeded traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotTpch,
    WriteMix,
}

/// The dataset both workloads run on: TPC-H at micro scale
/// (`TpchConfig::base_customers`; parts are 1.3× customers), served
/// through the paper's Q2 application (customer ⋈ orders ⋈ lineitem).
pub const CUSTOMERS: usize = 100;
/// Index shards of the primary's engine.
pub const SHARDS: usize = 1;

/// Where the searches of a workload go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadTarget {
    Primary,
    Replica,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::HotTpch, Workload::WriteMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotTpch => "hot-tpch",
            Workload::WriteMix => "write-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HotTpch => {
                "TPC-H Q2 micro, repeated Zipf-skewed searches: nearly all hit the serve and \
                 net caches, so HTTP parsing, the event loop and the caches dominate"
            }
            Workload::WriteMix => {
                "searches on a replica while lineitem deletes and re-inserts go to the primary: \
                 bulk_delta, publish, cache invalidation and replication"
            }
        }
    }

    pub fn read_target(self) -> ReadTarget {
        match self {
            Workload::HotTpch => ReadTarget::Primary,
            Workload::WriteMix => ReadTarget::Replica,
        }
    }

    /// Offered search rate of the nominal phase, requests per second.
    pub fn search_rate(self) -> f64 {
        match self {
            Workload::HotTpch => 2_000.0,
            Workload::WriteMix => 1_000.0,
        }
    }

    /// Writes run alongside the searches (write-mix) or, on hot-tpch, as
    /// a probe after them.
    pub fn writes_with_reads(self) -> bool {
        self == Workload::WriteMix
    }

    /// Offered write rate, writes per second.
    pub fn write_rate(self) -> f64 {
        4.0
    }

    /// Search p99 limit of `max_qps_at_slo`, on the workloads it is
    /// searched for (the search-only one).
    pub fn slo(self) -> Option<Duration> {
        match self {
            Workload::HotTpch => Some(Duration::from_millis(5)),
            Workload::WriteMix => None,
        }
    }

    /// The fixed ladder of offered rates `max_qps_at_slo` is searched on,
    /// in geometric steps of [`LADDER_STEP`].
    /// It reaches about 360,000/s: on a quiet host two keep-alive
    /// connections sustained over 100,000 cached searches per second.
    pub fn ladder(self) -> Vec<f64> {
        (0..84).map(|i| 600.0 * LADDER_STEP.powi(i)).collect()
    }
}

/// Ratio between adjacent rungs of a rate ladder.
pub const LADDER_STEP: f64 = 1.08;

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What the metric is, or (per-layer) how it is measured and which
    /// end-to-end metric it should move on which workload.
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        about,
    }
}

const fn unbounded(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        about,
    }
}

/// End-to-end metrics, reported by every workload from the untraced run.
pub const END_TO_END: [Metric; 6] = [
    e2e("search_p50_us", "us", "lower", 0.25, "HTTP search latency at the nominal rate, from the due time when the connection was busy; median over ten deployments"),
    e2e("update_p50_ms", "ms", "lower", 0.25, "POST /update ack latency of one-row lineitem deletes and re-inserts"),
    e2e("replica_lag_p50_ms", "ms", "lower", 0.25, "ack until Replica::epoch() reaches the acked epoch"),
    e2e("replica_lag_p90_ms", "ms", "lower", 0.25, "same, 90th percentile"),
    e2e("setup_s", "s", "lower", 0.25, "inputs generated -> primary and replica serving; median of ten set-ups"),
    e2e("peak_rss_mb", "MB", "lower", 0.2, "peak resident memory of the process (VmHWM)"),
];

/// End-to-end figures measured and printed but not reported as metrics
/// (`max_qps_at_slo` by the traced run, the rest by the untraced one): on the 2-core VM their spread between runs of the
/// same code is wider than the widest regression bound (0.25). Thread
/// wake-up delays and host stalls of a few milliseconds decide the
/// search tail and the rate search; write queueing decides the write
/// tail under write-mix's Poisson arrivals.
pub const PRINTED: [Metric; 4] = [
    unbounded("search_p90_us", "us", "lower", "search latency, 90th percentile; median over ten deployments"),
    unbounded("search_p99_us", "us", "lower", "search latency, 99th percentile; median over ten deployments"),
    unbounded("update_p90_ms", "ms", "lower", "write-ack latency, 90th percentile"),
    unbounded("max_qps_at_slo", "1/s", "higher", "traced run, hot-tpch: highest ladder rate whose search p99 stays within 5 ms, achieved rate matching, no growing backlog"),
];

/// Per-layer metrics, reported by every workload from the traced run.
pub const PER_LAYER: [Metric; 25] = [
    unbounded("core.search_p50_us", "us", "lower", "ShardedEngine::search on the workload's requests; moves search_p50_us on write-mix, where invalidated entries miss (hot-tpch: predicted no change)"),
    unbounded("core.search_p99_us", "us", "lower", "same, 99th percentile; moves search_p90_us, search_p99_us on write-mix"),
    unbounded("core.keyword_groups_p50_us", "us", "lower", "ShardedEngine::keyword_groups on the same requests; moves search_p50_us on write-mix"),
    unbounded("core.bulk_delta_p50_ms", "ms", "lower", "dash_core::update::bulk_delta of the write stream; moves update_p50_ms on write-mix"),
    unbounded("core.apply_delta_p50_ms", "ms", "lower", "ShardedEngine::apply_delta on a pre-made fork (fork untimed); moves update_p50_ms, replica_lag_p50_ms on write-mix"),
    unbounded("core.crawl_s", "s", "lower", "the Q2 crawl (integrated MapReduce); moves setup_s on all"),
    unbounded("core.build_s", "s", "lower", "ShardedEngine::builder(..).build() from the crawled fragments; moves setup_s on all"),
    unbounded("core.image_load_ms", "ms", "lower", "write_image -> IngestSource::Image build; moves setup_s on write-mix"),
    unbounded("serve.search_hit_p50_us", "us", "lower", "DashServer::search on a cached request; moves search_p50_us on hot-tpch"),
    unbounded("serve.search_miss_p50_us", "us", "lower", "DashServer::search on uncached requests; moves search_p50_us on write-mix"),
    unbounded("serve.publish_p50_ms", "ms", "lower", "DashServer::publish of the write stream's deltas; moves update_p50_ms on write-mix"),
    unbounded("serve.drain_p50_ms", "ms", "lower", "dash_serve_drain_ns of those publishes; moves update_p50_ms on write-mix"),
    unbounded("serve.cache_hit_ratio", "ratio", "higher", "stats().cache hits / lookups on the read target; moves search_p50_us on hot-tpch, write-mix"),
    unbounded("serve.batch_size_mean", "count", "higher", "batched_requests / batches on the read target; moves search_p90_us on write-mix, whose misses are batched"),
    unbounded("serve.batch_window_p50_us", "us", "lower", "dash_serve_batch_window_ns on the read target; moves search_p50_us on write-mix"),
    unbounded("net.search_hit_p50_us", "us", "lower", "NetClient::search_json, one connection, closed loop, cached request; moves search_p50_us on hot-tpch"),
    unbounded("net.search_miss_p50_us", "us", "lower", "same on uncached requests; moves search_p50_us on write-mix"),
    unbounded("net.update_p50_ms", "ms", "lower", "NetClient::apply to a primary; moves update_p50_ms on write-mix"),
    unbounded("net.response_cache_hit_ratio", "ratio", "higher", "NetServer::response_cache_stats() on the read target; moves search_p50_us on hot-tpch"),
    unbounded("net.queue_wait_p99_us", "us", "lower", "dash_net_queue_wait_ns on the read target; moves search_p90_us, search_p99_us on hot-tpch, write-mix and max_qps_at_slo on hot-tpch"),
    unbounded("repl.bootstrap_ms", "ms", "lower", "Replica::connect until its server is ready; moves setup_s on write-mix"),
    unbounded("repl.forward_update_p50_ms", "ms", "lower", "NetClient::apply through serve_replica_forwarding; moves update_p50_ms on write-mix"),
    unbounded("router.search_p50_us", "us", "lower", "Router::search over primary and replica; moves search_p50_us on write-mix"),
    unbounded("loadgen.late_p99_us", "us", "lower", "generator timer oversleep on idle connections; says whether a run is valid (all)"),
    unbounded("loadgen.achieved_qps", "1/s", "higher", "searches completed per second of the nominal phase; says whether a run is valid (all)"),
];

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (at, w) in Workload::ALL.iter().enumerate() {
        let comma = if at + 1 < Workload::ALL.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name(),
            w.why()
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (at, m) in END_TO_END.iter().enumerate() {
        let comma = if at + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (at, m) in PER_LAYER.iter().enumerate() {
        let comma = if at + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}
