//! The traced per-layer ladder: the same request set and write stream
//! timed at the public entry point of each layer, bottom to top —
//! `dash-core` (engine), `dash-serve` (server), `dash-net` (HTTP front
//! end), then replication and routing. Every timed call is recorded as
//! a span; a layer's self time is printed as the difference between the
//! medians of adjacent rungs.
//!
//! Each rung runs on its own fresh copy of the state (a fork of one
//! engine, a new server, a new front end), so one rung's caches never
//! serve another's requests. Only the forwarding rung writes through
//! the deployment itself; the caller accounts for those writes.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash_core::update::bulk_delta;
use dash_core::{Fragment, IndexDelta, IngestSource, SearchRequest, ShardedEngine};
use dash_net::{BackoffConfig, NetClient, NetConfig, NetServer, Router, RouterConfig, Upstream};
use dash_serve::{DashServer, ServeConfig};

use crate::deploy::{bind, connect_replica, Deployment};
use crate::inputs::{change_of, Inputs, Result};
use crate::spec::SHARDS;
use crate::stats::{quantile_of, summary, MS, US};

/// Requests timed at each read rung.
const REQUESTS: usize = 300;
/// Writes timed at each write rung (whole delete/re-insert pairs).
pub const WRITES: usize = 16;
/// Repetitions of the set-up rungs (image load, replica bootstrap).
const REPEATS: usize = 3;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

/// Spans recorded so far, kept in memory until the run ends.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.spans.push(Span {
            name,
            start,
            end: Instant::now(),
        });
        out
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// The `q`-quantile of the spans named `name`, in `unit` seconds.
    pub fn quantile(&self, name: &str, q: f64, unit: f64) -> Result<f64> {
        quantile_of(&self.durations(name), q, unit).ok_or_else(|| format!("no {name} spans"))
    }

    /// Writes the spans as tab-separated `name start_ns end_ns` lines,
    /// times relative to `origin`.
    pub fn write_tsv(&self, path: &std::path::Path, origin: Instant) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}",
                s.name,
                s.start.saturating_duration_since(origin).as_nanos(),
                s.end.saturating_duration_since(origin).as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Per-layer values, in `spec::PER_LAYER` names and units.
pub type Values = Vec<(&'static str, f64)>;

/// Per-layer metrics read off the spans: (metric, span name, quantile,
/// unit in seconds).
const FROM_SPANS: [(&str, &str, f64, f64); 15] = [
    ("core.search_p50_us", "core.search", 0.5, US),
    ("core.search_p99_us", "core.search", 0.99, US),
    ("core.keyword_groups_p50_us", "core.keyword_groups", 0.5, US),
    ("core.bulk_delta_p50_ms", "core.bulk_delta", 0.5, MS),
    ("core.apply_delta_p50_ms", "core.apply_delta", 0.5, MS),
    ("core.image_load_ms", "core.image_load", 0.5, MS),
    ("serve.search_hit_p50_us", "serve.search_hit", 0.5, US),
    ("serve.search_miss_p50_us", "serve.search_miss", 0.5, US),
    ("serve.publish_p50_ms", "serve.publish", 0.5, MS),
    ("net.search_hit_p50_us", "net.search_hit", 0.5, US),
    ("net.search_miss_p50_us", "net.search_miss", 0.5, US),
    ("net.update_p50_ms", "net.update", 0.5, MS),
    ("repl.bootstrap_ms", "repl.bootstrap", 0.5, MS),
    ("repl.forward_update_p50_ms", "repl.forward_update", 0.5, MS),
    ("router.search_p50_us", "router.search", 0.5, US),
];

/// Times every rung of the ladder. `fragments` are the deployment's
/// crawled fragments. Returns the values and the number of writes made
/// through the deployment (always whole pairs).
pub fn measure(
    inputs: &Inputs,
    deployment: &Deployment,
    fragments: &[Fragment],
    trace: &mut Trace,
) -> Result<(Values, usize)> {
    let app = deployment.app.clone();
    let requests = inputs.requests(0x1A7E, REQUESTS);
    let distinct: Vec<SearchRequest> = {
        let mut seen = BTreeSet::new();
        requests
            .iter()
            .filter(|r| seen.insert((r.keywords.clone(), r.k, r.min_size)))
            .cloned()
            .collect()
    };
    let writes = &inputs.writes[..WRITES];

    // dash-core: the engine alone.
    let engine = ShardedEngine::builder(app.clone())
        .shards(SHARDS)
        .source(IngestSource::Fragments(fragments))
        .build()
        .map_err(|e| format!("build: {e}"))?;
    for request in &requests {
        trace.span("core.search", || engine.search(request));
        trace.span("core.keyword_groups", || {
            engine.keyword_groups(&request.keywords)
        });
    }
    let mut deltas: Vec<IndexDelta> = Vec::with_capacity(WRITES);
    for (at, change) in writes.iter().enumerate() {
        let db = inputs.db_after(at + 1);
        let delta = trace
            .span("core.bulk_delta", || {
                bulk_delta(&app, &db, &[change_of(change).clone()])
            })
            .map_err(|e| format!("bulk_delta: {e}"))?;
        deltas.push(delta);
    }
    let mut fork = engine.fork();
    for delta in &deltas {
        let delta = delta.clone();
        trace.span("core.apply_delta", || fork.apply_delta(delta));
    }
    drop(fork);
    let mut image = Vec::new();
    engine
        .write_image(&mut image)
        .map_err(|e| format!("write_image: {e}"))?;
    for _ in 0..REPEATS {
        trace
            .span("core.image_load", || {
                ShardedEngine::builder(app.clone())
                    .source(IngestSource::Image(&image))
                    .build()
            })
            .map_err(|e| format!("image load: {e}"))?;
    }
    drop(image);

    // dash-serve: cache, batcher and snapshot swap over the engine.
    let server = DashServer::from_engine(engine.fork(), ServeConfig::default().shards(SHARDS));
    for request in &distinct {
        trace.span("serve.search_miss", || server.search(request));
    }
    for request in &distinct {
        trace.span("serve.search_hit", || server.search(request));
    }
    for delta in &deltas {
        let delta = delta.clone();
        trace.span("serve.publish", || server.publish(delta));
    }
    let drain = summary(&server.metrics_text(), "dash_serve_drain_ns")
        .ok_or("no dash_serve_drain_ns series")?;
    drop(server);

    // dash-net: the HTTP front end over a fresh server, one connection.
    let server = Arc::new(DashServer::from_engine(
        engine.fork(),
        ServeConfig::default().shards(SHARDS),
    ));
    drop(engine);
    let front = NetServer::serve_primary(server, inputs.db.clone(), bind()?, NetConfig::default())
        .map_err(|e| format!("front end: {e}"))?;
    let mut client = NetClient::connect(front.addr()).map_err(|e| format!("connect: {e}"))?;
    for (span, pass) in [
        ("net.search_miss", &distinct),
        ("net.search_hit", &distinct),
    ] {
        for request in pass {
            trace
                .span(span, || client.search_json(request))
                .map_err(|e| format!("net search: {e}"))?;
        }
    }
    for change in writes {
        trace
            .span("net.update", || client.apply(vec![change.clone()]))
            .map_err(|e| format!("net update: {e}"))?;
    }
    drop(client);
    drop(front);

    // Replication: bootstrap of extra replicas off the deployment's hub,
    // and writes forwarded by a replica front end to the primary.
    for _ in 0..REPEATS {
        trace.span("repl.bootstrap", || {
            connect_replica(deployment.hub.addr(), &app)
        })?;
    }
    let upstream = Arc::new(Upstream::new(
        deployment.net.addr(),
        BackoffConfig::default(),
    ));
    let forwarding = NetServer::serve_replica_forwarding(
        Arc::clone(&deployment.replica),
        upstream,
        bind()?,
        NetConfig::default(),
    )
    .map_err(|e| format!("forwarding front end: {e}"))?;
    let mut client = NetClient::connect(forwarding.addr()).map_err(|e| format!("connect: {e}"))?;
    for change in writes {
        trace
            .span("repl.forward_update", || client.apply(vec![change.clone()]))
            .map_err(|e| format!("forwarded update: {e}"))?;
    }
    drop(client);
    drop(forwarding);

    // Routing: reads spread over primary and replica.
    let router = Router::new(
        vec![deployment.net.addr(), deployment.replica_net.addr()],
        RouterConfig::default(),
    );
    if !router.wait_healthy(2, Duration::from_secs(10)) {
        return Err("router never saw both nodes healthy".to_string());
    }
    for request in &requests {
        trace
            .span("router.search", || router.search(request))
            .map_err(|e| format!("router search: {e}"))?;
    }
    drop(router);

    let mut values: Values = Vec::new();
    for (metric, span, q, unit) in FROM_SPANS {
        values.push((metric, trace.quantile(span, q, unit)?));
    }
    values.push(("serve.drain_p50_ms", drain.p50 as f64 * 1e-6));
    Ok((values, WRITES))
}

/// Self time of each layer as differences of adjacent rungs' medians.
pub fn self_times(values: &Values) -> Vec<(String, f64, &'static str)> {
    let get = |name: &str| values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let rungs: [(&str, &str, &[&str], &'static str); 7] = [
        (
            "serve (miss)",
            "serve.search_miss_p50_us",
            &["core.search_p50_us"],
            "us",
        ),
        (
            "net (miss)",
            "net.search_miss_p50_us",
            &["serve.search_miss_p50_us"],
            "us",
        ),
        (
            "net (hit)",
            "net.search_hit_p50_us",
            &["serve.search_hit_p50_us"],
            "us",
        ),
        (
            "router",
            "router.search_p50_us",
            &["net.search_hit_p50_us"],
            "us",
        ),
        (
            "serve (publish)",
            "serve.publish_p50_ms",
            &["core.apply_delta_p50_ms"],
            "ms",
        ),
        (
            "net (update)",
            "net.update_p50_ms",
            &["core.bulk_delta_p50_ms", "serve.publish_p50_ms"],
            "ms",
        ),
        (
            "forwarding",
            "repl.forward_update_p50_ms",
            &["net.update_p50_ms"],
            "ms",
        ),
    ];
    rungs
        .iter()
        .filter_map(|(label, upper, lowers, unit)| {
            let mut diff = get(upper)?;
            for lower in *lowers {
                diff -= get(lower)?;
            }
            Some((
                format!(
                    "{label}: median({upper}) - median({})",
                    lowers.join(") - median(")
                ),
                diff,
                *unit,
            ))
        })
        .collect()
}
