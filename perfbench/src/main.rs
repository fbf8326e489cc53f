//! # dash-perfbench — the repository's end-to-end benchmark
//!
//! Drives seeded, open-loop traffic through the real HTTP front end
//! (`NetServer` over `DashServer`, every config at its default), checks
//! the served answers against a fresh engine, and prints every metric
//! by name and unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-tpch --seed 1 --seconds 25 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer ladder (see
//! [`layers`]). The seed drives the arrival times and the request and
//! write draws against a fixed fixture (see [`inputs`]). Seeds 1–11
//! and 21–210 were used while the benchmark was tuned and seed 1009 was
//! not, so a later claim can be checked on a seed nobody tuned against.
//!
//! ## Deployment
//!
//! Every workload stands up the same shape: a primary (`DashServer`
//! crawled from a TPC-H database through the paper's Q2 application,
//! behind a `NetServer`), a `ReplicationHub`, and one in-process
//! `Replica` behind its own `NetServer`. The load comes from this one
//! process (see [`openloop`]): the nominal search phases use one
//! generator thread on one keep-alive connection, writes one more, and
//! the rate search `nproc` threads, each owning one connection.
//!
//! ## Workloads
//!
//! | Workload | Data | Traffic | Why |
//! |---|---|---|---|
//! | `hot-tpch` | TPC-H Q2 micro (100 customers, 2,659 fragments), 1 shard | 2,000 searches/s to the primary, one keyword Zipf-drawn from a 24-word hot/warm/cold pool; then closed-loop writes | nearly every search is a serve result-cache or net byte-cache hit, so the event loop, HTTP parsing, rendering and the caches do the work, and `dash-core` almost none: a search-kernel optimisation is predicted not to move it |
//! | `write-mix` | TPC-H Q2 micro, 1 shard | 1,000 searches/s to the replica from the same pool, 4 writes/s (Poisson) to the primary | the read layers used differently: writes invalidate caches and swap snapshots, and `bulk_delta`, `apply_delta`, publish/drain and the replication feed run; a read-path gain that costs invalidation or publish work shows here |
//!
//! A third workload, `cold-scale` (4 shards, distinct 1–2 keyword
//! searches drawn Zipf 1.1 over the whole vocabulary, so both caches
//! miss), was built and left out. At 250 customers its spread between
//! runs over five seeds (quartile distance over median) was 0.20 for
//! search p50 and 0.33 for update p90, the latter beyond the widest
//! regression bound (0.25); on the micro database `max_qps_at_slo` read
//! 634–1597/s over four seeds. A third workload also does not fit the
//! run budget at this run length. The cache-miss path is still timed on
//! every workload by the layer ladder's miss rungs
//! (`serve.search_miss_p50_us`, `net.search_miss_p50_us`,
//! `core.search_*`), and write-mix serves the misses its invalidations
//! cause.
//!
//! The nominal search rates are set so that the median search falls
//! well inside one mode of the latency distribution. On a quiet host a
//! search the replica answers from its net byte cache takes about
//! 25 µs, and one that misses takes longer; each write invalidates the
//! caches. At 200 searches/s only about fifty searches fall between two
//! writes, the byte-cache hit share sits near one half, and the median
//! fell between the modes: per-deployment medians of one run lay at
//! 46–77 µs with 4 writes/s and split into groups near 25 µs and 50 µs
//! with 2 writes/s, and the spread of `search_p50_us` between runs
//! reached 0.30. At 1,000 searches/s the median is the hit mode
//! (per-deployment medians 23–35 µs) and the misses the writes cause
//! show at the 90th percentile. Hot-tpch's 2,000/s keeps the gaps
//! between requests short, so fewer of them wait for an idle core to
//! wake.
//!
//! A write is one `POST /update` carrying one `lineitem` row change:
//! row *i* is deleted and then re-inserted, so the database keeps its
//! size and the run ends on the state it began with.
//!
//! Every workload reports every end-to-end metric, so hot-tpch measures
//! writes too: after each of its search phases, a closed-loop write
//! probe gives it update and replica-lag figures (without concurrent
//! reads).
//!
//! ## A run
//!
//! An untraced run sets the deployment up ten times. Each set-up is
//! timed, warmed up (until the cache hit ratio of two consecutive
//! 0.3 s slices agrees) and measured at the nominal rate for a tenth
//! of the nominal time; search latency is the median over the ten.
//! Search p50 differs more between deployments of one run (by up to
//! half) than between the slices of one deployment, so many short
//! deployments give a steadier median than a few long ones. On
//! hot-tpch each round then runs a tenth of the write probe. Of
//! `--seconds`, hot-tpch spends 60% on the nominal phases and 40% on
//! the write probes; write-mix spends all of it on the nominal phases,
//! its writes running alongside the searches.
//!
//! ## End-to-end metrics (untraced run)
//!
//! | Metric | Meaning |
//! |---|---|
//! | `search_p50_us` | HTTP search latency at the nominal rate; median over the ten deployments |
//! | `update_p50_ms` | write-ack latency |
//! | `replica_lag_p50_ms`, `replica_lag_p90_ms` | ack until `Replica::epoch()` reaches the acked epoch, polled every 200 µs (p90: about a hundred writes leave p99 with too few samples beyond it) |
//! | `setup_s` | inputs generated → primary and replica serving (crawl/build, bind, replica bootstrap); median of ten set-ups |
//! | `peak_rss_mb` | peak resident memory |
//!
//! The regression bounds are in [`spec::END_TO_END`].
//!
//! Four more figures are measured and printed but not reported as
//! metrics ([`spec::PRINTED`]), because their spread between runs of the
//! same code (quartile distance over median) on the 2-core VM was far
//! beyond the widest regression bound (0.25). Thread wake-up delays and
//! host stalls of a few milliseconds decide the search tail and the rate
//! search: over five seeds on hot-tpch the spread was 1.3–1.8 for
//! `search_p90_us` and `search_p99_us`, and 1.4 for `max_qps_at_slo`.
//! Write queueing under Poisson arrivals decides write-mix's write
//! tail: `update_p90_ms` spread 0.24–0.71.
//!
//! * `search_p90_us`, `search_p99_us`: medians over the ten
//!   deployments of each one's percentile (untraced run).
//! * `update_p90_ms`: write-ack latency, 90th percentile (untraced run).
//! * `max_qps_at_slo` (traced run, hot-tpch): the highest rate of a
//!   fixed 8%-step ladder whose search p99 stays within 5 ms, with
//!   nothing failed, the achieved rate within 5% of the offered one and
//!   no backlog growing from the first half of the rung to the second.
//!   It is found by bisection over 35% of `--seconds`; a miss counts
//!   only if a repeat misses too, and a rung's p99 is the second-highest
//!   of its quarters' p99s. With `nproc` keep-alive connections and
//!   cached answers the limit reached is the connections' round trip
//!   (20,000 to over 100,000 per second, by host), not the server's
//!   capacity. Its rungs load the host far beyond the nominal rate, so
//!   the search runs in the traced run, after the per-layer rungs and
//!   the traced phases, and never before an end-to-end measurement. It
//!   is searched for on the search-only workload; write-mix has no
//!   limit.
//!
//! Failed or refused operations (a `503` included) are the JSON
//! `failed` count against `attempted`; a failed fraction is printed too.
//! It is not a JSON metric because it is normally exactly 0.
//!
//! ## Per-layer metrics (traced run)
//!
//! See [`spec::PER_LAYER`]: each entry says which public call it times
//! (or which counter or `/metrics` series it reads) and which end-to-end
//! metric it should move on which workload. `net.shed_total` (shed plus
//! overflow `503`s) is printed; it is folded into `failed`.
//!
//! ## Calibration (2-core VM, `nproc` = 2, before this benchmark existed)
//!
//! * A 100k-fragment synthetic corpus on 4 shards: `ShardedEngine::search`
//!   p50 80 µs, `keyword_groups` p50 675 µs, a `DashServer::search` miss
//!   p50 607 µs, HTTP closed loop p50 1.28 ms; open loop at 120 qps p50
//!   2.27–2.58 ms and p99 12.9–16.7 ms; overloaded at 500 qps.
//!   `keyword_groups` runs twice per miss (serve batcher and net
//!   response cache).
//! * TPC-H Q2 micro, 2,659 fragments: open loop at 1,000 qps p50
//!   114–123 µs, p99 1.27–1.65 ms; p99 1.5 ms at 3,000 qps and 3.0 ms
//!   at 6,000 qps.
//! * One-row `lineitem` write: ack p50 55–62 ms, of which `bulk_delta`
//!   ~12 ms and the primary's whole-database staging clone ~1.9 ms; the
//!   rest is inside `DashServer::publish`. The replica reaches the acked
//!   epoch tens of ms after the ack; replica bootstrap 51–55 ms.
//! * Between runs, p50 repeated within ~10–13% and p99 within ~30%, so
//!   every figure here is a median over repeated measurements.
//!
//! Medians this benchmark measured over seeds 201–210 on the same kind
//! of VM, `--seconds 25` (quartile distance over median in brackets):
//!
//! | Workload | `search_p50_us` | `update_p50_ms` | `replica_lag_p50_ms` | `replica_lag_p90_ms` | `setup_s` | `peak_rss_mb` |
//! |---|---|---|---|---|---|---|
//! | hot-tpch | 16.9 (0.08) | 31.5 (0.05) | 27.4 (0.04) | 32.2 (0.06) | 0.45 (0.06) | 732 (0.06) |
//! | write-mix | 20.3 (0.03) | 43.3 (0.04) | 27.4 (0.08) | 32.5 (0.07) | 0.45 (0.11) | 822 (0.05) |
//!
//! The host's own speed is the largest source of spread left. A shared
//! VM's speed drifted by about 2× within an hour (set-up 0.45–1.2 s,
//! hot-tpch update p50 31–68 ms, search p50 17–65 µs, with 0–15% of CPU
//! time stolen by the hypervisor), and ten runs made while it sped up
//! (seeds 101–110) spread 0.22–0.37 on every latency. Every run prints
//! the stolen share, so such a set shows in its output.

mod check;
mod deploy;
mod inputs;
mod layers;
mod openloop;
mod spec;
mod stats;

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dash_net::NetClient;

use crate::check::Oracle;
use crate::deploy::Deployment;
use crate::inputs::{Inputs, Result};
use crate::openloop::{run_reads, run_writes, ReadPhase, ReadResult, WriteDone, WriteResult};
use crate::spec::{Workload, LADDER_STEP};
use crate::stats::{mean_between, quantile_of, MS, US};

/// Set-ups per run; `setup_s` and `search_p50_us` are medians over
/// them. Search latency differs more between deployments than within
/// one, so a run measures many short deployments.
const SETUPS: usize = 10;
/// Keep-alive connections of the nominal search phases. One keeps the
/// generator from competing with the servers for the cores; the rate
/// search uses `nproc`.
const SEARCH_CONNS: usize = 1;
/// Warm-up slice, and the most slices before giving up on a steady
/// cache hit ratio.
const WARM_SLICE: f64 = 0.3;
const WARM_SLICES: usize = 8;
/// Slices of a ladder rung; see [`qualifies`].
const RUNG_WINDOWS: usize = 4;
/// Hit ratios of consecutive slices closer than this count as steady.
const WARM_STEADY: f64 = 0.02;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = spec::RUN_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--manifest" {
            print!("{}", spec::manifest());
            return Ok(None);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hot-tpch|write-mix> --seed <n> \
                 --seconds <s> --trace <0|1> | --manifest"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Counts of operations across a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn reads(&mut self, r: &ReadResult) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }
    fn writes(&mut self, w: &WriteResult) {
        self.attempted += w.attempted;
        self.failed += w.failed;
    }
}

/// Metrics of a run, in report order.
struct Metrics {
    values: Vec<(&'static spec::Metric, f64)>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        let metric = spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER.iter())
            .chain(spec::PRINTED.iter())
            .find(|m| m.name == name)
            .expect("every reported metric is in the spec tables");
        self.values.push((metric, value));
    }
}

fn run(args: &Args) -> Result<String> {
    let workload = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={nproc}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let steal_before = stats::cpu_steal();
    let inputs = Inputs::generate(workload, args.seed)?;
    println!(
        "inputs: {} fragments, {} query words, {} writes available",
        inputs.fragments.len(),
        inputs.vocab.len(),
        inputs.writes.len()
    );
    let report = if args.trace {
        traced(args, &inputs, nproc)
    } else {
        untraced(args, &inputs)
    }?;
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, stats::cpu_steal()) {
        println!(
            "host: {:.1}% of CPU time stolen by the hypervisor during the run",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    Ok(report)
}

fn untraced(args: &Args, inputs: &Inputs) -> Result<String> {
    let workload = inputs.workload;
    let total = args.seconds as f64;
    let target = workload.read_target();
    let mut tally = Tally::default();
    let mut metrics = Metrics { values: Vec::new() };
    let mut oracle = Oracle::new(inputs);

    // Each set-up is timed, warmed up and measured at the nominal rate
    // for a share of the nominal time: search latency is the median over
    // independent deployments, not one deployment's luck.
    let nominal_secs = if workload.writes_with_reads() {
        1.0
    } else {
        0.6
    } * total;
    let probe_secs = 0.4 * total;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut p50s = Vec::with_capacity(SETUPS);
    let mut p90s = Vec::with_capacity(SETUPS);
    let mut p99s = Vec::with_capacity(SETUPS);
    let mut pooled: Vec<Duration> = Vec::new();
    let mut acks: Vec<Duration> = Vec::new();
    let mut lags: Vec<Duration> = Vec::new();
    let mut checked = 0;
    let mut deployment = None;
    let mut applied = 0;
    for round in 0..SETUPS {
        drop(deployment.take());
        let (d, times, _) = Deployment::start(inputs, false)?;
        setups.push(times.total);
        warm_up(inputs, &d)?;
        let addr = d.read_addr(target);
        let scrape_before = metrics_text(addr)?;
        let (reads, writes) = mixed_phase(
            inputs,
            &d,
            ReadPhase {
                rate: workload.search_rate(),
                seconds: nominal_secs / SETUPS as f64,
                conns: SEARCH_CONNS,
                stream: 1 + round as u64,
                sample: true,
            },
            0,
        );
        let scrape_after = metrics_text(addr)?;
        tally.reads(&reads);
        applied = 0;
        let mut concurrent: &[WriteDone] = &[];
        if let Some(w) = &writes {
            tally.writes(w);
            fail_on_write_errors(w)?;
            applied = w.applied;
            concurrent = &w.done;
            let measured = w.done.iter().filter(|w| w.measured);
            for write in measured {
                acks.push(write.latency);
                lags.push(write.lag);
            }
        }
        print_phase(&format!("nominal {}", round + 1), &reads);
        cross_check(&reads, &scrape_before, &scrape_after);
        let latencies = reads.latencies();
        pooled.extend_from_slice(&latencies);
        p50s.push(need(quantile_of(&latencies, 0.5, US), "search p50")?);
        p90s.push(need(quantile_of(&latencies, 0.9, US), "search p90")?);
        p99s.push(need(quantile_of(&latencies, 0.99, US), "search p99")?);
        checked += oracle.check_samples(&reads.samples, 0, concurrent)?;
        // Without concurrent writes (hot-tpch): a closed-loop write probe
        // after each round's searches.
        if !workload.writes_with_reads() {
            let end = Instant::now() + Duration::from_secs_f64(probe_secs / SETUPS as f64);
            let w = run_writes(d.net.addr(), &d.replica, inputs, 0, None, 7, end);
            tally.writes(&w);
            fail_on_write_errors(&w)?;
            applied = w.applied;
            for write in w.done.iter().filter(|w| w.measured) {
                acks.push(write.latency);
                lags.push(write.lag);
            }
        }
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");

    // The correctness gate: sampled bodies were checked per round.
    let probed = oracle.check_final(&d, applied)?;
    println!("correctness: {checked} sampled bodies and {probed} probes after {applied} writes match a fresh engine");

    metrics.put(
        "search_p50_us",
        need(stats::median(&mut p50s), "search p50")?,
    );
    metrics.put(
        "update_p50_ms",
        need(quantile_of(&acks, 0.5, MS), "update p50")?,
    );
    metrics.put(
        "replica_lag_p50_ms",
        need(quantile_of(&lags, 0.5, MS), "lag p50")?,
    );
    metrics.put(
        "replica_lag_p90_ms",
        need(quantile_of(&lags, 0.9, MS), "lag p90")?,
    );
    metrics.put("setup_s", need(quantile_of(&setups, 0.5, 1.0), "setup")?);
    metrics.put("peak_rss_mb", need(stats::peak_rss_mb(), "peak RSS")?);
    let mut printed = Metrics { values: Vec::new() };
    printed.put(
        "search_p90_us",
        need(stats::median(&mut p90s), "search p90")?,
    );
    printed.put(
        "search_p99_us",
        need(stats::median(&mut p99s), "search p99")?,
    );
    printed.put(
        "update_p90_ms",
        need(quantile_of(&acks, 0.9, MS), "update p90")?,
    );
    print_only(&printed);
    println!(
        "search p50 per deployment {p50s:.1?} us, pooled {:.1} us",
        quantile_of(&pooled, 0.5, US).unwrap_or(f64::NAN)
    );
    println!(
        "samples: {} searches over {} deployments, {} writes, {} set-ups; failed {}/{} ({:.4})",
        pooled.len(),
        SETUPS,
        acks.len(),
        setups.len(),
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    print_net_counters(&d);
    drop(d);
    Ok(report(&metrics, &tally))
}

fn traced(args: &Args, inputs: &Inputs, nproc: usize) -> Result<String> {
    let workload = inputs.workload;
    let total = args.seconds as f64;
    let origin = Instant::now();
    let (d, times, fragments) = Deployment::start(inputs, true)?;
    let fragments = fragments.expect("a split set-up returns its fragments");
    let mut trace = layers::Trace::default();
    let mut metrics = Metrics { values: Vec::new() };
    let mut tally = Tally::default();
    metrics.put(
        "core.crawl_s",
        times.crawl.expect("split set-up").as_secs_f64(),
    );
    metrics.put(
        "core.build_s",
        times.build.expect("split set-up").as_secs_f64(),
    );
    println!(
        "setup (split): total {:.3} s, crawl {:.3} s, build {:.3} s, replica bootstrap {:.1} ms",
        times.total.as_secs_f64(),
        times.crawl.expect("split set-up").as_secs_f64(),
        times.build.expect("split set-up").as_secs_f64(),
        times.bootstrap.as_secs_f64() / MS
    );
    let (values, mut applied) = layers::measure(inputs, &d, &fragments, &mut trace)?;
    drop(fragments);
    for (name, value) in &values {
        metrics.put(name, *value);
    }

    // The workload's traffic: a nominal phase whose requests are kept as
    // spans, and one whose are not. Their difference is the tracing
    // overhead plus the noise between two phases.
    let target = workload.read_target();
    let addr = d.read_addr(target);
    warm_up(inputs, &d)?;
    let phase = |stream| ReadPhase {
        rate: workload.search_rate(),
        seconds: 0.25 * total,
        conns: SEARCH_CONNS,
        stream,
        sample: true,
    };
    let (plain, w1) = mixed_phase(inputs, &d, phase(11), applied);
    tally.reads(&plain);
    let mut concurrent = Vec::new();
    if let Some(w) = &w1 {
        tally.writes(w);
        fail_on_write_errors(w)?;
        applied = w.applied;
        concurrent.extend(w.done.iter().copied());
    }
    let (traced, w2) = mixed_phase(inputs, &d, phase(12), applied);
    tally.reads(&traced);
    if let Some(w) = &w2 {
        tally.writes(w);
        fail_on_write_errors(w)?;
        applied = w.applied;
        concurrent.extend(w.done.iter().copied());
    }
    for done in &traced.done {
        let sent = traced.start + done.due + done.start_delay;
        trace.spans.push(layers::Span {
            name: "http.search",
            start: sent,
            end: sent + done.round_trip,
        });
    }
    print_phase("untraced", &plain);
    print_phase("traced", &traced);
    for q in [0.5, 0.99] {
        let a = quantile_of(&plain.latencies(), q, US).unwrap_or(f64::NAN);
        let b = quantile_of(&traced.latencies(), q, US).unwrap_or(f64::NAN);
        println!(
            "tracing overhead and noise, p{}: traced {b:.1} us vs untraced {a:.1} us ({:+.1}%)",
            (q * 100.0) as u32,
            100.0 * (b - a) / a
        );
    }

    // Counters and series of the read target, since its set-up.
    let server = d.read_server(target)?;
    let stats = server.stats();
    let lookups = stats.cache.hits + stats.cache.misses;
    metrics.put(
        "serve.cache_hit_ratio",
        stats.cache.hits as f64 / lookups.max(1) as f64,
    );
    metrics.put(
        "serve.batch_size_mean",
        stats.batched_requests as f64 / stats.batches.max(1) as f64,
    );
    let text = metrics_text(addr)?;
    let series = |name: &str| stats::summary(&text, name).ok_or(format!("no {name} series"));
    metrics.put(
        "serve.batch_window_p50_us",
        series("dash_serve_batch_window_ns")?.p50 as f64 / 1e3,
    );
    let front = d.read_front(target);
    let cache = front.response_cache_stats();
    metrics.put(
        "net.response_cache_hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    metrics.put(
        "net.queue_wait_p99_us",
        series("dash_net_queue_wait_ns")?.p99 as f64 / 1e3,
    );
    metrics.put(
        "loadgen.late_p99_us",
        need(quantile_of(&traced.late, 0.99, US), "lateness")?,
    );
    metrics.put("loadgen.achieved_qps", traced.achieved_qps());
    metrics.values.sort_by_key(|(metric, _)| {
        spec::PER_LAYER
            .iter()
            .position(|m| m.name == metric.name)
            .unwrap_or(usize::MAX)
    });

    // max_qps_at_slo: bisection over the fixed ladder, on the workloads
    // with a search limit. Printed only; see the module docs.
    if let Some(slo) = workload.slo() {
        let (max_qps, ladder_tally) = rate_search(inputs, &d, nproc, 0.35 * total, slo)?;
        tally.attempted += ladder_tally.attempted;
        tally.failed += ladder_tally.failed;
        let mut printed = Metrics { values: Vec::new() };
        printed.put("max_qps_at_slo", max_qps);
        print_only(&printed);
    }

    // The gate holds for the traced run too.
    let mut oracle = Oracle::new(inputs);
    let mut samples = plain.samples;
    samples.extend(traced.samples);
    // The layer ladder's forwarded writes came before the phases.
    let checked = oracle.check_samples(&samples, layers::WRITES, &concurrent)?;
    let probed = oracle.check_final(&d, applied)?;
    println!("correctness: {checked} sampled bodies and {probed} probes after {applied} writes match a fresh engine");

    println!("self time per layer (differences of medians):");
    for (label, diff, unit) in layers::self_times(&values) {
        println!("  {label} = {diff:.3} {unit}");
    }
    print_net_counters(&d);
    let path =
        PathBuf::from("perfbench/out").join(format!("trace-{}-{}.tsv", workload.name(), args.seed));
    match trace.write_tsv(&path, origin) {
        Ok(()) => println!("spans: {} written to {}", trace.spans.len(), path.display()),
        Err(e) => println!("spans: {} kept, not written ({e})", trace.spans.len()),
    }
    drop(d);
    Ok(report(&metrics, &tally))
}

/// Runs a search phase, with the write driver alongside when the
/// workload mixes writes in. Writes continue the stream at `applied`.
fn mixed_phase(
    inputs: &Inputs,
    d: &Deployment,
    phase: ReadPhase,
    applied: usize,
) -> (ReadResult, Option<WriteResult>) {
    let addr = d.read_addr(inputs.workload.read_target());
    if !inputs.workload.writes_with_reads() {
        return (run_reads(addr, inputs, phase), None);
    }
    let end = Instant::now() + Duration::from_secs_f64(phase.seconds);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            run_writes(
                d.net.addr(),
                &d.replica,
                inputs,
                applied,
                Some(inputs.workload.write_rate()),
                phase.stream + 1000,
                end,
            )
        });
        let reads = run_reads(addr, inputs, phase);
        let writes = writer.join().expect("write driver panicked");
        (reads, Some(writes))
    })
}

/// Runs short slices at the nominal rate until the cache hit ratio of
/// two consecutive slices agrees; none of it is measured.
fn warm_up(inputs: &Inputs, d: &Deployment) -> Result<()> {
    let workload = inputs.workload;
    let server = d.read_server(workload.read_target())?;
    let mut previous: Option<f64> = None;
    for slice in 0..WARM_SLICES {
        let before = server.stats().cache.misses;
        let r = run_reads(
            d.read_addr(workload.read_target()),
            inputs,
            ReadPhase {
                rate: workload.search_rate(),
                seconds: WARM_SLICE,
                conns: SEARCH_CONNS,
                stream: 100 + slice as u64,
                sample: false,
            },
        );
        let misses = server.stats().cache.misses - before;
        let ratio = 1.0 - misses as f64 / r.attempted.max(1) as f64;
        if previous.is_some_and(|p| (p - ratio).abs() < WARM_STEADY) {
            println!(
                "warm-up: hit ratio steady at {ratio:.3} after {} slices",
                slice + 1
            );
            return Ok(());
        }
        previous = Some(ratio);
    }
    println!("warm-up: hit ratio not steady after {WARM_SLICES} slices; measuring anyway");
    Ok(())
}

/// Whether a rung qualifies: search p99 within the limit, nothing
/// failed, the achieved rate matching the offered one, and no backlog
/// growing from the first half of the rung to the second. The p99 is
/// the second-highest of the rung's quarters' p99s, so one host stall of
/// a few milliseconds (they occur every few seconds on a shared VM)
/// cannot fail a rung on its own, while a backlog, which fills the last
/// quarters, does.
fn qualifies(r: &ReadResult, slo: Duration) -> (bool, String) {
    let mut quarters = r.window_quantiles(RUNG_WINDOWS, 0.99);
    quarters.sort_by(f64::total_cmp);
    let p99 = quarters
        .iter()
        .rev()
        .nth(1)
        .copied()
        .unwrap_or(f64::INFINITY);
    let scheduled = r.attempted as f64 / r.seconds;
    let achieved = r.achieved_qps();
    let (first, second) = r.start_delay_halves();
    let slo_s = slo.as_secs_f64();
    let ok = p99 <= slo_s
        && r.failed == 0
        && achieved >= 0.95 * scheduled
        && second <= first + slo_s / 4.0;
    let detail = format!(
        "p99 {:.0} us, achieved {achieved:.0}/{scheduled:.0} per s, start delay {:.0} -> {:.0} us, failed {}",
        p99 / US,
        first / US,
        second / US,
        r.failed
    );
    (ok, detail)
}

/// Bisection over the workload's fixed rate ladder for the highest rung
/// that qualifies under `slo`. Searches only: the workloads with a limit
/// do not write alongside their searches. Returns the rate and the
/// operations run.
fn rate_search(
    inputs: &Inputs,
    d: &Deployment,
    conns: usize,
    seconds: f64,
    slo: Duration,
) -> Result<(f64, Tally)> {
    let workload = inputs.workload;
    let addr = d.read_addr(workload.read_target());
    let ladder = workload.ladder();
    // Bisection takes log2(rungs + 1) probes, plus a repeat per miss.
    let probes = (ladder.len() as f64 + 1.0).log2().ceil().max(1.0);
    let rung_secs = seconds / (probes + 3.0);
    let mut tally = Tally::default();
    let mut stream = 200;
    let mut attempt = |rate: f64, label: &str| -> bool {
        stream += 1;
        let r = run_reads(
            addr,
            inputs,
            ReadPhase {
                rate,
                seconds: rung_secs,
                conns,
                stream,
                sample: false,
            },
        );
        tally.reads(&r);
        let (ok, detail) = qualifies(&r, slo);
        println!(
            "ladder {label} at {rate:.0}/s for {rung_secs:.2} s: {} ({detail})",
            if ok { "meets" } else { "misses" }
        );
        std::thread::sleep(Duration::from_millis(100));
        ok
    };
    // Invariant: rung `lo` qualifies (or is the virtual rung below the
    // ladder), rung `hi` does not (or is the virtual rung above it). A
    // miss counts only if a second attempt misses too, so one stray
    // stall below the knee cannot send the bisection down.
    let (mut lo, mut hi) = (-1i64, ladder.len() as i64);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = ladder[mid as usize];
        if attempt(rate, &format!("rung {mid}")) || attempt(rate, &format!("rung {mid} again")) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    if hi == ladder.len() as i64 {
        println!("ladder: the highest rung qualifies, so the figure is a lower bound");
    }
    let rate = if lo >= 0 {
        ladder[lo as usize]
    } else {
        println!("ladder: even the lowest rung misses the limit");
        ladder[0] / LADDER_STEP
    };
    Ok((rate, tally))
}

fn fail_on_write_errors(w: &WriteResult) -> Result<()> {
    match w.errors.first() {
        Some(e) => Err(format!("write stream broke: {e}")),
        None => Ok(()),
    }
}

fn print_only(printed: &Metrics) {
    for (metric, value) in &printed.values {
        println!(
            "{} = {value} {} (printed only)  [{}]",
            metric.name, metric.unit, metric.about
        );
    }
}

fn need(value: Option<f64>, what: &str) -> Result<f64> {
    value.ok_or_else(|| format!("no samples for {what}"))
}

fn metrics_text(addr: SocketAddr) -> Result<String> {
    NetClient::connect(addr)
        .and_then(|mut c| c.metrics_text())
        .map_err(|e| format!("GET /metrics: {e}"))
}

fn print_phase(label: &str, r: &ReadResult) {
    let lat = r.latencies();
    let q = |p| quantile_of(&lat, p, US).unwrap_or(f64::NAN);
    println!(
        "{label}: offered {:.0}/s for {:.1} s, {} done, {} failed, achieved {:.0}/s, \
         p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, late p99 {:.1} us",
        r.offered,
        r.seconds,
        r.done.len(),
        r.failed,
        r.achieved_qps(),
        q(0.5),
        q(0.9),
        q(0.99),
        quantile_of(&r.late, 0.99, US).unwrap_or(f64::NAN)
    );
}

/// Client-observed round trip against the server's own stage
/// histograms over the same phase: the unaccounted rest is the client,
/// the kernel and the event loop's polling.
fn cross_check(r: &ReadResult, before: &str, after: &str) {
    let client: f64 = r
        .done
        .iter()
        .map(|d| d.round_trip.as_nanos() as f64)
        .sum::<f64>()
        / r.done.len().max(1) as f64;
    let Some(requests) = stats::summary(after, "dash_net_request_ns").map(|s| s.count) else {
        println!("cross-check: no dash_net_request_ns series");
        return;
    };
    let served = requests - stats::summary(before, "dash_net_request_ns").map_or(0, |s| s.count);
    let per_request = |name: &str| {
        let after_sum = stats::summary(after, name).map_or(0, |s| s.sum);
        let before_sum = stats::summary(before, name).map_or(0, |s| s.sum);
        after_sum.saturating_sub(before_sum) as f64 / served.max(1) as f64
    };
    let mut line = String::new();
    let mut stages = 0.0;
    for stage in ["head", "body", "handle", "write"] {
        let v = per_request(&format!("dash_net_{stage}_ns"));
        stages += v;
        let _ = write!(line, "{stage} {:.1} + ", v / 1e3);
    }
    let queue = per_request("dash_net_queue_wait_ns");
    let server = mean_between(before, after, "dash_net_request_ns").unwrap_or(f64::NAN);
    println!(
        "cross-check (means over {served} requests, us): client round trip {:.1} = {}unaccounted {:.1} \
         (server request_ns {:.1}; queue wait {:.1} inside handle)",
        client / 1e3,
        line,
        (client - stages) / 1e3,
        server / 1e3,
        queue / 1e3
    );
}

fn print_net_counters(d: &Deployment) {
    for (label, front) in [("primary", &d.net), ("replica", &d.replica_net)] {
        let c = front.counters();
        println!(
            "net.shed_total ({label}) = {} count (shed {} + overflow {})",
            c.shed_jobs + c.overflows,
            c.shed_jobs,
            c.overflows
        );
    }
}

/// Prints every metric by name and unit and renders the final JSON line.
fn report(metrics: &Metrics, tally: &Tally) -> String {
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (at, (metric, value)) in metrics.values.iter().enumerate() {
        let (name, unit) = (metric.name, metric.unit);
        println!("{name} = {value} {unit}  [{}]", metric.about);
        let sep = if at == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}
