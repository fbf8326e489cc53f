//! The open-loop load generator.
//!
//! Searches arrive as a seeded Poisson process split evenly across at
//! most `nproc` keep-alive connections, one generator thread each (the
//! calling thread drives connection 0). A request is timed from the
//! moment it was due whenever its connection was still busy with the
//! previous one at that moment, so a server stall is charged to every
//! request queued behind it (no coordinated omission). When the
//! connection was idle, the thread sleeps until the due time and the
//! request is timed from the actual send: the timer's oversleep is not
//! the server's latency and is reported on its own as lateness. The
//! oversleep is also taken out of the requests that queue behind a late
//! one, so on a loaded host the generator's own scheduling delays do not
//! leak into the latency through the busy path.
//!
//! Writes are driven by one more thread on one connection to the
//! primary, on their own Poisson schedule (or closed loop); after each
//! ack the same thread polls the replica's epoch every 200 µs until it
//! reaches the acked epoch, which gives the replication lag. A write
//! delayed by that polling is timed from its send, like one delayed by
//! the timer: only a late ack of the previous write is the server's.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use dash_core::SearchRequest;
use dash_net::{NetClient, Replica};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::inputs::Inputs;

/// Keep one served body in this many for the correctness gate.
pub const SAMPLE_EVERY: u64 = 8;
/// Replica epoch poll period: short against a lag of tens of ms.
const LAG_POLL: Duration = Duration::from_micros(200);
/// A replica that does not reach an acked epoch within this fails the write.
const LAG_TIMEOUT: Duration = Duration::from_secs(10);
/// Lead time between starting the threads and the first due time.
const LEAD: Duration = Duration::from_millis(5);

/// One search phase to drive.
#[derive(Debug, Clone, Copy)]
pub struct ReadPhase {
    pub rate: f64,
    pub seconds: f64,
    pub conns: usize,
    /// RNG stream id: arrivals and requests of a phase derive from it.
    pub stream: u64,
    /// Keep served bodies for the correctness gate.
    pub sample: bool,
}

/// A served body kept for the correctness gate.
pub struct Sample {
    pub request: SearchRequest,
    pub body: String,
    pub sent: Instant,
    pub done: Instant,
}

/// One completed search.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// When it was due, relative to the phase start.
    pub due: Duration,
    /// Latency charged: from the due time if the connection was busy,
    /// from the send otherwise, less the generator's own oversleep.
    pub latency: Duration,
    /// The bare round trip, send to response.
    pub round_trip: Duration,
    /// Send time minus due time (oversleep, or wait behind a busy
    /// connection).
    pub start_delay: Duration,
}

/// What one search phase observed.
pub struct ReadResult {
    pub offered: f64,
    pub seconds: f64,
    pub done: Vec<Done>,
    pub attempted: u64,
    pub failed: u64,
    /// Timer oversleep of sends on idle connections.
    pub late: Vec<Duration>,
    /// When the phase started: due times count from here.
    pub start: Instant,
    /// Phase start to the last response.
    pub elapsed: Duration,
    pub samples: Vec<Sample>,
}

impl ReadResult {
    /// Completed searches per second of the phase.
    pub fn achieved_qps(&self) -> f64 {
        self.done.len() as f64 / self.elapsed.as_secs_f64().max(self.seconds)
    }

    pub fn latencies(&self) -> Vec<Duration> {
        self.done.iter().map(|d| d.latency).collect()
    }

    /// The `q`-quantile latency (seconds) of each of `windows` equal
    /// slices of the phase, by due time.
    pub fn window_quantiles(&self, windows: usize, q: f64) -> Vec<f64> {
        let width = self.seconds / windows as f64;
        let mut per: Vec<Vec<Duration>> = vec![Vec::new(); windows];
        for d in &self.done {
            let at = ((d.due.as_secs_f64() / width) as usize).min(windows - 1);
            per[at].push(d.latency);
        }
        per.iter()
            .filter_map(|w| crate::stats::quantile_of(w, q, 1.0))
            .collect()
    }

    /// Median start delay of the first and of the second half of the
    /// phase: a backlog shows as growth from one to the other.
    pub fn start_delay_halves(&self) -> (f64, f64) {
        let half = Duration::from_secs_f64(self.seconds / 2.0);
        let mut first: Vec<f64> = Vec::new();
        let mut second: Vec<f64> = Vec::new();
        for d in &self.done {
            let v = d.start_delay.as_secs_f64();
            if d.due < half {
                first.push(v);
            } else {
                second.push(v);
            }
        }
        (
            crate::stats::median(&mut first).unwrap_or(0.0),
            crate::stats::median(&mut second).unwrap_or(0.0),
        )
    }
}

/// Drives one search phase against `addr`.
pub fn run_reads(addr: SocketAddr, inputs: &Inputs, phase: ReadPhase) -> ReadResult {
    let conns = phase.conns.max(1);
    let start = Instant::now() + LEAD;
    let end = start + Duration::from_secs_f64(phase.seconds);
    let per_conn = phase.rate / conns as f64;
    let drive = |conn: usize| -> ConnResult {
        let mut rng = inputs.rng(phase.stream.wrapping_mul(131) + conn as u64 + 1);
        drive_connection(addr, inputs, &mut rng, per_conn, start, end, phase.sample)
    };
    let results: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..conns).map(|c| scope.spawn(move || drive(c))).collect();
        let mut results = vec![drive(0)];
        for handle in handles {
            results.push(handle.join().expect("generator thread panicked"));
        }
        results
    });
    let mut merged = ReadResult {
        offered: phase.rate,
        seconds: phase.seconds,
        done: Vec::new(),
        attempted: 0,
        failed: 0,
        late: Vec::new(),
        start,
        elapsed: Duration::ZERO,
        samples: Vec::new(),
    };
    for r in results {
        merged.done.extend(r.done);
        merged.attempted += r.attempted;
        merged.failed += r.failed;
        merged.late.extend(r.late);
        merged.samples.extend(r.samples);
        merged.elapsed = merged.elapsed.max(r.last.saturating_duration_since(start));
    }
    merged
}

struct ConnResult {
    done: Vec<Done>,
    attempted: u64,
    failed: u64,
    late: Vec<Duration>,
    samples: Vec<Sample>,
    last: Instant,
}

fn drive_connection(
    addr: SocketAddr,
    inputs: &Inputs,
    rng: &mut StdRng,
    rate: f64,
    start: Instant,
    end: Instant,
    sample: bool,
) -> ConnResult {
    let mut out = ConnResult {
        done: Vec::new(),
        attempted: 0,
        failed: 0,
        late: Vec::new(),
        samples: Vec::new(),
        last: start,
    };
    let mut client = NetClient::connect(addr).ok();
    let mut due = start;
    // The connection's timeline with the generator's own delays taken
    // out: `shift` is the oversleep of the last request sent on an idle
    // connection, carried by every request queued behind it, and
    // `free_at` is when the previous request would have completed had
    // it been sent on time.
    let mut shift = Duration::ZERO;
    let mut free_at = start;
    loop {
        due += exp_gap(rng, rate);
        if due >= end {
            break;
        }
        let request = inputs.draw(rng);
        let keep = sample && out.attempted.is_multiple_of(SAMPLE_EVERY);
        out.attempted += 1;
        // Busy: the previous request would still have been in flight.
        let busy = free_at > due;
        if !busy {
            sleep_until(due);
        }
        let sent = Instant::now();
        let answer = match client.as_mut() {
            Some(client) => client.search_json(&request),
            None => Err(std::io::Error::other("not connected")),
        };
        let done = Instant::now();
        out.last = done;
        if !busy {
            shift = sent.saturating_duration_since(due);
        }
        free_at = done - shift;
        match answer {
            Ok(body) => {
                if !busy {
                    out.late.push(shift);
                }
                out.done.push(Done {
                    due: due.saturating_duration_since(start),
                    latency: free_at.saturating_duration_since(due),
                    round_trip: done - sent,
                    start_delay: sent.saturating_duration_since(due),
                });
                if keep {
                    out.samples.push(Sample {
                        request,
                        body,
                        sent,
                        done,
                    });
                }
            }
            Err(_) => {
                out.failed += 1;
                if client.is_none() {
                    client = NetClient::connect(addr).ok();
                }
            }
        }
    }
    out
}

/// One write as the driver saw it.
#[derive(Debug, Clone, Copy)]
pub struct WriteDone {
    pub sent: Instant,
    /// Ack latency, charged from the due time if the previous write's
    /// ack came after it, from the send otherwise.
    pub latency: Duration,
    /// When the replica was first seen at the acked epoch.
    pub visible: Instant,
    pub lag: Duration,
    /// Counted in the metrics (false for the pair-completing tail).
    pub measured: bool,
}

/// What one write phase observed.
pub struct WriteResult {
    pub done: Vec<WriteDone>,
    pub attempted: u64,
    pub failed: u64,
    /// Writes sent, in stream order (the database is the fixture with
    /// exactly these applied, if none failed).
    pub applied: usize,
    pub errors: Vec<String>,
}

/// Drives writes to the primary at `primary` until `end`: on a Poisson
/// schedule at `rate`, or closed loop if `rate` is `None`. Stops on a
/// completed delete/re-insert pair, so the database ends as it started.
pub fn run_writes(
    primary: SocketAddr,
    replica: &Replica,
    inputs: &Inputs,
    first: usize,
    rate: Option<f64>,
    stream: u64,
    end: Instant,
) -> WriteResult {
    let mut rng = inputs.rng(stream);
    let mut out = WriteResult {
        done: Vec::new(),
        attempted: 0,
        failed: 0,
        applied: first,
        errors: Vec::new(),
    };
    let mut client = match NetClient::connect(primary) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("write connection: {e}"));
            return out;
        }
    };
    let mut due = Instant::now() + LEAD;
    // As for searches: `free_at` is when the previous write would have
    // been acked had the driver sent it on time, and `shift` the
    // driver's own delay carried along. Polling the replica is the
    // driver's work, so a write it delays is charged from its send.
    let mut shift = Duration::ZERO;
    let mut free_at = Instant::now();
    let mut last_epoch = 0u64;
    for (index, change) in inputs.writes.iter().enumerate().skip(first) {
        match rate {
            Some(rate) => due += exp_gap(&mut rng, rate),
            None => due = Instant::now(),
        }
        let measured = due < end;
        // Past the end, only finish the open pair, unmeasured.
        if !measured && index % 2 == 0 {
            break;
        }
        out.attempted += u64::from(measured);
        let busy = free_at > due;
        if !busy {
            sleep_until(due);
        }
        let sent = Instant::now();
        let answer = client.apply(vec![change.clone()]);
        let acked = Instant::now();
        out.applied = index + 1;
        if !busy {
            shift = sent.saturating_duration_since(due);
        }
        free_at = acked - shift;
        match answer {
            Ok(ack) => {
                if ack.epoch <= last_epoch {
                    out.errors.push(format!(
                        "write {index}: ack epoch {} after {last_epoch}",
                        ack.epoch
                    ));
                }
                last_epoch = ack.epoch;
                while replica.epoch() < ack.epoch {
                    if acked.elapsed() > LAG_TIMEOUT {
                        out.errors
                            .push(format!("replica never reached epoch {}", ack.epoch));
                        return out;
                    }
                    std::thread::sleep(LAG_POLL);
                }
                let visible = Instant::now();
                out.done.push(WriteDone {
                    sent,
                    latency: free_at.saturating_duration_since(due),
                    visible,
                    lag: visible - acked,
                    measured,
                });
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("write {index}: {e}"));
                // The write's fate is unknown: the database state can no
                // longer be replayed, so stop writing.
                return out;
            }
        }
    }
    out
}

/// Exponential inter-arrival gap at `rate` per second.
fn exp_gap(rng: &mut StdRng, rate: f64) -> Duration {
    let u: f64 = 1.0 - rng.random_range(0.0..1.0);
    Duration::from_secs_f64(-u.ln() / rate.max(1e-9))
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}
