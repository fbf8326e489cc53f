//! Small statistics helpers: nearest-rank quantiles, the process's peak
//! resident memory, and summary series scraped from `GET /metrics`.

use std::time::Duration;

use dash_obs::expo::{parse_summaries, SummarySeries};

/// The `q`-quantile (0..=1) of `values` by nearest rank; sorts in place.
/// `None` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of `values` (nearest rank); `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Quantile of durations, in the given unit (seconds per unit).
pub fn quantile_of(durations: &[Duration], q: f64, unit: f64) -> Option<f64> {
    let mut values: Vec<f64> = durations.iter().map(|d| d.as_secs_f64() / unit).collect();
    quantile(&mut values, q)
}

pub const US: f64 = 1e-6;
pub const MS: f64 = 1e-3;

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Cumulative CPU time stolen by the hypervisor and total CPU time, in
/// ticks (`/proc/stat`), or `None` where `/proc` is unavailable. The
/// steal share over a run says whether the host was contended.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The summary series named `name` in a `/metrics` document.
pub fn summary(text: &str, name: &str) -> Option<SummarySeries> {
    parse_summaries(text).into_iter().find(|s| s.name == name)
}

/// Mean of a summary series between two scrapes, in nanoseconds.
pub fn mean_between(before: &str, after: &str, name: &str) -> Option<f64> {
    let after = summary(after, name)?;
    let (count0, sum0) = summary(before, name).map_or((0, 0), |s| (s.count, s.sum));
    let count = after.count.checked_sub(count0)?;
    (count > 0).then(|| (after.sum.saturating_sub(sum0)) as f64 / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    }
}
