//! Order statistics and process measurements shared by every workload.

use crate::json::Json;
use std::time::Duration;

/// Midpoint median (the mean of the two middle samples for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `numerator / denominator`, or `0.0` when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Host CPU time as `(stolen, total)` jiffies from `/proc/stat`. Time stolen
/// by the hypervisor for other guests shows up in every latency measured
/// here.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The share of host CPU time stolen by the hypervisor since it was started
/// (`0.0` where `/proc/stat` is unavailable or no time was counted).
#[derive(Clone, Copy)]
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_jiffies())
    }

    pub fn share(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) => {
                ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
            }
            _ => 0.0,
        }
    }
}

/// The stolen share above which a pass or a set-up counts as taken under
/// contention. On a quiet 2-vCPU host the steal stays below 1%; at 15-35%,
/// latencies of the same work were 1.5-2x longer.
pub const QUIET_STEAL: f64 = 0.05;

/// Which samples the timing metrics are taken from, given the stolen share
/// of each, in sample order: every sample at or below [`QUIET_STEAL`], or, if
/// that is fewer than `least`, the `least` quietest. The choice depends on
/// the host only, never on the time a sample took.
pub fn quiet(steal: &[f64], least: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quiet = steal.iter().filter(|&&s| s <= QUIET_STEAL).count();
    let mut kept = order[..quiet.max(least).min(steal.len())].to_vec();
    kept.sort_unstable();
    kept
}

/// The quiet passes of a run (see [`quiet`]): at least a quarter of them,
/// and at least enough to hold the 200 operations a tail needs.
pub fn quiet_passes(steal: &[f64], ops_per_pass: usize) -> Vec<usize> {
    let least = steal
        .len()
        .div_ceil(4)
        .max(MIN_OPERATIONS.div_ceil(ops_per_pass.max(1)));
    quiet(steal, least)
}

/// The median of the quiet samples, at least a quarter of them.
pub fn quiet_median(samples: &[f64], steal: &[f64]) -> f64 {
    let kept = quiet(steal, steal.len().div_ceil(4));
    median(&kept.iter().map(|&i| samples[i]).collect::<Vec<_>>())
}

/// Whether a timed sample was taken under contention: then the run's
/// timings are not comparable with those of a quiet host.
pub fn contended(steal: &[f64], timed: &[usize]) -> bool {
    timed.iter().any(|&i| steal[i] > QUIET_STEAL)
}

/// How a run chose its timed passes, for the report: how many there are,
/// and the quartiles `[min, q1, median, q3, max]` of every pass's stolen
/// share.
pub fn timing_details(steal: &[f64], timed: &[usize]) -> Vec<(String, Json)> {
    let mut sorted = steal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let i = (sorted.len().saturating_sub(1) as f64 * q).round() as usize;
        Json::Num(sorted.get(i).copied().unwrap_or(0.0))
    };
    vec![
        ("timed_passes".into(), Json::from(timed.len())),
        (
            "pass_steal_quartiles".into(),
            Json::Arr(vec![at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)]),
        ),
    ]
}

/// Peak RSS is read after this many measured passes, so that it reflects a
/// fixed amount of work, not how many passes a run managed: the benchmark's
/// own per-operation records grow with every pass.
pub const RSS_PASSES: usize = 5;

/// How far past `--seconds` a run may go to gather enough quiet passes or a
/// large enough tail: a quarter more, so a whole set of runs keeps to a
/// fixed time budget.
pub fn time_cap(seconds: f64) -> f64 {
    seconds * 1.25
}

/// Whether a run should set its workload up once more before measuring:
/// at least three times, and cheap set-ups until they add up to a second
/// (at most 200), so the reported median rests on enough samples.
pub fn another_setup(samples_s: &[f64]) -> bool {
    samples_s.len() < 3 || (samples_s.iter().sum::<f64>() < 1.0 && samples_s.len() < 200)
}

/// The fewest operations a run reports its latency on.
const MIN_OPERATIONS: usize = 200;

/// Whether a run has measured enough for its tail: at least
/// [`MIN_OPERATIONS`] operations and at least ten samples beyond the
/// reported 95th percentile.
pub fn sized_for_tail(operations: usize, latency: &LatencySummary) -> bool {
    operations >= MIN_OPERATIONS && latency.beyond_p95 >= 10
}

/// Latency as every workload reports it: per pass, the median and the
/// nearest-rank 95th percentile; across passes, the median of each.
///
/// A pass is a fixed mix of operations whose latencies form clusters (the 24
/// paper-scale queries split 12/12 into metadata-only and perception
/// queries). A percentile over all samples pooled falls on the edge of a
/// cluster and reads the most extreme sample of a whole run; the median over
/// passes does not.
pub struct LatencySummary {
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Samples of the whole run above `p95_ms`.
    pub beyond_p95: usize,
}

impl LatencySummary {
    pub fn of_passes(passes: &[Vec<f64>]) -> LatencySummary {
        let p50s: Vec<f64> = passes.iter().map(|p| median(p)).collect();
        let p95s: Vec<f64> = passes
            .iter()
            .map(|p| {
                let mut pass: Vec<Duration> =
                    p.iter().map(|l| Duration::from_secs_f64(l / 1e3)).collect();
                ms(caesura_eval::percentile(&mut pass, 0.95))
            })
            .collect();
        let p95_ms = median(&p95s);
        LatencySummary {
            p50_ms: median(&p50s),
            p95_ms,
            beyond_p95: passes.iter().flatten().filter(|&&l| l > p95_ms).count(),
        }
    }
}
