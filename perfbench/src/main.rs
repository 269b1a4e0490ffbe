//! The repository benchmark: four closed-loop workloads over the CAESURA
//! pipeline, its cache tiers and its relational engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval-cold|eval-restart|paper-scale|sql-1m> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every operation is graded; a failed check makes the run exit with code 1.
//! With `--trace 0` the last line of standard output is one JSON object with
//! the end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run, and the spans are written to `perfbench/out/`. Layers are
//! measured from outside only, by timing calls into public functions and
//! reading the counters those functions return. `perfbench/WORKLOADS.md`
//! says why each workload exists and which layer metric should move which
//! end-to-end metric.

mod json;
mod nl;
mod spans;
mod sql;
mod stats;

use json::Json;
use std::path::PathBuf;
use std::time::Duration;

/// A metric as reported: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every per-layer metric with its unit, in report order. A workload reports
/// zero for a layer it does not reach, or cannot time from outside.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.discovery_ms", "ms"),
    ("core.planning_ms", "ms"),
    ("core.mapping_ms", "ms"),
    ("core.execution_ms", "ms"),
    ("core.recovery_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.queue_wait_ms", "ms"),
    ("core.recovered_share", "share"),
    ("llm.model_ms", "ms"),
    ("llm.harness_ms", "ms"),
    ("llm.calls", "count/op"),
    ("llm.batches", "count/op"),
    ("llm.prompt_tokens", "tokens/op"),
    ("llm.plan_cache_hit_rate", "share"),
    ("llm.plan_cache_insertions", "count/op"),
    ("llm.plan_cache_invalidations", "count/op"),
    ("modal.perception_rows", "rows/op"),
    ("modal.perception_dispatched", "count/op"),
    ("modal.perception_batches", "count/op"),
    ("modal.dedup_saved", "count/op"),
    ("modal.cache_hit_rate", "share"),
    ("modal.cache_evictions", "count/op"),
    ("store.open_ms", "ms"),
    ("store.bytes_on_disk", "bytes"),
    ("store.disk_hit_rate", "share"),
    ("store.disk_writes", "count/op"),
    ("engine.join_ms", "ms"),
    ("engine.aggregate_ms", "ms"),
    ("engine.filter_ms", "ms"),
    ("engine.sort_ms", "ms"),
    ("engine.join_vs_seq", "x"),
    ("engine.aggregate_vs_seq", "x"),
    ("engine.filter_vs_seq", "x"),
    ("engine.sort_vs_seq", "x"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("eval.failed_share", "share"),
];

/// Put a workload's per-layer metrics in report order, with zero for the
/// layers it does not report. A name outside [`PER_LAYER`] is a bug here.
fn complete_layers(reported: Vec<Metric>) -> Vec<Metric> {
    for m in &reported {
        let known = PER_LAYER
            .iter()
            .any(|(name, unit)| *name == m.name && *unit == m.unit);
        assert!(
            known,
            "per-layer metric {} ({}) is not in PER_LAYER",
            m.name, m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = reported
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations measured (warm-up passes excluded).
    pub attempted: usize,
    /// Measured operations that failed their correctness check.
    pub failed: usize,
    /// Every failed check, including those outside measured operations.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced run; empty with `--trace 1`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run; empty with `--trace 0`).
    pub per_layer: Vec<Metric>,
    /// Workload configuration and extra figures recorded with the result.
    pub details: Vec<(String, Json)>,
    /// Whether a timed pass ran while the host stole more than
    /// [`stats::QUIET_STEAL`] of its CPU time (see [`stats::quiet`]).
    pub contended: bool,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Remove every `CAESURA_*` variable before any default is read, so the
/// workloads run with the built-in defaults; returns what was set.
fn clear_caesura_env() -> Vec<(String, String)> {
    let mut set: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CAESURA_"))
        .collect();
    set.sort();
    for (key, _) in &set {
        std::env::remove_var(key);
    }
    set
}

/// The commit the benchmark was built from, or `unknown` outside a git
/// checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let overridden = clear_caesura_env();
    let commit = commit();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exec = caesura_engine::parallel::exec_config();

    let started = std::time::Instant::now();
    let steal = stats::StealMeter::start();
    let outcome = match args.workload.as_str() {
        "eval-cold" => nl::run(nl::Kind::Cold, &args),
        "eval-restart" => nl::run(nl::Kind::Restart, &args),
        "paper-scale" => nl::run(nl::Kind::PaperScale, &args),
        "sql-1m" => sql::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let elapsed = started.elapsed();
    let steal_share = steal.share();
    let mut outcome = outcome;
    if args.trace {
        outcome.per_layer = complete_layers(std::mem::take(&mut outcome.per_layer));
    }

    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    if outcome.contended {
        eprintln!(
            "perfbench: the host stole more than {:.0}% of CPU time during timed passes; \
             these timings are not comparable with those of a quiet host",
            stats::QUIET_STEAL * 100.0
        );
    }
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;

    let mut details = vec![
        ("workload".to_string(), Json::str(&args.workload)),
        ("seed".to_string(), Json::Int(args.seed as i64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("run_s".to_string(), Json::Num(elapsed.as_secs_f64())),
        (
            "host".to_string(),
            Json::obj([
                ("nproc", Json::from(nproc)),
                ("os", Json::str(std::env::consts::OS)),
                ("arch", Json::str(std::env::consts::ARCH)),
                ("cpu_steal_share", Json::Num(steal_share)),
                ("contended", Json::Bool(outcome.contended)),
            ]),
        ),
        ("commit".to_string(), Json::str(commit)),
        (
            "exec_config".to_string(),
            Json::obj([
                ("threads", Json::from(exec.threads)),
                ("morsel_rows", Json::from(exec.morsel_rows)),
            ]),
        ),
        (
            "caesura_env_cleared".to_string(),
            Json::obj(overridden.into_iter().map(|(k, v)| (k, Json::Str(v)))),
        ),
    ];
    details.extend(outcome.details);
    details.push((
        "problems".to_string(),
        Json::Arr(outcome.problems.iter().map(Json::str).collect()),
    ));
    details.push(("end_to_end".to_string(), metrics_json(&outcome.end_to_end)));
    details.push(("per_layer".to_string(), metrics_json(&outcome.per_layer)));
    println!("report {}", Json::Obj(details));

    let reported = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in reported {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(reported)),
    ]);
    println!("{result}");
    // Exit without running destructors: a session whose query hung would
    // otherwise block the process in its scheduler's shutdown.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    std::process::exit(if correct { 0 } else { 1 });
}

/// Every set-up of a run: how long each took and the CPU share the host
/// stole during it.
pub struct Setups {
    pub seconds: Vec<f64>,
    pub steal: Vec<f64>,
}

impl Setups {
    /// `setup_s`: the median over the set-ups taken on a quiet host.
    pub fn metric(&self) -> Metric {
        metric(
            "setup_s",
            stats::quiet_median(&self.seconds, &self.steal),
            "s",
        )
    }

    pub fn details(&self) -> Vec<(String, Json)> {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        vec![
            ("setup_s_samples".into(), nums(&self.seconds)),
            ("setup_steal_shares".into(), nums(&self.steal)),
        ]
    }
}

/// Set a workload up repeatedly (see [`stats::another_setup`]) and keep the
/// last set-up.
pub fn set_up<T>(
    mut once: impl FnMut() -> Result<(T, Duration), String>,
) -> Result<(T, Setups), String> {
    let mut setups = Setups {
        seconds: Vec::new(),
        steal: Vec::new(),
    };
    let mut last = None;
    while stats::another_setup(&setups.seconds) {
        // Release the previous set-up first: one copy of the data at a time.
        drop(last.take());
        let steal = stats::StealMeter::start();
        let (value, took) = once()?;
        setups.seconds.push(took.as_secs_f64());
        setups.steal.push(steal.share());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up ran"), setups))
}

/// Write a traced run's spans and record where they went.
pub fn save_spans(tracer: &spans::Tracer, args: &Args, outcome: &mut Outcome) {
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    outcome
        .details
        .push(("spans".into(), Json::str(path.to_string_lossy())));
    outcome
        .details
        .push(("span_count".into(), Json::from(tracer.span_count())));
    if let Err(e) = tracer.write(&path) {
        outcome.problems.push(format!("writing spans: {e}"));
    }
}

/// Where traced runs write their spans and the restart workload its store.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// A per-operation hang limit: far above any operation's latency here, far
/// below the run's time limit.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);
