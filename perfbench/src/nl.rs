//! The natural-language workloads: the 90 suite queries (`eval-cold`,
//! `eval-restart`) and the 24 artwork queries at paper scale
//! (`paper-scale`), served through `Caesura::submit` and graded with
//! `caesura_eval`.

use crate::json::Json;
use crate::spans::{LlmTotals, Span, TimedLlm, Tracer};
use crate::stats::{
    contended, mean, ms, peak_rss_mb, quiet, quiet_passes, ratio, timing_details, LatencySummary,
    StealMeter, RSS_PASSES,
};
use crate::{metric, Args, Metric, Outcome, Setups, OP_TIMEOUT};
use caesura_core::{
    Caesura, CaesuraConfig, CoreError, PerceptionCalls, Phase, PlanCacheCalls, QueryRun,
};
use caesura_data::{
    generate_artwork, generate_fieldwork, generate_rotowire, ArtworkConfig, DataLake,
    FieldworkConfig, RotowireConfig,
};
use caesura_eval::{
    benchmark_queries, classify, fieldwork_queries, fieldwork_reference_for, grade,
    known_identifiers, reference_for, BenchmarkQuery, Dataset, ErrorCategory, EvaluationConfig,
    Expectation, Reference,
};
use caesura_llm::{LlmClient, ModelProfile, SimulatedLlm};
use caesura_store::PersistConfig;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every workload plans with the simulated GPT-4, which answers in-process,
/// so the benchmark measures CAESURA's own cost rather than model round trips.
const MODEL: ModelProfile = ModelProfile::Gpt4;

/// The model's own seed, which decides where it injects errors. It is part of
/// the system under test and stays fixed (the evaluation's default), so that
/// `--seed` varies the lakes only: with it, which queries the model gets
/// wrong, and so how much recovery and perception work a pass does, changed
/// from seed to seed by more than any regression bound.
const MODEL_SEED: u64 = 42;

/// The queries that miss their graded expectation, each with the category
/// its miss is graded as and why it misses. The simulated model decides its
/// mistakes from the query text and its own seed, which is fixed, so these
/// are the same queries on every lake seed; fieldwork queries never miss
/// (their mistakes are scripted). They count in `failed_share` like any
/// miss, but do not fail the run. Any other miss, or one of these graded as
/// another category, fails it.
const EXPECTED_MISSES: &[(&str, Option<ErrorCategory>, &str)] = &[
    (
        "A19",
        Some(ErrorCategory::WrongArguments),
        "the model maps step 3 with wrong arguments",
    ),
    (
        "R03",
        Some(ErrorCategory::ImpossibleActions),
        "the model plans on a column that does not exist",
    ),
    (
        "R06",
        Some(ErrorCategory::WrongArguments),
        "the model maps step 3 with wrong arguments",
    ),
    (
        "R08",
        Some(ErrorCategory::WrongArguments),
        "the model maps step 2 with wrong arguments",
    ),
    (
        "R10",
        Some(ErrorCategory::WrongArguments),
        "the simulated planner filters players on 'name' = 'Heat' instead of 'team'",
    ),
    (
        "R21",
        Some(ErrorCategory::WrongArguments),
        "the model maps step 3 with wrong arguments",
    ),
    (
        "R22",
        Some(ErrorCategory::ImpossibleActions),
        "the model plans on a column that does not exist",
    ),
    (
        "R23",
        Some(ErrorCategory::ImpossibleActions),
        "the model plans on a column that does not exist",
    ),
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All 90 suite queries on fresh sessions each pass, no store, 1 client.
    Cold,
    /// All 90 suite queries on fresh sessions each pass over an on-disk
    /// store warmed by an untimed pass, 2 clients.
    Restart,
    /// The 24 artwork queries on the paper-scale lake, one long-lived
    /// session after an untimed warm-up pass, 1 client.
    PaperScale,
}

impl Kind {
    fn clients(self) -> usize {
        match self {
            Kind::Restart => 2,
            Kind::Cold | Kind::PaperScale => 1,
        }
    }

    /// Whether the host's stolen CPU time is read around every query, so
    /// that each query's latency is taken from its own quiet runs (see
    /// [`Measured::timed_passes`]). The paper-scale queries take 20-110 ms, long
    /// enough for the host's 10 ms accounting; the ~1 ms suite queries are
    /// judged by the pass.
    fn per_query_steal(self) -> bool {
        self == Kind::PaperScale
    }

    /// Whether per-query counts repeat exactly between two runs of the same
    /// seed (with two clients, which racing query warms a shared cache first
    /// is up to the scheduler).
    fn deterministic(self) -> bool {
        self.clients() == 1
    }
}

struct SuiteQuery {
    query: BenchmarkQuery,
    lake: usize,
    reference: Reference,
}

struct Suite {
    lakes: Vec<DataLake>,
    known: Vec<BTreeSet<String>>,
    queries: Vec<SuiteQuery>,
}

/// Generate the lakes of a workload; returns the suite and the time spent
/// generating (reference answers are computed outside that time).
fn generate(kind: Kind, seed: u64) -> (Suite, Duration) {
    let started = Instant::now();
    if kind == Kind::PaperScale {
        let artwork = generate_artwork(&ArtworkConfig {
            seed,
            ..ArtworkConfig::paper_scale()
        });
        let generated = started.elapsed();
        let rotowire = generate_rotowire(&RotowireConfig {
            seed,
            ..RotowireConfig::small()
        });
        let queries = benchmark_queries()
            .into_iter()
            .filter(|q| q.dataset == Dataset::Artwork)
            .map(|query| SuiteQuery {
                reference: reference_for(&query, &artwork, &rotowire),
                lake: 0,
                query,
            })
            .collect();
        let suite = Suite {
            known: vec![known_identifiers(artwork.lake.catalog())],
            lakes: vec![artwork.lake],
            queries,
        };
        return (suite, generated);
    }
    let artwork = generate_artwork(&ArtworkConfig {
        seed,
        ..ArtworkConfig::default()
    });
    let rotowire = generate_rotowire(&RotowireConfig {
        seed,
        ..RotowireConfig::default()
    });
    let eval = EvaluationConfig {
        fieldwork: FieldworkConfig {
            seed,
            ..FieldworkConfig::default()
        },
        ..EvaluationConfig::default()
    };
    let clean = generate_fieldwork(&eval.fieldwork);
    let corrupted = generate_fieldwork(&eval.corrupted_fieldwork());
    let generated = started.elapsed();

    let mut queries = Vec::new();
    for query in benchmark_queries() {
        let lake = match query.dataset {
            Dataset::Artwork => 0,
            _ => 1,
        };
        queries.push(SuiteQuery {
            reference: reference_for(&query, &artwork, &rotowire),
            lake,
            query,
        });
    }
    for query in fieldwork_queries() {
        queries.push(SuiteQuery {
            reference: fieldwork_reference_for(&query, &clean),
            lake: if query.corrupted { 3 } else { 2 },
            query,
        });
    }
    let suite = Suite {
        known: vec![
            known_identifiers(artwork.lake.catalog()),
            known_identifiers(rotowire.lake.catalog()),
            known_identifiers(clean.lake.catalog()),
            // Both fieldwork lakes share one schema.
            known_identifiers(clean.lake.catalog()),
        ],
        lakes: vec![artwork.lake, rotowire.lake, clean.lake, corrupted.lake],
        queries,
    };
    (suite, generated)
}

/// Open one session per lake, each over its own store directory when a
/// store root is given (a store directory is locked by one session).
fn open_sessions(
    suite: &Suite,
    llm: &Arc<dyn LlmClient>,
    store: Option<&Path>,
    opens: &mut Vec<Duration>,
) -> Result<Vec<Caesura>, String> {
    let mut sessions = Vec::new();
    for (i, lake) in suite.lakes.iter().enumerate() {
        let config = CaesuraConfig {
            persist: store.map(|root| PersistConfig::new(root.join(format!("lake{i}")))),
            ..CaesuraConfig::default()
        };
        let started = Instant::now();
        let session = Caesura::try_with_config(lake.clone(), llm.clone(), config)
            .map_err(|e| format!("session over lake {i}: {e}"))?;
        if store.is_some() {
            opens.push(started.elapsed());
        }
        sessions.push(session);
    }
    Ok(sessions)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verdict {
    Met,
    Missed(Option<ErrorCategory>),
    Hung,
    Internal,
}

/// What the benchmark keeps of one operation.
struct Op {
    query: usize,
    latency_ms: f64,
    verdict: Verdict,
    llm_calls: usize,
    prompt_tokens: usize,
    perception: PerceptionCalls,
    plan: PlanCacheCalls,
    phases_ms: [f64; 5],
    queue_wait_ms: f64,
    recovered: bool,
    /// The CPU share the host stole while the query ran, where it is read
    /// per query (see [`Kind::per_query_steal`]).
    steal: f64,
}

impl Op {
    fn counts(&self) -> (usize, usize, usize) {
        (self.llm_calls, self.prompt_tokens, self.perception.calls)
    }

    fn unattributed_ms(&self) -> f64 {
        self.latency_ms - self.queue_wait_ms - self.phases_ms.iter().sum::<f64>()
    }
}

fn grade_run(q: &SuiteQuery, known: &BTreeSet<String>, run: Option<&QueryRun>) -> Verdict {
    let Some(run) = run else {
        return Verdict::Hung;
    };
    if matches!(run.output, Err(CoreError::Internal { .. })) {
        return Verdict::Internal;
    }
    let graded = grade(&q.query, run, &q.reference, known);
    let category = classify(&q.query, run, graded, known);
    let met = match q.query.expectation {
        Expectation::Correct => graded.physical,
        Expectation::ExecutionError(needle) => run
            .output
            .as_ref()
            .err()
            .is_some_and(|e| e.to_string().contains(needle)),
        Expectation::Category(expected) => category == Some(expected),
    };
    if met {
        Verdict::Met
    } else {
        Verdict::Missed(category)
    }
}

/// The correctness check of one operation: it must finish, must not fail
/// internally, and must meet its graded expectation unless it is one of the
/// [`EXPECTED_MISSES`], missed the expected way.
fn passes(q: &SuiteQuery, verdict: Verdict) -> bool {
    match verdict {
        Verdict::Met => true,
        Verdict::Missed(category) => EXPECTED_MISSES
            .iter()
            .any(|(id, expected, _)| *id == q.query.id && *expected == category),
        Verdict::Hung | Verdict::Internal => false,
    }
}

fn phase_ms(run: &QueryRun) -> [f64; 5] {
    let timings = run.trace.timings();
    Phase::ALL.map(|phase| ms(timings.of(phase)))
}

/// Run every suite query once through `submit` / `wait_timeout` with
/// `clients` closed-loop clients, reading the host's stolen CPU time around
/// each query if `query_steal`. Returns the operations in suite order and
/// the pass's wall clock (first submission to last answer).
fn run_pass(
    sessions: &[Caesura],
    suite: &Suite,
    clients: usize,
    tracer: Option<&Tracer>,
    op_base: u64,
    query_steal: bool,
) -> (Vec<Op>, Duration) {
    struct Answered {
        index: usize,
        span: Option<u64>,
        start: Instant,
        end: Instant,
        steal: f64,
        run: Option<QueryRun>,
    }
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut answered: Vec<Answered> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(q) = suite.queries.get(index) else {
                            break;
                        };
                        let op_id = op_base + index as u64;
                        let span = tracer.map(|t| t.begin_query(op_id, q.query.text));
                        let meter = query_steal.then(StealMeter::start);
                        let start = Instant::now();
                        let handle = sessions[q.lake].submit(q.query.text);
                        let run = handle.wait_timeout(OP_TIMEOUT);
                        let end = Instant::now();
                        let steal = meter.map_or(0.0, |m| m.share());
                        if let Some(tracer) = tracer {
                            tracer.end_query(op_id);
                        }
                        if run.is_none() {
                            handle.cancel();
                            // The session may never drain; stop feeding it.
                            next.store(suite.queries.len(), Ordering::Relaxed);
                            std::mem::forget(handle);
                        }
                        out.push(Answered {
                            index,
                            span,
                            start,
                            end,
                            steal,
                            run,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    // Grading runs after the clock stops: it is the benchmark's work.
    answered.sort_by_key(|a| a.index);
    let ops = answered
        .into_iter()
        .map(|a| {
            let q = &suite.queries[a.index];
            let verdict = grade_run(q, &suite.known[q.lake], a.run.as_ref());
            let mut op = op_record(
                a.index,
                a.end.duration_since(a.start),
                verdict,
                a.run.as_ref(),
            );
            op.steal = a.steal;
            if let (Some(tracer), Some(span)) = (tracer, a.span) {
                tracer.record(query_span(
                    span,
                    op_base + a.index as u64,
                    a.start,
                    a.end,
                    &op,
                ));
            }
            op
        })
        .collect();
    (ops, wall)
}

fn op_record(query: usize, latency: Duration, verdict: Verdict, run: Option<&QueryRun>) -> Op {
    let mut op = Op {
        query,
        latency_ms: ms(latency),
        verdict,
        llm_calls: 0,
        prompt_tokens: 0,
        perception: PerceptionCalls::default(),
        plan: PlanCacheCalls::default(),
        phases_ms: [0.0; 5],
        queue_wait_ms: 0.0,
        recovered: false,
        steal: 0.0,
    };
    if let Some(run) = run {
        op.llm_calls = run.trace.llm_calls();
        op.prompt_tokens = run.trace.prompt_tokens();
        op.perception = run.trace.perception_calls();
        op.plan = run.trace.plan_cache_calls();
        op.phases_ms = phase_ms(run);
        op.queue_wait_ms = ms(run.trace.timings().queue_wait());
        op.recovered = run.trace.recovered();
    }
    op
}

/// The query span: submit → answer on the benchmark's clock, with the five
/// phase durations, queue wait, unattributed time and trace counters.
fn query_span(id: u64, op_id: u64, start: Instant, end: Instant, op: &Op) -> Span {
    let [discovery, planning, mapping, execution, recovery] = op.phases_ms;
    Span {
        id,
        name: "query",
        start,
        end,
        query: Some(op_id),
        parent: None,
        attrs: vec![
            ("suite_index", op.query as f64),
            ("discovery_ms", discovery),
            ("planning_ms", planning),
            ("mapping_ms", mapping),
            ("execution_ms", execution),
            ("recovery_ms", recovery),
            ("queue_wait_ms", op.queue_wait_ms),
            ("unattributed_ms", op.unattributed_ms()),
            ("total_ms", op.latency_ms),
            ("llm_calls", op.llm_calls as f64),
            ("prompt_tokens", op.prompt_tokens as f64),
            ("perception_dispatched", op.perception.calls as f64),
            ("perception_cache_hits", op.perception.cache_hits as f64),
            ("perception_disk_hits", op.perception.disk_hits as f64),
            ("plan_cache_hits", op.plan.hits as f64),
            ("plan_disk_hits", op.plan.disk_hits as f64),
            ("met", f64::from(u8::from(op.verdict == Verdict::Met))),
        ],
    }
}

/// A workload's live state after set-up.
struct Prepared {
    suite: Arc<Suite>,
    llm: Arc<dyn LlmClient>,
    /// The long-lived sessions (`paper-scale` only).
    sessions: Option<Vec<Caesura>>,
    store: Option<PathBuf>,
    /// Verdicts of the warm-up pass, in suite order (empty without one).
    warm: Vec<Verdict>,
}

fn store_root(seed: u64) -> PathBuf {
    crate::out_dir().join(format!("store-{}-{seed}", std::process::id()))
}

fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Set up a workload: generate its lakes, open its sessions, and run the
/// untimed warm-up pass where the workload has one. Everything timed here is
/// `setup_s`.
fn prepare(
    kind: Kind,
    seed: u64,
    llm: Arc<dyn LlmClient>,
    problems: &mut Vec<String>,
) -> Result<(Prepared, Duration), String> {
    let (suite, generated) = generate(kind, seed);
    let started = Instant::now();
    // Store opens during set-up count in `setup_s`, not in `store.open_ms`.
    let mut opens = Vec::new();
    let mut prepared = Prepared {
        suite: Arc::new(suite),
        llm,
        sessions: None,
        store: None,
        warm: Vec::new(),
    };
    match kind {
        Kind::Cold => {
            // Each pass opens fresh sessions; set-up pays for one set.
            drop(open_sessions(
                &prepared.suite,
                &prepared.llm,
                None,
                &mut opens,
            )?);
        }
        Kind::Restart => {
            let root = store_root(seed);
            let _ = std::fs::remove_dir_all(&root);
            std::fs::create_dir_all(&root).map_err(|e| format!("store dir: {e}"))?;
            let sessions = open_sessions(&prepared.suite, &prepared.llm, Some(&root), &mut opens)?;
            let (ops, _) = run_pass(&sessions, &prepared.suite, kind.clients(), None, 0, false);
            prepared.warm = ops.iter().map(|op| op.verdict).collect();
            drop(sessions);
            prepared.store = Some(root);
        }
        Kind::PaperScale => {
            let sessions = open_sessions(&prepared.suite, &prepared.llm, None, &mut opens)?;
            let (ops, _) = run_pass(&sessions, &prepared.suite, kind.clients(), None, 0, false);
            prepared.warm = ops.iter().map(|op| op.verdict).collect();
            prepared.sessions = Some(sessions);
        }
    }
    let took = generated + started.elapsed();
    for (q, verdict) in prepared.suite.queries.iter().zip(&prepared.warm) {
        if !passes(q, *verdict) {
            problems.push(format!("warm-up pass: {} {:?}", q.query.id, verdict));
        }
    }
    Ok((prepared, took))
}

/// The same set-up served by another model client: the lakes and the store
/// are shared, and long-lived sessions are opened and warmed up anew so both
/// start from the same cache state.
fn variant(
    kind: Kind,
    base: &Prepared,
    llm: Arc<dyn LlmClient>,
    problems: &mut Vec<String>,
) -> Result<Prepared, String> {
    let mut prepared = Prepared {
        suite: base.suite.clone(),
        llm,
        sessions: None,
        store: base.store.clone(),
        warm: base.warm.clone(),
    };
    if kind == Kind::PaperScale {
        let sessions = open_sessions(&prepared.suite, &prepared.llm, None, &mut Vec::new())?;
        let (ops, _) = run_pass(&sessions, &prepared.suite, kind.clients(), None, 0, false);
        for (q, op) in prepared.suite.queries.iter().zip(&ops) {
            if !passes(q, op.verdict) {
                problems.push(format!(
                    "traced warm-up pass: {} {:?}",
                    q.query.id, op.verdict
                ));
            }
        }
        prepared.sessions = Some(sessions);
    }
    Ok(prepared)
}

/// The operations of one measured phase, pass by pass.
#[derive(Default)]
struct Measured {
    passes: Vec<Vec<Op>>,
    walls: Vec<Duration>,
    /// The CPU share the host stole during each pass.
    steal: Vec<f64>,
    /// Peak RSS after [`RSS_PASSES`] passes.
    peak_rss_mb: Option<f64>,
    /// Whether timings are taken per query (see [`Kind::per_query_steal`]).
    per_query: bool,
    store_opens: Vec<Duration>,
}

impl Measured {
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.passes.iter().flatten()
    }

    fn count(&self) -> usize {
        self.passes.iter().map(Vec::len).sum()
    }

    /// The passes latency and throughput are taken from: those run on a
    /// quiet host (see [`quiet_passes`]). Counts and checks cover every pass.
    fn timed(&self) -> Vec<usize> {
        let per_pass = self.passes.first().map_or(1, Vec::len);
        quiet_passes(&self.steal, per_pass)
    }

    /// The operations latency and throughput are taken from, as passes. By
    /// pass, the [`Measured::timed`] passes. By query, pass `k` holds the
    /// `k`-th quiet run of every suite query: one during which the host stole
    /// at most [`crate::stats::QUIET_STEAL`] of its CPU time, or else one of
    /// the quietest quarter of its runs. Each such pass keeps the suite's mix.
    fn timed_passes(&self) -> Vec<Vec<&Op>> {
        if !self.per_query {
            return self
                .timed()
                .into_iter()
                .map(|i| self.passes[i].iter().collect())
                .collect();
        }
        let queries = self.passes.first().map_or(0, Vec::len);
        let runs: Vec<Vec<&Op>> = (0..queries)
            .map(|query| {
                // Passes hold their operations in suite order.
                let runs: Vec<&Op> = self
                    .passes
                    .iter()
                    .filter_map(|pass| pass.get(query).filter(|op| op.query == query))
                    .collect();
                let steal: Vec<f64> = runs.iter().map(|op| op.steal).collect();
                quiet(&steal, runs.len().div_ceil(4))
                    .into_iter()
                    .map(|i| runs[i])
                    .collect()
            })
            .collect();
        let k = runs.iter().map(Vec::len).min().unwrap_or(0);
        (0..k)
            .map(|i| runs.iter().map(|r| r[i]).collect())
            .collect()
    }

    /// Whether a timed pass, or a timed run of a query, was contended.
    fn contended(&self) -> bool {
        if !self.per_query {
            return contended(&self.steal, &self.timed());
        }
        self.timed_passes()
            .iter()
            .flatten()
            .any(|op| op.steal > crate::stats::QUIET_STEAL)
    }

    fn latency(&self) -> LatencySummary {
        let passes: Vec<Vec<f64>> = self
            .timed_passes()
            .iter()
            .map(|ops| ops.iter().map(|op| op.latency_ms).collect())
            .collect();
        LatencySummary::of_passes(&passes)
    }

    fn throughput_qps(&self) -> f64 {
        if self.per_query {
            // One client: a pass lasts the sum of its queries' latencies.
            let passes = self.timed_passes();
            let ms: f64 = passes.iter().flatten().map(|op| op.latency_ms).sum();
            return ratio(passes.iter().map(Vec::len).sum::<usize>() as f64, ms / 1e3);
        }
        let timed = self.timed();
        let ops: usize = timed.iter().map(|&i| self.passes[i].len()).sum();
        let wall: Duration = timed.iter().map(|&i| self.walls[i]).sum();
        ratio(ops as f64, wall.as_secs_f64())
    }

    /// Operations latency and throughput are taken from.
    fn timed_count(&self) -> usize {
        self.timed_passes().iter().map(Vec::len).sum()
    }
}

/// Run one pass of `prepared` into `measured`, on fresh sessions unless the
/// workload keeps long-lived ones. Returns whether an operation hung.
fn one_pass(
    kind: Kind,
    prepared: &Prepared,
    tracer: Option<&Tracer>,
    measured: &mut Measured,
) -> Result<bool, String> {
    let fresh = match prepared.sessions {
        Some(_) => None,
        None => Some(open_sessions(
            &prepared.suite,
            &prepared.llm,
            prepared.store.as_deref(),
            &mut measured.store_opens,
        )?),
    };
    let sessions = prepared
        .sessions
        .as_ref()
        .or(fresh.as_ref())
        .expect("long-lived or fresh sessions");
    let op_base = (measured.passes.len() * prepared.suite.queries.len()) as u64;
    let steal = StealMeter::start();
    measured.per_query = kind.per_query_steal();
    let (ops, wall) = run_pass(
        sessions,
        &prepared.suite,
        kind.clients(),
        tracer,
        op_base,
        measured.per_query,
    );
    measured.steal.push(steal.share());
    measured.walls.push(wall);
    let hung = ops.iter().any(|op| op.verdict == Verdict::Hung);
    measured.passes.push(ops);
    if measured.passes.len() == RSS_PASSES {
        measured.peak_rss_mb = Some(peak_rss_mb());
    }
    if hung {
        // Leave the stuck sessions alone: dropping them would wait for the
        // hung query.
        std::mem::forget(fresh);
    }
    Ok(hung)
}

/// Run whole passes until `seconds` have elapsed and the quiet passes are
/// enough for the 95th percentile, or the time cap is reached.
fn measure(kind: Kind, prepared: &Prepared, seconds: f64) -> Result<Measured, String> {
    let started = Instant::now();
    let mut measured = Measured::default();
    loop {
        if one_pass(kind, prepared, None, &mut measured)? {
            break;
        }
        let elapsed = started.elapsed().as_secs_f64();
        let large_enough =
            crate::stats::sized_for_tail(measured.timed_count(), &measured.latency());
        let quiet = !measured.contended();
        if (elapsed >= seconds && large_enough && quiet)
            || elapsed >= crate::stats::time_cap(seconds)
        {
            break;
        }
    }
    Ok(measured)
}

/// Alternate untraced and traced passes until `seconds` have elapsed, so
/// both phases see the same host conditions and the difference between them
/// is the tracing overhead.
fn measure_alternating(
    kind: Kind,
    untraced: &Prepared,
    traced: &Prepared,
    tracer: &Tracer,
    seconds: f64,
) -> Result<(Measured, Measured), String> {
    let started = Instant::now();
    let (mut plain, mut timed) = (Measured::default(), Measured::default());
    loop {
        // Flip the order every round, so neither phase always runs first.
        let mut order = [false, true];
        if plain.passes.len() % 2 == 1 {
            order.reverse();
        }
        for with_trace in order {
            let hung = if with_trace {
                one_pass(kind, traced, Some(tracer), &mut timed)?
            } else {
                one_pass(kind, untraced, None, &mut plain)?
            };
            if hung {
                return Ok((plain, timed));
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= seconds {
            break;
        }
    }
    Ok((plain, timed))
}

/// Check a measured phase: every operation passes its check and grades the
/// same as in every other pass (and the warm-up pass), so no cache tier ever
/// changes an answer. Returns the number of failed operations.
fn check(
    phase: &str,
    prepared: &Prepared,
    measured: &Measured,
    problems: &mut Vec<String>,
) -> usize {
    let mut failed = 0;
    let first = &measured.passes[0];
    for (pass, ops) in measured.passes.iter().enumerate() {
        for op in ops {
            let q = &prepared.suite.queries[op.query];
            let baseline = prepared.warm.get(op.query).copied().or_else(|| {
                // A pass cut short by a hang lacks its later queries.
                first
                    .iter()
                    .find(|o| o.query == op.query)
                    .map(|o| o.verdict)
            });
            let mut ok = passes(q, op.verdict);
            if !ok {
                problems.push(format!(
                    "{phase} pass {pass}: {} {:?}",
                    q.query.id, op.verdict
                ));
            } else if baseline.is_some_and(|b| b != op.verdict) {
                ok = false;
                problems.push(format!(
                    "{phase} pass {pass}: {} graded {:?}, earlier {:?}",
                    q.query.id, op.verdict, baseline
                ));
            }
            if !ok {
                failed += 1;
            }
        }
    }
    failed
}

fn per_op(total: usize, ops: usize) -> f64 {
    ratio(total as f64, ops as f64)
}

/// The end-to-end metrics of an untraced phase.
fn end_to_end(measured: &Measured, setups: &Setups) -> Vec<Metric> {
    let summary = measured.latency();
    vec![
        metric("latency_p50_ms", summary.p50_ms, "ms"),
        metric("latency_p95_ms", summary.p95_ms, "ms"),
        metric("throughput_qps", measured.throughput_qps(), "1/s"),
        setups.metric(),
        metric(
            "peak_rss_mb",
            measured.peak_rss_mb.unwrap_or_else(peak_rss_mb),
            "MiB",
        ),
    ]
}

/// Per-query counts that repeat exactly for a fixed seed, plus the share of
/// operations that missed their graded expectation.
fn counts(measured: &Measured) -> Vec<(String, Json)> {
    let n = measured.count();
    let sum = |f: &dyn Fn(&Op) -> usize| measured.ops().map(f).sum::<usize>();
    let summary = measured.latency();
    let mut details = vec![
        ("operations".into(), Json::from(n)),
        ("passes".into(), Json::from(measured.passes.len())),
        ("samples_beyond_p95".into(), Json::from(summary.beyond_p95)),
        (
            "failed_share".into(),
            Json::Num(per_op(
                sum(&|op| usize::from(op.verdict != Verdict::Met)),
                n,
            )),
        ),
        (
            "llm_calls_per_query".into(),
            Json::Num(per_op(sum(&|op| op.llm_calls), n)),
        ),
        (
            "prompt_tokens_per_query".into(),
            Json::Num(per_op(sum(&|op| op.prompt_tokens), n)),
        ),
        (
            "perception_calls_per_query".into(),
            Json::Num(per_op(sum(&|op| op.perception.calls), n)),
        ),
    ];
    details.extend(timing_details(&measured.steal, &measured.timed()));
    details.push((
        "timed_operations".into(),
        Json::from(measured.timed_count()),
    ));
    details
}

/// The per-layer metrics of a traced phase.
fn per_layer(
    measured: &Measured,
    llm: LlmTotals,
    untraced_mean_ms: f64,
    store_opens: &[Duration],
    store_bytes: u64,
) -> Vec<Metric> {
    let ops: Vec<&Op> = measured.ops().collect();
    let n = ops.len() as f64;
    let avg = |f: &dyn Fn(&Op) -> f64| ops.iter().map(|op| f(op)).sum::<f64>() / n;
    let sum = |f: &dyn Fn(&Op) -> usize| ops.iter().map(|op| f(op)).sum::<usize>() as f64;
    let per_op = |f: &dyn Fn(&Op) -> usize| sum(f) / n;
    let phase = |i: usize| avg(&|op| op.phases_ms[i]);
    let model_ms = llm.model_ns as f64 / 1e6 / n;
    let overhead_ms = avg(&|op| op.latency_ms) - untraced_mean_ms;
    let perception_hits = sum(&|op| op.perception.cache_hits);
    let perception_probes = perception_hits + sum(&|op| op.perception.cache_misses);
    // A query trace counts a plan found on disk as a hit (and a disk hit);
    // with a store attached every memory miss probes the disk tier.
    let disk_hits = sum(&|op| op.perception.disk_hits + op.plan.disk_hits);
    let disk_probes = sum(&|op| op.perception.disk_hits + op.perception.disk_misses)
        + if store_opens.is_empty() {
            0.0
        } else {
            sum(&|op| op.plan.disk_hits + op.plan.misses)
        };
    vec![
        metric("core.discovery_ms", phase(0), "ms"),
        metric("core.planning_ms", phase(1), "ms"),
        metric("core.mapping_ms", phase(2), "ms"),
        metric("core.execution_ms", phase(3), "ms"),
        metric("core.recovery_ms", phase(4), "ms"),
        metric(
            "core.unattributed_ms",
            avg(&|op| op.unattributed_ms()),
            "ms",
        ),
        metric("core.queue_wait_ms", avg(&|op| op.queue_wait_ms), "ms"),
        metric(
            "core.recovered_share",
            per_op(&|op| usize::from(op.recovered)),
            "share",
        ),
        metric("llm.model_ms", model_ms, "ms"),
        metric(
            "llm.harness_ms",
            phase(1) + phase(2) + phase(4) - model_ms,
            "ms",
        ),
        metric("llm.calls", per_op(&|op| op.llm_calls), "count/op"),
        metric("llm.batches", llm.dispatches as f64 / n, "count/op"),
        metric(
            "llm.prompt_tokens",
            per_op(&|op| op.prompt_tokens),
            "tokens/op",
        ),
        metric(
            "llm.plan_cache_hit_rate",
            ratio(
                sum(&|op| op.plan.hits),
                sum(&|op| op.plan.hits + op.plan.misses),
            ),
            "share",
        ),
        metric(
            "llm.plan_cache_insertions",
            per_op(&|op| op.plan.insertions),
            "count/op",
        ),
        metric(
            "llm.plan_cache_invalidations",
            per_op(&|op| op.plan.invalidations),
            "count/op",
        ),
        metric(
            "modal.perception_rows",
            per_op(&|op| op.perception.rows),
            "rows/op",
        ),
        metric(
            "modal.perception_dispatched",
            per_op(&|op| op.perception.calls),
            "count/op",
        ),
        metric(
            "modal.perception_batches",
            per_op(&|op| op.perception.batches),
            "count/op",
        ),
        metric(
            "modal.dedup_saved",
            per_op(&|op| op.perception.saved_calls),
            "count/op",
        ),
        metric(
            "modal.cache_hit_rate",
            ratio(perception_hits, perception_probes),
            "share",
        ),
        metric(
            "modal.cache_evictions",
            per_op(&|op| op.perception.cache_evictions),
            "count/op",
        ),
        metric(
            "store.open_ms",
            mean(&store_opens.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
            "ms",
        ),
        metric("store.bytes_on_disk", store_bytes as f64, "bytes"),
        metric(
            "store.disk_hit_rate",
            ratio(disk_hits, disk_probes),
            "share",
        ),
        metric(
            "store.disk_writes",
            per_op(&|op| op.perception.disk_writes + op.plan.disk_writes),
            "count/op",
        ),
        metric("trace.overhead_ms", overhead_ms, "ms"),
        metric(
            "trace.overhead_share",
            ratio(overhead_ms, untraced_mean_ms),
            "share",
        ),
        metric(
            "eval.failed_share",
            per_op(&|op| usize::from(op.verdict != Verdict::Met)),
            "share",
        ),
    ]
}

/// Compare the traced phase's counts with the untraced phase's: the timing
/// wrapper must not change what is planned, cached or dispatched.
fn compare_counts(kind: Kind, untraced: &Measured, traced: &Measured, problems: &mut Vec<String>) {
    for (pass, (a, b)) in untraced.passes.iter().zip(&traced.passes).enumerate() {
        if kind.deterministic() {
            for (x, y) in a.iter().zip(b) {
                if x.counts() != y.counts() {
                    problems.push(format!(
                        "pass {pass} query {}: untraced counts {:?}, traced {:?}",
                        x.query,
                        x.counts(),
                        y.counts()
                    ));
                }
            }
        } else {
            let plan = |ops: &[Op]| -> (usize, usize) {
                ops.iter().fold((0, 0), |(c, t), op| {
                    (c + op.llm_calls, t + op.prompt_tokens)
                })
            };
            if plan(a) != plan(b) {
                problems.push(format!(
                    "pass {pass}: untraced LLM calls/tokens {:?}, traced {:?}",
                    plan(a),
                    plan(b)
                ));
            }
        }
    }
}

fn model() -> Arc<SimulatedLlm> {
    Arc::new(SimulatedLlm::new(MODEL, MODEL_SEED))
}

fn config_details(kind: Kind, prepared: &Prepared) -> Vec<(String, Json)> {
    // Read the effective serving and cache settings off a session opened
    // with the workload's configuration.
    let probe = Caesura::try_with_config(
        prepared.suite.lakes[0].clone(),
        prepared.llm.clone(),
        CaesuraConfig::default(),
    )
    .ok();
    let mut details = vec![
        ("loop".to_string(), Json::str("closed")),
        ("clients".to_string(), Json::from(kind.clients())),
        ("model".to_string(), Json::str(MODEL.name())),
        (
            "queries_per_pass".to_string(),
            Json::from(prepared.suite.queries.len()),
        ),
        ("store".to_string(), Json::Bool(prepared.store.is_some())),
        (
            "expected_misses".to_string(),
            Json::obj(
                EXPECTED_MISSES
                    .iter()
                    .map(|(id, _, why)| (*id, Json::str(*why))),
            ),
        ),
    ];
    if let Some(session) = probe {
        let stats = session.serving_stats();
        details.push(("session_workers".into(), Json::from(stats.workers)));
        details.push(("queue_depth".into(), Json::from(stats.queue_depth)));
        details.push((
            "perception_cache_capacity".into(),
            Json::from(session.perception_cache().map_or(0, |c| c.capacity())),
        ));
        details.push((
            "plan_cache_capacity".into(),
            Json::from(session.plan_cache().map_or(0, |c| c.capacity())),
        ));
    }
    details
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let set_up = crate::set_up(|| prepare(kind, args.seed, model(), &mut outcome.problems));
    let (prepared, setups) = match set_up {
        Ok(done) => done,
        Err(e) => {
            outcome.problems.push(e);
            return outcome;
        }
    };
    outcome.details = config_details(kind, &prepared);
    outcome.details.extend(setups.details());

    if !args.trace {
        match measure(kind, &prepared, args.seconds) {
            Ok(untraced) => {
                outcome.attempted = untraced.count();
                outcome.failed = check("untraced", &prepared, &untraced, &mut outcome.problems);
                outcome.details.extend(counts(&untraced));
                outcome.contended = untraced.contended();
                outcome.end_to_end = end_to_end(&untraced, &setups);
            }
            Err(e) => outcome.problems.push(e),
        }
        cleanup(&prepared);
        return outcome;
    }

    // The traced run: the same lakes served through the timing wrapper,
    // alternating pass by pass with the untraced set-up.
    let tracer = Tracer::new();
    let timed = Arc::new(TimedLlm::new(model(), tracer.clone()));
    let measured = variant(kind, &prepared, timed.clone(), &mut outcome.problems).and_then(
        |traced_prepared| {
            let before = timed.totals();
            tracer.set_active(true);
            let measured =
                measure_alternating(kind, &prepared, &traced_prepared, &tracer, args.seconds);
            tracer.set_active(false);
            measured.map(|(untraced, traced)| (before, untraced, traced))
        },
    );
    let store_bytes = prepared.store.as_deref().map_or(0, dir_bytes);
    cleanup(&prepared);
    let (before, untraced, traced) = match measured {
        Ok(m) => m,
        Err(e) => {
            outcome.problems.push(e);
            return outcome;
        }
    };
    outcome.attempted = untraced.count();
    outcome.failed = check("untraced", &prepared, &untraced, &mut outcome.problems);
    outcome.details.extend(counts(&untraced));
    let untraced_mean = mean(&untraced.ops().map(|op| op.latency_ms).collect::<Vec<_>>());
    let after = timed.totals();
    let totals = LlmTotals {
        dispatches: after.dispatches - before.dispatches,
        conversations: after.conversations - before.conversations,
        model_ns: after.model_ns - before.model_ns,
    };
    outcome.attempted += traced.count();
    outcome.failed += check("traced", &prepared, &traced, &mut outcome.problems);
    compare_counts(kind, &untraced, &traced, &mut outcome.problems);
    let trace_llm_calls: usize = traced.ops().map(|op| op.llm_calls).sum();
    if totals.conversations != trace_llm_calls {
        outcome.problems.push(format!(
            "timing wrapper saw {} conversations, query traces count {}",
            totals.conversations, trace_llm_calls
        ));
    }
    for op in traced.ops() {
        if op.unattributed_ms() < 0.0 {
            outcome.problems.push(format!(
                "query {}: phases and queue wait exceed its total",
                op.query
            ));
        }
    }
    outcome.per_layer = per_layer(
        &traced,
        totals,
        untraced_mean,
        &traced.store_opens,
        store_bytes,
    );
    crate::save_spans(&tracer, args, &mut outcome);
    outcome
}

fn cleanup(prepared: &Prepared) {
    if let Some(root) = &prepared.store {
        let _ = std::fs::remove_dir_all(root);
    }
}
