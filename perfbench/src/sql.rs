//! The `sql-1m` workload: a fixed mix of statements of the shapes CAESURA's
//! SQL operators emit, run through `caesura_engine::sql::run_sql` on a seeded
//! 1M-row fact table (with a dictionary-encoded string column) and a small
//! dimension table. Every result is checked against a reference computed
//! from the generator's own rows, without the engine.

use crate::json::Json;
use crate::spans::{Span, Tracer};
use crate::stats::{
    contended, mean, median, ms, peak_rss_mb, quiet_passes, ratio, timing_details, LatencySummary,
    StealMeter, RSS_PASSES,
};
use crate::{metric, Args, Metric, Outcome};
use caesura_engine::{
    parallel, sql::run_sql, Catalog, Column, DataType, ExecConfig, Schema, Table, TableBuilder,
    Value,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: usize = 1_000_000;
const TEAMS: usize = 48;
const CONFERENCES: [&str; 4] = ["north", "south", "east", "west"];
const DAYS: i64 = 365;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Shape {
    Join,
    Aggregate,
    Filter,
    Sort,
}

impl Shape {
    const ALL: [Shape; 4] = [Shape::Join, Shape::Aggregate, Shape::Filter, Shape::Sort];

    fn name(self) -> &'static str {
        match self {
            Shape::Join => "join",
            Shape::Aggregate => "aggregate",
            Shape::Filter => "filter",
            Shape::Sort => "sort",
        }
    }

    fn span_name(self, sequential: bool) -> &'static str {
        match (self, sequential) {
            (Shape::Join, false) => "sql.join",
            (Shape::Aggregate, false) => "sql.aggregate",
            (Shape::Filter, false) => "sql.filter",
            (Shape::Sort, false) => "sql.sort",
            (Shape::Join, true) => "sql.join.sequential",
            (Shape::Aggregate, true) => "sql.aggregate.sequential",
            (Shape::Filter, true) => "sql.filter.sequential",
            (Shape::Sort, true) => "sql.sort.sequential",
        }
    }
}

/// The statement mix, run in this order every pass. Five statements of
/// distinct cost put the median and the 95th percentile inside one
/// statement's samples rather than on the boundary between two. The sort
/// orders the ~110k rows of its selection: at the full 1M rows it alone would
/// take most of a run's time.
const STATEMENTS: [(Shape, &str); 5] = [
    (
        Shape::Join,
        "SELECT * FROM events JOIN teams ON events.team = teams.team",
    ),
    (
        Shape::Aggregate,
        "SELECT events.team AS team, COUNT(*) AS n, SUM(events.points) AS total FROM events GROUP BY events.team",
    ),
    (
        Shape::Aggregate,
        "SELECT events.day AS day, AVG(events.rating) AS avg_rating FROM events GROUP BY events.day",
    ),
    (
        Shape::Filter,
        "SELECT id, points FROM events WHERE points > 180 AND team = 'team-07'",
    ),
    (
        Shape::Sort,
        "SELECT id, points FROM events WHERE day < 40 ORDER BY points DESC, id",
    ),
];

/// The generator's rows, kept as plain vectors for the reference answers.
struct Rows {
    team: Vec<usize>,
    points: Vec<i64>,
    rating_tenths: Vec<i64>,
    day: Vec<i64>,
}

fn team_name(t: usize) -> String {
    format!("team-{t:02}")
}

fn conference_of(t: usize) -> &'static str {
    CONFERENCES[t % CONFERENCES.len()]
}

/// SplitMix64: a small seeded generator, so the inputs depend on the seed
/// and nothing else.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn generate_rows(seed: u64) -> Rows {
    let mut rng = SplitMix(seed);
    let mut rows = Rows {
        team: Vec::with_capacity(ROWS),
        points: Vec::with_capacity(ROWS),
        rating_tenths: Vec::with_capacity(ROWS),
        day: Vec::with_capacity(ROWS),
    };
    for _ in 0..ROWS {
        rows.team.push(rng.below(TEAMS as u64) as usize);
        rows.points.push(rng.below(200) as i64);
        rows.rating_tenths.push(rng.below(1000) as i64);
        rows.day.push(rng.below(DAYS as u64) as i64);
    }
    rows
}

/// Ingest the rows through the engine's table builder (which
/// dictionary-encodes the low-cardinality `team` column).
fn build_catalog(rows: &Rows) -> Result<Catalog, String> {
    let names: Vec<Arc<str>> = (0..TEAMS).map(|t| Arc::from(team_name(t))).collect();
    let schema = Schema::from_pairs(&[
        ("id", DataType::Int),
        ("team", DataType::Str),
        ("points", DataType::Int),
        ("rating", DataType::Float),
        ("day", DataType::Int),
    ]);
    let mut events = TableBuilder::new("events", schema);
    for i in 0..ROWS {
        events
            .push_row(vec![
                Value::Int(i as i64),
                Value::Str(names[rows.team[i]].clone()),
                Value::Int(rows.points[i]),
                Value::Float(rows.rating_tenths[i] as f64 / 10.0),
                Value::Int(rows.day[i]),
            ])
            .map_err(|e| e.to_string())?;
    }
    let events = events.build();
    let dict = events
        .column_data("team")
        .map_err(|e| e.to_string())?
        .as_dict()
        .is_some();
    if !dict {
        return Err("events.team was not dictionary-encoded at ingest".into());
    }
    let schema = Schema::from_pairs(&[
        ("team", DataType::Str),
        ("conference", DataType::Str),
        ("city", DataType::Str),
    ]);
    let mut teams = TableBuilder::new("teams", schema);
    for t in 0..TEAMS {
        teams
            .push_row(vec![
                Value::str(team_name(t)),
                Value::str(conference_of(t)),
                Value::str(format!("city-{t:02}")),
            ])
            .map_err(|e| e.to_string())?;
    }
    let mut catalog = Catalog::new();
    catalog.register(events);
    catalog.register(teams.build());
    Ok(catalog)
}

/// An order-insensitive digest of a multiset of rows.
fn mix(parts: &[u64]) -> u64 {
    let mut h: u64 = 0x243f_6a88_85a3_08d3;
    for &p in parts {
        h = (h ^ p).wrapping_mul(0x0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

fn str_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a statement must return, computed from the generator's rows.
#[derive(Debug, PartialEq)]
enum Expected {
    /// Row count and the order-insensitive digest of the checked columns.
    Multiset(usize, u64),
    /// Per group: count and sum (team aggregate).
    Counts(BTreeMap<String, (i64, i64)>),
    /// Per group: average, compared to 1e-9 (day aggregate).
    Averages(BTreeMap<i64, f64>),
    /// Exact row order of the `id` column.
    Order(Vec<i64>),
}

fn references(rows: &Rows) -> Vec<Expected> {
    let team_conference: Vec<u64> = (0..TEAMS).map(|t| str_hash(conference_of(t))).collect();
    let join_digest = (0..ROWS).fold(0u64, |acc, i| {
        acc.wrapping_add(mix(&[
            i as u64,
            rows.points[i] as u64,
            team_conference[rows.team[i]],
        ]))
    });
    let mut counts = BTreeMap::new();
    let mut days: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for i in 0..ROWS {
        let entry = counts
            .entry(team_name(rows.team[i]))
            .or_insert((0i64, 0i64));
        entry.0 += 1;
        entry.1 += rows.points[i];
        let day = days.entry(rows.day[i]).or_insert((0, 0));
        day.0 += 1;
        day.1 += rows.rating_tenths[i];
    }
    let averages = days
        .into_iter()
        .map(|(d, (n, tenths))| (d, tenths as f64 / 10.0 / n as f64))
        .collect();
    let filtered: Vec<usize> = (0..ROWS)
        .filter(|&i| rows.points[i] > 180 && rows.team[i] == 7)
        .collect();
    let filter_digest = filtered.iter().fold(0u64, |acc, &i| {
        acc.wrapping_add(mix(&[i as u64, rows.points[i] as u64]))
    });
    let mut order: Vec<i64> = (0..ROWS as i64)
        .filter(|&i| rows.day[i as usize] < 40)
        .collect();
    order.sort_by(|&a, &b| {
        rows.points[b as usize]
            .cmp(&rows.points[a as usize])
            .then(a.cmp(&b))
    });
    vec![
        Expected::Multiset(ROWS, join_digest),
        Expected::Counts(counts),
        Expected::Averages(averages),
        Expected::Multiset(filtered.len(), filter_digest),
        Expected::Order(order),
    ]
}

fn column<'a>(table: &'a Table, name: &str) -> Result<&'a Arc<Column>, String> {
    let fields = table.schema().fields();
    let index = fields
        .iter()
        .position(|f| f.name == name)
        .or_else(|| fields.iter().position(|f| f.base_name() == name))
        .ok_or_else(|| format!("result has no column {name}"))?;
    table
        .column_at(index)
        .ok_or_else(|| format!("result column {name} missing"))
}

fn ints<'a>(table: &'a Table, name: &str) -> Result<&'a [i64], String> {
    column(table, name)?
        .as_int64()
        .map(|(values, _)| values)
        .ok_or_else(|| format!("column {name} is not an integer column"))
}

fn string_at(col: &Column, i: usize) -> Result<&str, String> {
    if let Some((codes, dict, _)) = col.as_dict() {
        return Ok(&dict[codes[i] as usize]);
    }
    if let Some((values, _)) = col.as_utf8() {
        return Ok(&values[i]);
    }
    Err("not a string column".into())
}

fn float_at(col: &Column, i: usize) -> Result<f64, String> {
    col.get(i)
        .as_float()
        .ok_or_else(|| "not a numeric column".to_string())
}

/// Compare one statement's result with its reference.
fn verify(result: &Table, expected: &Expected) -> Result<(), String> {
    let rows = result.num_rows();
    match expected {
        Expected::Multiset(count, digest) => {
            if rows != *count {
                return Err(format!("{rows} rows, expected {count}"));
            }
            let ids = ints(result, "id")?;
            let points = ints(result, "points")?;
            let conference = column(result, "conference").ok();
            // Hash each dictionary entry once rather than every row.
            let entry_hashes: Option<Vec<u64>> = conference
                .and_then(|col| col.as_dict())
                .map(|(_, dict, _)| dict.iter().map(|s| str_hash(s)).collect());
            let mut actual = 0u64;
            for i in 0..rows {
                let digest = match (conference, &entry_hashes) {
                    (Some(col), Some(hashes)) => {
                        let (codes, _, _) = col.as_dict().expect("checked above");
                        mix(&[ids[i] as u64, points[i] as u64, hashes[codes[i] as usize]])
                    }
                    (Some(col), None) => mix(&[
                        ids[i] as u64,
                        points[i] as u64,
                        str_hash(string_at(col, i)?),
                    ]),
                    (None, _) => mix(&[ids[i] as u64, points[i] as u64]),
                };
                actual = actual.wrapping_add(digest);
            }
            if actual != *digest {
                return Err("row digest differs from the reference".into());
            }
        }
        Expected::Counts(groups) => {
            let team = column(result, "team")?;
            let n = ints(result, "n")?;
            let total = ints(result, "total")?;
            let mut actual = BTreeMap::new();
            for i in 0..rows {
                actual.insert(string_at(team, i)?.to_string(), (n[i], total[i]));
            }
            if actual != *groups {
                return Err("group counts or sums differ from the reference".into());
            }
        }
        Expected::Averages(groups) => {
            if rows != groups.len() {
                return Err(format!("{rows} groups, expected {}", groups.len()));
            }
            let day = ints(result, "day")?;
            let avg = column(result, "avg_rating")?;
            for (i, d) in day.iter().enumerate() {
                let want = groups
                    .get(d)
                    .ok_or_else(|| format!("unexpected group day={d}"))?;
                if (float_at(avg, i)? - want).abs() > 1e-9 {
                    return Err(format!("average for day={d} differs"));
                }
            }
        }
        Expected::Order(order) => {
            if ints(result, "id")? != order.as_slice() {
                return Err("rows are not in the reference order".into());
            }
        }
    }
    Ok(())
}

/// Set-up: generate the rows and ingest them. Returns the catalog, the rows
/// (for the reference answers) and the time the two took.
fn prepare(seed: u64) -> Result<(Catalog, Rows, Duration), String> {
    let started = Instant::now();
    let rows = generate_rows(seed);
    let catalog = build_catalog(&rows)?;
    Ok((catalog, rows, started.elapsed()))
}

/// How a statement was run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Default configuration, no span: the end-to-end measurement.
    Untraced,
    /// Default configuration with a span.
    Traced,
    /// The catalog pinned to `ExecConfig::sequential()`, with a span.
    Sequential,
}

struct Op {
    pass: usize,
    shape: Shape,
    latency_ms: f64,
    mode: Mode,
}

#[derive(Default)]
struct Measured {
    ops: Vec<Op>,
    passes: usize,
    /// Per pass, the time inside untraced statements: the throughput's clock.
    walls: Vec<Duration>,
    /// The CPU share the host stole during each pass.
    steal: Vec<f64>,
    /// Peak RSS after [`RSS_PASSES`] passes.
    peak_rss_mb: Option<f64>,
    failed: usize,
}

impl Measured {
    fn of(&self, mode: Mode) -> impl Iterator<Item = &Op> {
        self.ops.iter().filter(move |op| op.mode == mode)
    }

    /// The passes latency and throughput are taken from: those run on a
    /// quiet host (see [`quiet_passes`]). The checks cover every pass.
    fn timed(&self) -> Vec<usize> {
        quiet_passes(&self.steal, STATEMENTS.len())
    }

    fn latency(&self) -> LatencySummary {
        let mut passes = vec![Vec::new(); self.passes];
        for op in self.of(Mode::Untraced) {
            passes[op.pass].push(op.latency_ms);
        }
        let timed: Vec<Vec<f64>> = self
            .timed()
            .into_iter()
            .map(|i| std::mem::take(&mut passes[i]))
            .collect();
        LatencySummary::of_passes(&timed)
    }

    fn throughput_qps(&self) -> f64 {
        let timed = self.timed();
        let wall: Duration = timed.iter().map(|&i| self.walls[i]).sum();
        ratio((timed.len() * STATEMENTS.len()) as f64, wall.as_secs_f64())
    }

    /// Run one statement, time it, check it. The check runs after the clock
    /// stops, so it is not part of the latency or the throughput.
    fn execute(
        &mut self,
        catalog: &Catalog,
        index: usize,
        expected: &Expected,
        mode: Mode,
        tracer: Option<&Tracer>,
        problems: &mut Vec<String>,
    ) {
        let (shape, statement) = STATEMENTS[index];
        let start = Instant::now();
        let result = run_sql(catalog, statement);
        let end = Instant::now();
        let latency = end.duration_since(start);
        if let Some(tracer) = tracer {
            let id = tracer.next_id();
            tracer.record(Span {
                id,
                name: shape.span_name(mode == Mode::Sequential),
                start,
                end,
                query: Some(id),
                parent: None,
                attrs: vec![
                    ("statement", index as f64),
                    (
                        "rows_out",
                        result.as_ref().map_or(0.0, |t| t.num_rows() as f64),
                    ),
                ],
            });
        }
        if let Err(e) = result
            .map_err(|e| e.to_string())
            .and_then(|t| verify(&t, expected))
        {
            problems.push(format!("statement {index} ({}): {e}", shape.name()));
            self.failed += 1;
        }
        if mode == Mode::Untraced {
            self.walls[self.passes] += latency;
        }
        self.ops.push(Op {
            pass: self.passes,
            shape,
            latency_ms: ms(latency),
            mode,
        });
    }
}

/// Whole passes over the mix until `seconds` have elapsed and the run is
/// large enough for its 95th percentile. With a tracer, each statement runs
/// three times in a row: untraced, traced, and traced on the same catalog
/// pinned to `ExecConfig::sequential()`, so the tracing overhead and the
/// default-vs-sequential ratios compare runs made under the same host
/// conditions. The order flips every pass, so no mode always runs first.
fn measure(
    catalog: &Catalog,
    expected: &[Expected],
    seconds: f64,
    traced: Option<(&Tracer, &Catalog)>,
    problems: &mut Vec<String>,
) -> Measured {
    let started = Instant::now();
    let mut measured = Measured::default();
    loop {
        measured.walls.push(Duration::ZERO);
        let steal = StealMeter::start();
        for (index, reference) in expected.iter().enumerate() {
            let Some((tracer, sequential)) = traced else {
                measured.execute(catalog, index, reference, Mode::Untraced, None, problems);
                continue;
            };
            let mut runs = [
                (catalog, Mode::Untraced, None),
                (catalog, Mode::Traced, Some(tracer)),
                (sequential, Mode::Sequential, Some(tracer)),
            ];
            if measured.passes % 2 == 1 {
                runs.reverse();
            }
            for (catalog, mode, tracer) in runs {
                measured.execute(catalog, index, reference, mode, tracer, problems);
            }
        }
        measured.steal.push(steal.share());
        measured.passes += 1;
        if measured.passes == RSS_PASSES {
            measured.peak_rss_mb = Some(peak_rss_mb());
        }
        let elapsed = started.elapsed().as_secs_f64();
        let large_enough = traced.is_some()
            || crate::stats::sized_for_tail(
                measured.timed().len() * STATEMENTS.len(),
                &measured.latency(),
            );
        let quiet = traced.is_some() || !contended(&measured.steal, &measured.timed());
        if (elapsed >= seconds && large_enough && quiet)
            || elapsed >= crate::stats::time_cap(seconds)
        {
            break;
        }
    }
    measured
}

fn engine_metrics(shape: Shape, default_ms: f64, vs_seq: f64) -> [Metric; 2] {
    let (ms_name, ratio_name) = match shape {
        Shape::Join => ("engine.join_ms", "engine.join_vs_seq"),
        Shape::Aggregate => ("engine.aggregate_ms", "engine.aggregate_vs_seq"),
        Shape::Filter => ("engine.filter_ms", "engine.filter_vs_seq"),
        Shape::Sort => ("engine.sort_ms", "engine.sort_vs_seq"),
    };
    [
        metric(ms_name, default_ms, "ms"),
        metric(ratio_name, vs_seq, "x"),
    ]
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let set_up = crate::set_up(|| prepare(args.seed).map(|(c, r, took)| ((c, r), took)));
    let ((catalog, rows), setups) = match set_up {
        Ok(done) => done,
        Err(e) => {
            outcome.problems.push(e);
            return outcome;
        }
    };
    let expected = references(&rows);
    drop(rows);
    let exec = catalog.exec_config().unwrap_or_else(parallel::exec_config);
    outcome.details = vec![
        ("loop".into(), Json::str("closed")),
        ("clients".into(), Json::from(1usize)),
        ("rows".into(), Json::from(ROWS)),
        (
            "statements".into(),
            Json::Arr(STATEMENTS.iter().map(|(_, s)| Json::str(*s)).collect()),
        ),
        (
            "statement_exec_config".into(),
            Json::obj([
                ("threads", Json::from(exec.threads)),
                ("morsel_rows", Json::from(exec.morsel_rows)),
            ]),
        ),
    ];
    outcome.details.extend(setups.details());

    let tracer = Tracer::new();
    let sequential = catalog.clone().with_exec_config(ExecConfig::sequential());
    let traced = args.trace.then_some((&*tracer, &sequential));
    tracer.set_active(true);
    let measured = measure(
        &catalog,
        &expected,
        args.seconds,
        traced,
        &mut outcome.problems,
    );
    tracer.set_active(false);
    outcome.attempted = measured.ops.len();
    outcome.failed = measured.failed;
    let untraced: Vec<f64> = measured
        .of(Mode::Untraced)
        .map(|op| op.latency_ms)
        .collect();
    let summary = measured.latency();
    outcome.details.extend([
        ("operations".to_string(), Json::from(untraced.len())),
        ("passes".to_string(), Json::from(measured.passes)),
        (
            "samples_beyond_p95".to_string(),
            Json::from(summary.beyond_p95),
        ),
        (
            "failed_share".to_string(),
            Json::Num(ratio(measured.failed as f64, measured.ops.len() as f64)),
        ),
        ("llm_calls_per_query".to_string(), Json::Num(0.0)),
        ("prompt_tokens_per_query".to_string(), Json::Num(0.0)),
        ("perception_calls_per_query".to_string(), Json::Num(0.0)),
    ]);
    let timed = measured.timed();
    outcome
        .details
        .extend(timing_details(&measured.steal, &timed));
    outcome.contended = contended(&measured.steal, &timed);

    if !args.trace {
        outcome.end_to_end = vec![
            metric("latency_p50_ms", summary.p50_ms, "ms"),
            metric("latency_p95_ms", summary.p95_ms, "ms"),
            metric("throughput_qps", measured.throughput_qps(), "1/s"),
            setups.metric(),
            metric(
                "peak_rss_mb",
                measured.peak_rss_mb.unwrap_or_else(peak_rss_mb),
                "MiB",
            ),
        ];
        return outcome;
    }

    let of = |shape: Shape, mode: Mode| -> Vec<f64> {
        measured
            .of(mode)
            .filter(|op| op.shape == shape)
            .map(|op| op.latency_ms)
            .collect()
    };
    let mut layers = Vec::new();
    for shape in Shape::ALL {
        let default_ms = median(&of(shape, Mode::Traced));
        layers.extend(engine_metrics(
            shape,
            default_ms,
            ratio(default_ms, median(&of(shape, Mode::Sequential))),
        ));
    }
    let untraced_mean = mean(&untraced);
    let traced_mean = mean(
        &measured
            .of(Mode::Traced)
            .map(|op| op.latency_ms)
            .collect::<Vec<_>>(),
    );
    layers.push(metric(
        "trace.overhead_ms",
        traced_mean - untraced_mean,
        "ms",
    ));
    layers.push(metric(
        "trace.overhead_share",
        ratio(traced_mean - untraced_mean, untraced_mean),
        "share",
    ));
    layers.push(metric(
        "eval.failed_share",
        ratio(measured.failed as f64, measured.ops.len() as f64),
        "share",
    ));
    outcome.per_layer = layers;

    crate::save_spans(&tracer, args, &mut outcome);
    outcome
}
