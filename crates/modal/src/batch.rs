//! Batched, deduplicated dispatch of perception-operator model calls.
//!
//! CAESURA's cost model is dominated by LLM round trips: the perception
//! operators (VisualQA, TextQA, Image Select) conceptually issue one model
//! call per row, which the paper flags as the scaling bottleneck of
//! multi-modal plans. This module replaces that row-at-a-time call pattern
//! with a **gather → dedup → batch → scatter** pipeline:
//!
//! 1. **Gather** — the operator walks its input rows *in row order* and
//!    pushes one [`PerceptionRequest`] per non-NULL row into a
//!    [`PerceptionBatch`] collector (NULL inputs are recorded as NULL slots
//!    and never reach the model).
//! 2. **Dedup** — requests with an identical `(input, question)` pair share
//!    one slot: Rotowire-style tables repeat documents and entities heavily
//!    (every game report appears once per participating team), so duplicate
//!    rows cost zero extra model calls. The dedup key is exactly the pair the
//!    simulated models derive their (deterministic) noise from, so dedup can
//!    never change an answer.
//! 3. **Cache probe** (optional) — when the session attaches a
//!    [`PerceptionCache`], every unique request is probed against it first;
//!    hits resolve immediately and never reach the backend, so questions
//!    repeated across plan steps or across queries cost zero additional
//!    model calls (see [`PerceptionBatch::dispatch_cached`] and the
//!    [`crate::cache`] module docs for why this cannot change an answer).
//! 4. **Batch + dispatch** — the remaining unique requests are split into chunks of
//!    [`BatchConfig::batch_size`] and handed to a [`PerceptionBackend`] batch
//!    by batch, fanned out across the existing morsel worker pool
//!    ([`caesura_engine::parallel`], honouring the pinned
//!    [`ExecConfig::threads`](caesura_engine::ExecConfig) of the surrounding
//!    query). A backend receives whole batches, so an LLM-backed
//!    implementation can serve each chunk with a single `complete_batch`
//!    round trip.
//! 5. **Scatter** — answers are mapped back onto the rows in row order. The
//!    output (values, NULL placeholders, and the first error in row order)
//!    is byte-identical to what the sequential row-at-a-time path produces;
//!    `tests/property_batch.rs` asserts this for every operator across batch
//!    sizes and thread counts.
//!
//! ## Knobs
//!
//! * [`BatchConfig::batch_size`] — how many unique requests one backend
//!   dispatch carries. Defaults to the `CAESURA_LLM_BATCH` environment
//!   variable, or [`BatchConfig::DEFAULT_BATCH_SIZE`] when unset.
//!   `batch_size = 1` is the degenerate configuration: one dispatch per
//!   unique request (still deduplicated), which CI exercises alongside the
//!   default, mirroring the `CAESURA_THREADS=1` job.
//! * Worker threads come from the ambient
//!   [`parallel::exec_config()`](caesura_engine::parallel::exec_config), so
//!   the session/executor `ExecConfig` knob pins perception dispatch
//!   parallelism together with the relational operators.
//!
//! ## Saved-call accounting
//!
//! Every dispatch returns [`BatchStats`]: input rows, NULL rows, unique
//! requests actually dispatched, number of batches, and `saved_calls` — the
//! model calls the dedup avoided versus the row-at-a-time path
//! (`rows - null_rows - unique_requests`). The executor accumulates these
//! per query and the session surfaces them in the execution trace; the
//! `llm_calls` bench binary records them in `BENCH_llm_calls.json`.

use crate::cache::{CacheScope, PerceptionCache};
use crate::error::ModalResult;
use crate::image::ImageObject;
use caesura_engine::{parallel, EngineError, EngineResult, ExecConfig, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Configuration of the perception-call batching layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of unique requests per backend dispatch (≥ 1).
    pub batch_size: usize,
}

impl BatchConfig {
    /// Default batch size when `CAESURA_LLM_BATCH` is unset: large enough to
    /// amortize a round trip, small enough to keep several workers busy.
    pub const DEFAULT_BATCH_SIZE: usize = 32;

    /// A configuration with an explicit batch size (clamped to ≥ 1).
    pub fn new(batch_size: usize) -> Self {
        BatchConfig {
            batch_size: batch_size.max(1),
        }
    }

    /// The configuration described by the environment: `CAESURA_LLM_BATCH`
    /// ([`Self::DEFAULT_BATCH_SIZE`] when unset or unparseable).
    pub fn from_env() -> Self {
        let batch_size = std::env::var("CAESURA_LLM_BATCH")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&b| b > 0)
            .unwrap_or(Self::DEFAULT_BATCH_SIZE);
        BatchConfig::new(batch_size)
    }
}

impl Default for BatchConfig {
    /// The environment-described configuration, read once per process (the
    /// same caching pattern as `parallel::exec_config`); use
    /// [`BatchConfig::from_env`] directly to re-read the environment.
    fn default() -> Self {
        static DEFAULT: OnceLock<BatchConfig> = OnceLock::new();
        *DEFAULT.get_or_init(BatchConfig::from_env)
    }
}

/// Call accounting of one (or several, via [`BatchStats::absorb`]) batched
/// perception dispatches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Input rows the operator walked (0 for invocation-granular calls such
    /// as the transform codegen compile, which is not a per-row operator).
    pub rows: usize,
    /// Rows whose input cell was NULL (answered NULL without a model call).
    pub null_rows: usize,
    /// Unique `(input, question)` requests dispatched to the backend.
    pub unique_requests: usize,
    /// Backend dispatches actually performed:
    /// `ceil(unique_requests / batch_size)` on success. On failure the
    /// short-circuit makes this a best-effort count — under parallel
    /// dispatch it can be anything from 1 to the full count depending on
    /// how many batches workers claimed before observing the cancellation
    /// (answers and errors stay deterministic; only this failure-path
    /// dispatch count varies).
    pub batches: usize,
    /// Model calls avoided by dedup versus the row-at-a-time path:
    /// `rows - null_rows - unique_requests`.
    pub saved_calls: usize,
    /// Unique requests answered by the session's perception cache without
    /// reaching the backend (0 when no cache is attached). The backend
    /// actually received `unique_requests - cache_hits` requests.
    pub cache_hits: usize,
    /// Unique requests probed against a cache and not found (0 when no cache
    /// is attached; with a cache, `cache_hits + cache_misses ==
    /// unique_requests`).
    pub cache_misses: usize,
    /// Cache entries evicted while storing this dispatch's answers (or while
    /// warming the memory tier from disk). Under parallel dispatch the exact
    /// count depends on worker interleaving (answers never do).
    pub cache_evictions: usize,
    /// Memory-tier misses answered by the cache's durable disk tier without
    /// reaching the backend (0 unless a disk tier is attached). A disk hit is
    /// also counted in `cache_misses` — the memory tier did miss.
    pub disk_hits: usize,
    /// Unique requests that missed both tiers (true cold misses; 0 unless a
    /// disk tier is attached, in which case `disk_hits + disk_misses ==
    /// cache_misses`).
    pub disk_misses: usize,
    /// Successful answers written through to the disk tier.
    pub disk_writes: usize,
}

impl BatchStats {
    /// Accumulate another dispatch's stats into this one.
    pub fn absorb(&mut self, other: &BatchStats) {
        self.rows += other.rows;
        self.null_rows += other.null_rows;
        self.unique_requests += other.unique_requests;
        self.batches += other.batches;
        self.saved_calls += other.saved_calls;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.disk_hits += other.disk_hits;
        self.disk_misses += other.disk_misses;
        self.disk_writes += other.disk_writes;
    }

    /// The stats accumulated since `earlier` (field-wise difference; both
    /// must come from the same monotonically growing accumulator).
    pub fn since(&self, earlier: &BatchStats) -> BatchStats {
        BatchStats {
            rows: self.rows - earlier.rows,
            null_rows: self.null_rows - earlier.null_rows,
            unique_requests: self.unique_requests - earlier.unique_requests,
            batches: self.batches - earlier.batches,
            saved_calls: self.saved_calls - earlier.saved_calls,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            disk_hits: self.disk_hits - earlier.disk_hits,
            disk_misses: self.disk_misses - earlier.disk_misses,
            disk_writes: self.disk_writes - earlier.disk_writes,
        }
    }

    /// Requests that actually reached the backend: unique requests minus the
    /// hits of both cache tiers (equal to `unique_requests` when no cache is
    /// attached).
    pub fn dispatched_requests(&self) -> usize {
        self.unique_requests - self.cache_hits - self.disk_hits
    }

    /// Fraction of cache probes answered by either tier (memory or disk),
    /// in `[0, 1]`; `0.0` when nothing was probed.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            (self.cache_hits + self.disk_hits) as f64 / probes as f64
        }
    }

    /// Render the stats for traces and observations.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} row(s) -> {} unique model call(s) in {} batch(es) ({} saved by dedup, {} NULL row(s))",
            self.rows,
            self.dispatched_requests(),
            self.batches,
            self.saved_calls,
            self.null_rows
        );
        if self.cache_hits > 0 || self.cache_misses > 0 {
            out.push_str(&format!(
                "; cache: {} hit(s), {} miss(es), {} eviction(s)",
                self.cache_hits, self.cache_misses, self.cache_evictions
            ));
        }
        if self.disk_hits > 0 || self.disk_misses > 0 || self.disk_writes > 0 {
            out.push_str(&format!(
                "; disk: {} hit(s), {} miss(es), {} write(s)",
                self.disk_hits, self.disk_misses, self.disk_writes
            ));
        }
        out
    }
}

/// The per-row input a perception request is asked about.
#[derive(Debug, Clone, PartialEq)]
pub enum PerceptionInput {
    /// A full text document (TextQA). `Arc`-shared with the source column
    /// and the dedup index, so large documents are never copied.
    Document(Arc<str>),
    /// An annotated image (VisualQA / Image Select). `Arc`-shared with the
    /// [`ImageStore`](crate::ImageStore), so requests never copy annotations.
    Image(Arc<ImageObject>),
}

impl PerceptionInput {
    /// The dedup/cache identity of this input: the document text, or the
    /// image key (annotations are immutable per key within a store). This is
    /// the input half of the `(input, question)` pair both the dedup index
    /// and the [`PerceptionCache`] key on.
    pub fn cache_key(&self) -> &str {
        match self {
            PerceptionInput::Document(document) => document,
            PerceptionInput::Image(image) => &image.key,
        }
    }

    /// [`Self::cache_key`] as a shared `Arc<str>`: documents bump the
    /// existing reference count, image keys are copied (they are short).
    pub fn shared_key(&self) -> Arc<str> {
        match self {
            PerceptionInput::Document(document) => Arc::clone(document),
            PerceptionInput::Image(image) => Arc::from(image.key.as_str()),
        }
    }
}

/// One unique `(input, question)` pair to be answered by a backend.
#[derive(Debug, Clone, PartialEq)]
pub struct PerceptionRequest {
    /// The document or image the question is about.
    pub input: PerceptionInput,
    /// The (already instantiated) question or description.
    pub question: String,
}

/// A model that answers perception requests batch by batch.
///
/// The simulated models ([`TextQaModel`](crate::TextQaModel),
/// [`VisualQaModel`](crate::VisualQaModel),
/// [`ImageSelectModel`](crate::ImageSelectModel)) answer each request locally;
/// an LLM-backed implementation (see `caesura_llm`'s `PerceptionLlm`) renders
/// the whole batch into conversations and serves it with one
/// `complete_batch` round trip. Implementations must return exactly one
/// result per request, in request order, and must answer a given
/// `(input, question)` pair deterministically — the dedup layer reuses one
/// answer for every duplicate row.
pub trait PerceptionBackend: Sync {
    /// Answer every request of one batch, in order.
    fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>>;

    /// A stable version string identifying this backend's *answer function*:
    /// two backends share an identity exactly when they are guaranteed to
    /// answer every `(input, question)` pair identically.
    ///
    /// The durable cache tier namespaces its keys with this string, so a
    /// store written under one model configuration can never answer for
    /// another — implementations must fold in anything that changes answers
    /// (model name, noise seed/rate, prompt format version). The default is
    /// the concrete type name, which is correct for stateless deterministic
    /// backends and conservatively safe otherwise (renaming a type only
    /// costs a cold start).
    fn identity(&self) -> String {
        std::any::type_name_of_val(self).to_string()
    }
}

/// Per-row slot recorded during the gather phase.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The row's input cell was NULL; no request is made.
    Null,
    /// The row's answer lives at this index of the unique-request vector.
    Unique(usize),
}

/// The request collector: gathers per-row requests, dedups them, dispatches
/// the unique ones in batches, and scatters answers back in row order.
#[derive(Debug, Default)]
pub struct PerceptionBatch {
    slots: Vec<Slot>,
    unique: Vec<PerceptionRequest>,
    /// Dedup index per modality (`[documents, images]` — separate keyspaces,
    /// so a document whose text equals an image key can never share that
    /// image's answer): input key → question → unique index. Nested so
    /// probes borrow `&str` (no per-row copy of large documents), and the
    /// `Arc<str>` keys share the document storage with the requests.
    index: [HashMap<Arc<str>, HashMap<String, usize>>; 2],
}

impl PerceptionBatch {
    /// An empty collector.
    pub fn new() -> Self {
        PerceptionBatch::default()
    }

    /// A collector with a row-capacity hint.
    pub fn with_capacity(rows: usize) -> Self {
        PerceptionBatch {
            slots: Vec::with_capacity(rows),
            unique: Vec::new(),
            index: [HashMap::new(), HashMap::new()],
        }
    }

    /// Record a row whose input cell is NULL (answered NULL, no model call).
    pub fn push_null(&mut self) {
        self.slots.push(Slot::Null);
    }

    /// Record one row's question about a text document, deduplicating
    /// against every previously pushed row. The `Arc`-shared document is
    /// never copied — new `(document, question)` pairs only bump its
    /// reference count.
    pub fn push_document(&mut self, document: &Arc<str>, question: &str) {
        self.push_inner(
            0,
            document,
            question,
            || Arc::clone(document),
            || PerceptionInput::Document(Arc::clone(document)),
        );
    }

    /// Record one row's question about an image, deduplicating by image key
    /// (annotations are immutable per key within a store). The `Arc`-shared
    /// image is never copied — new `(image, question)` pairs only bump its
    /// reference count.
    pub fn push_image(&mut self, image: &Arc<ImageObject>, question: &str) {
        self.push_inner(
            1,
            &image.key,
            question,
            || Arc::from(image.key.as_str()),
            || PerceptionInput::Image(Arc::clone(image)),
        );
    }

    /// Record one row's request, deduplicating identical `(input, question)`
    /// pairs against every previously pushed row. Prefer
    /// [`PerceptionBatch::push_document`] / [`PerceptionBatch::push_image`]
    /// when the input is borrowed — they avoid materializing duplicates.
    pub fn push(&mut self, request: PerceptionRequest) {
        match &request.input {
            PerceptionInput::Document(document) => self.push_document(document, &request.question),
            PerceptionInput::Image(image) => self.push_image(image, &request.question),
        }
    }

    /// Probes the dedup index by `&str` (no allocation for duplicate rows);
    /// `make_key`/`build` run only for genuinely new pairs.
    fn push_inner(
        &mut self,
        modality: usize,
        key: &str,
        question: &str,
        make_key: impl FnOnce() -> Arc<str>,
        build: impl FnOnce() -> PerceptionInput,
    ) {
        let existing = self.index[modality]
            .get(key)
            .and_then(|by_question| by_question.get(question))
            .copied();
        let idx = match existing {
            Some(idx) => idx,
            None => {
                let idx = self.unique.len();
                self.index[modality]
                    .entry(make_key())
                    .or_default()
                    .insert(question.to_string(), idx);
                self.unique.push(PerceptionRequest {
                    input: build(),
                    question: question.to_string(),
                });
                idx
            }
        };
        self.slots.push(Slot::Unique(idx));
    }

    /// Number of rows gathered so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no row has been gathered yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of unique requests gathered so far.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Dispatch the unique requests to `backend` in batches of
    /// [`BatchConfig::batch_size`], fanned out across the morsel worker pool
    /// via [`parallel::try_map_morsels`] (one "morsel" = one batch), and
    /// scatter the answers back onto the rows.
    ///
    /// On success, returns one entry per gathered row, in row order: `None`
    /// for NULL rows, `Some(value)` otherwise (duplicates share a clone of
    /// the same answer). On failure, returns the error of the **first
    /// failing row in row order** — unique indices are assigned in
    /// first-seen row order, so `try_map_morsels`' earliest-failing-batch
    /// guarantee maps exactly onto it — reproducing the error behaviour of
    /// the sequential row-at-a-time path.
    ///
    /// Failures short-circuit (workers stop claiming further batches, the
    /// row-at-a-time path stopped at its first failing call too), so a
    /// remote backend is not billed for the rest of the table;
    /// [`BatchStats::batches`] counts the dispatches actually performed.
    /// Stats are returned alongside the result — not inside it — so callers
    /// can account for the calls of failed dispatches too.
    pub fn dispatch(
        self,
        backend: &dyn PerceptionBackend,
        config: &BatchConfig,
    ) -> (EngineResult<Vec<Option<Value>>>, BatchStats) {
        self.dispatch_cached(backend, config, None)
    }

    /// [`PerceptionBatch::dispatch`] through an optional session-scoped
    /// [`PerceptionCache`]. With `cache = None` the behaviour (and the
    /// resulting bytes) are exactly those of the uncached dispatch.
    ///
    /// With a cache attached, every unique request is probed first — hits
    /// resolve immediately and **never reach the backend** — and only the
    /// misses are dispatched in batches (preserving first-seen row order, so
    /// the first-error-in-row-order guarantee carries over: requests that
    /// error are never cached, hence always misses, and the miss subsequence
    /// preserves their relative order). Successful answers populate the
    /// cache on the way back, including the answers of a dispatch whose
    /// later batch failed — the row-at-a-time path paid for those calls too.
    /// [`BatchStats`] gains the hit/miss/eviction counts of this dispatch.
    pub fn dispatch_cached(
        self,
        backend: &dyn PerceptionBackend,
        config: &BatchConfig,
        cache: Option<(&PerceptionCache, CacheScope)>,
    ) -> (EngineResult<Vec<Option<Value>>>, BatchStats) {
        let PerceptionBatch { slots, unique, .. } = self;
        let rows = slots.len();
        let null_rows = slots.iter().filter(|s| matches!(s, Slot::Null)).count();
        let unique_count = unique.len();

        // Probe phase: resolve hits, keep misses in first-seen order. With a
        // disk tier attached, memory misses probe the durable store (keyed by
        // the backend's identity) before being dispatched; disk hits also
        // warm the memory tier so duplicates within the session stay cheap.
        let disk_identity: Option<String> = match cache {
            Some((cache, _)) if cache.has_disk() => Some(backend.identity()),
            _ => None,
        };
        let mut resolved: Vec<Option<Value>> = vec![None; unique_count];
        let mut miss_slots: Vec<usize> = Vec::new();
        let mut miss_requests: Vec<PerceptionRequest> = Vec::new();
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;
        let mut disk_hits = 0usize;
        let mut probe_evictions = 0usize;
        match cache {
            Some((cache, scope)) => {
                for (idx, request) in unique.into_iter().enumerate() {
                    match cache.get(scope, &request.input, &request.question) {
                        Some(value) => {
                            resolved[idx] = Some(value);
                            cache_hits += 1;
                        }
                        None => {
                            cache_misses += 1;
                            let from_disk = disk_identity.as_ref().and_then(|identity| {
                                cache.disk_get(identity, scope, &request.input, &request.question)
                            });
                            match from_disk {
                                Some(value) => {
                                    probe_evictions += cache.insert(
                                        scope,
                                        &request.input,
                                        &request.question,
                                        value.clone(),
                                    );
                                    resolved[idx] = Some(value);
                                    disk_hits += 1;
                                }
                                None => {
                                    miss_slots.push(idx);
                                    miss_requests.push(request);
                                }
                            }
                        }
                    }
                }
            }
            None => {
                miss_slots.extend(0..unique_count);
                miss_requests = unique;
            }
        }
        let disk_misses = if disk_identity.is_some() {
            miss_requests.len()
        } else {
            0
        };

        // Dispatch phase: only the misses reach the backend.
        let dispatched = AtomicUsize::new(0);
        let evicted = AtomicUsize::new(0);
        let disk_wrote = AtomicUsize::new(0);
        let result: EngineResult<Vec<Vec<Value>>> = if miss_requests.is_empty() {
            Ok(Vec::new())
        } else {
            // One morsel = one batch of `batch_size` unique requests.
            let exec = ExecConfig::new(parallel::exec_config().threads, config.batch_size);
            parallel::try_map_morsels(&exec, miss_requests.len(), |range| {
                dispatched.fetch_add(1, Ordering::Relaxed);
                let batch = &miss_requests[range];
                let answers = backend.answer_batch(batch);
                // A malformed backend response (e.g. a remote server
                // truncating a batch) degrades the query with an execution
                // error; it must not panic the worker pool.
                if answers.len() != batch.len() {
                    return Err(EngineError::execution(format!(
                        "perception backend returned {} answer(s) for a batch of {} request(s)",
                        answers.len(),
                        batch.len()
                    )));
                }
                if let Some((cache, scope)) = cache {
                    // Only successful answers are cached; errors are
                    // re-dispatched on every attempt, like the uncached path.
                    for (request, answer) in batch.iter().zip(&answers) {
                        if let Ok(value) = answer {
                            evicted.fetch_add(
                                cache.insert(
                                    scope,
                                    &request.input,
                                    &request.question,
                                    value.clone(),
                                ),
                                Ordering::Relaxed,
                            );
                            if let Some(identity) = disk_identity.as_ref() {
                                if cache.disk_put(
                                    identity,
                                    scope,
                                    &request.input,
                                    &request.question,
                                    value,
                                ) {
                                    disk_wrote.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                }
                answers
                    .into_iter()
                    .map(|a| a.map_err(|e| EngineError::execution(e.to_string())))
                    .collect()
            })
        };
        let stats = BatchStats {
            rows,
            null_rows,
            unique_requests: unique_count,
            batches: dispatched.into_inner(),
            saved_calls: rows - null_rows - unique_count,
            cache_hits,
            cache_misses,
            cache_evictions: probe_evictions + evicted.into_inner(),
            disk_hits,
            disk_misses,
            disk_writes: disk_wrote.into_inner(),
        };
        let scattered = result.map(|chunks| {
            for (j, value) in chunks.into_iter().flatten().enumerate() {
                resolved[miss_slots[j]] = Some(value);
            }
            slots
                .iter()
                .map(|slot| match slot {
                    Slot::Null => None,
                    Slot::Unique(idx) => Some(
                        resolved[*idx]
                            .clone()
                            .expect("every unique request resolves to an answer"),
                    ),
                })
                .collect()
        });
        (scattered, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A backend that counts calls and answers with the question length.
    struct CountingBackend {
        calls: AtomicUsize,
        batches: AtomicUsize,
    }

    impl CountingBackend {
        fn new() -> Self {
            CountingBackend {
                calls: AtomicUsize::new(0),
                batches: AtomicUsize::new(0),
            }
        }
    }

    impl PerceptionBackend for CountingBackend {
        fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.calls.fetch_add(requests.len(), Ordering::Relaxed);
            requests
                .iter()
                .map(|r| Ok(Value::Int(r.question.len() as i64)))
                .collect()
        }
    }

    fn doc_request(doc: &str, question: &str) -> PerceptionRequest {
        PerceptionRequest {
            input: PerceptionInput::Document(doc.into()),
            question: question.to_string(),
        }
    }

    #[test]
    fn batch_config_clamps_and_reads_defaults() {
        assert_eq!(BatchConfig::new(0).batch_size, 1);
        assert_eq!(BatchConfig::new(7).batch_size, 7);
    }

    #[test]
    fn duplicate_rows_share_one_request_and_answer() {
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        batch.push(doc_request("report A", "Who won?"));
        batch.push_null();
        batch.push(doc_request("report B", "Who won?"));
        batch.push(doc_request("report A", "Who won?"));
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.unique_len(), 2);

        let backend = CountingBackend::new();
        let (answers, stats) = batch.dispatch(&backend, &BatchConfig::new(8));
        let answers = answers.unwrap();
        assert_eq!(backend.calls.load(Ordering::Relaxed), 2);
        assert_eq!(backend.batches.load(Ordering::Relaxed), 1);
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.null_rows, 1);
        assert_eq!(stats.unique_requests, 2);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.saved_calls, 2);
        assert_eq!(answers.len(), 5);
        assert!(answers[2].is_none());
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0], answers[4]);
    }

    #[test]
    fn batch_size_controls_the_number_of_dispatches() {
        let mut batch = PerceptionBatch::new();
        for i in 0..10 {
            batch.push(doc_request(&format!("doc {i}"), "Q?"));
        }
        let backend = CountingBackend::new();
        let (_, stats) = batch.dispatch(&backend, &BatchConfig::new(3));
        assert_eq!(backend.batches.load(Ordering::Relaxed), 4);
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.unique_requests, 10);
        assert_eq!(stats.saved_calls, 0);
    }

    #[test]
    fn empty_and_all_null_collectors_dispatch_nothing() {
        let backend = CountingBackend::new();
        let (answers, stats) = PerceptionBatch::new().dispatch(&backend, &BatchConfig::new(4));
        assert!(answers.unwrap().is_empty());
        assert_eq!(stats.batches, 0);

        let mut batch = PerceptionBatch::new();
        batch.push_null();
        batch.push_null();
        let (answers, stats) = batch.dispatch(&backend, &BatchConfig::new(4));
        assert_eq!(answers.unwrap(), vec![None, None]);
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.null_rows, 2);
        assert_eq!(stats.batches, 0);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failing_requests_return_the_first_error() {
        struct FailingBackend;
        impl PerceptionBackend for FailingBackend {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                requests
                    .iter()
                    .map(|r| {
                        Err(crate::error::ModalError::UnanswerableQuestion {
                            model: "test".into(),
                            question: r.question.clone(),
                            reason: "always fails".into(),
                        })
                    })
                    .collect()
            }
        }
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("doc", "Q?"));
        batch.push(doc_request("doc", "Q?"));
        let (answers, stats) = batch.dispatch(&FailingBackend, &BatchConfig::new(2));
        let err = answers.unwrap_err();
        assert!(err.to_string().contains("always fails"));
        assert_eq!(stats.unique_requests, 1);
        assert_eq!(stats.batches, 1);
    }

    #[test]
    fn failing_batches_short_circuit_later_dispatches() {
        /// Fails the request asking `Q0?`, answers everything else.
        struct FailFirst;
        impl PerceptionBackend for FailFirst {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                requests
                    .iter()
                    .map(|r| {
                        if r.question == "Q0?" {
                            Err(crate::error::ModalError::UnanswerableQuestion {
                                model: "test".into(),
                                question: r.question.clone(),
                                reason: "scripted failure".into(),
                            })
                        } else {
                            Ok(Value::Int(1))
                        }
                    })
                    .collect()
            }
        }
        // Sequential config so skip behaviour is deterministic: the first
        // batch fails, the remaining four are never dispatched.
        parallel::with_config(ExecConfig::new(1, 4096), || {
            let mut batch = PerceptionBatch::new();
            for i in 0..10 {
                batch.push(doc_request(&format!("doc {i}"), &format!("Q{i}?")));
            }
            let (answers, stats) = batch.dispatch(&FailFirst, &BatchConfig::new(2));
            let err = answers.unwrap_err();
            assert!(err.to_string().contains("scripted failure"));
            assert_eq!(stats.unique_requests, 10);
            assert_eq!(stats.batches, 1, "later batches must be skipped");
        });
    }

    #[test]
    fn stats_absorb_and_since_are_inverse() {
        let mut total = BatchStats::default();
        let a = BatchStats {
            rows: 5,
            null_rows: 1,
            unique_requests: 3,
            batches: 1,
            saved_calls: 1,
            cache_hits: 1,
            cache_misses: 2,
            cache_evictions: 1,
            disk_hits: 1,
            disk_misses: 1,
            disk_writes: 1,
        };
        let b = BatchStats {
            rows: 2,
            null_rows: 0,
            unique_requests: 2,
            batches: 1,
            saved_calls: 0,
            cache_hits: 0,
            cache_misses: 2,
            cache_evictions: 0,
            disk_hits: 0,
            disk_misses: 2,
            disk_writes: 2,
        };
        total.absorb(&a);
        let snapshot = total;
        total.absorb(&b);
        assert_eq!(total.since(&snapshot), b);
        assert_eq!(total.rows, 7);
        assert!(total.summary().contains("7 row(s)"));
    }

    #[test]
    fn cached_dispatch_skips_the_backend_on_repeats() {
        let cache = PerceptionCache::with_capacity(16);
        let backend = CountingBackend::new();

        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        batch.push(doc_request("report B", "Who won?"));
        let (answers, stats) = batch.dispatch_cached(
            &backend,
            &BatchConfig::new(8),
            Some((&cache, CacheScope::TextQa)),
        );
        let first = answers.unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 2);

        // A later "plan step" re-asking the same questions: zero new calls.
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        batch.push_null();
        batch.push(doc_request("report B", "Who won?"));
        let (answers, stats) = batch.dispatch_cached(
            &backend,
            &BatchConfig::new(8),
            Some((&cache, CacheScope::TextQa)),
        );
        let second = answers.unwrap();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 0);
        assert_eq!(stats.batches, 0, "hits must not dispatch");
        assert_eq!(stats.dispatched_requests(), 0);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 2, "no new calls");
        assert_eq!(second[0], first[0]);
        assert!(second[1].is_none());
        assert_eq!(second[2], first[1]);

        // A different scope must not share the answers.
        let mut batch = PerceptionBatch::new();
        batch.push(doc_request("report A", "Who won?"));
        let (_, stats) = batch.dispatch_cached(
            &backend,
            &BatchConfig::new(8),
            Some((&cache, CacheScope::VisualQa)),
        );
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(backend.calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn failed_requests_are_never_cached() {
        /// Fails requests about "bad", answers everything else with 1.
        struct FailBad;
        impl PerceptionBackend for FailBad {
            fn answer_batch(&self, requests: &[PerceptionRequest]) -> Vec<ModalResult<Value>> {
                requests
                    .iter()
                    .map(|r| {
                        if r.input.cache_key() == "bad" {
                            Err(crate::error::ModalError::UnanswerableQuestion {
                                model: "test".into(),
                                question: r.question.clone(),
                                reason: "scripted failure".into(),
                            })
                        } else {
                            Ok(Value::Int(1))
                        }
                    })
                    .collect()
            }
        }
        let cache = PerceptionCache::with_capacity(16);
        // Sequential so the good batch deterministically precedes the bad one.
        parallel::with_config(ExecConfig::new(1, 4096), || {
            let mut batch = PerceptionBatch::new();
            batch.push(doc_request("good", "Q?"));
            batch.push(doc_request("bad", "Q?"));
            let (answers, _) = batch.dispatch_cached(
                &FailBad,
                &BatchConfig::new(1),
                Some((&cache, CacheScope::TextQa)),
            );
            assert!(answers.is_err());
        });
        // The successful answer of the failing dispatch is cached ...
        assert_eq!(
            cache.get(
                CacheScope::TextQa,
                &PerceptionInput::Document("good".into()),
                "Q?"
            ),
            Some(Value::Int(1))
        );
        // ... the failed one is not.
        assert_eq!(
            cache.get(
                CacheScope::TextQa,
                &PerceptionInput::Document("bad".into()),
                "Q?"
            ),
            None
        );
    }

    #[test]
    fn image_requests_dedup_by_image_key() {
        let img = Arc::new(ImageObject::new("img/1.png").with_object("sword", 2));
        let mut batch = PerceptionBatch::new();
        for _ in 0..3 {
            batch.push_image(&img, "How many swords are depicted?");
        }
        assert_eq!(batch.unique_len(), 1);
    }

    #[test]
    fn modalities_never_share_dedup_slots() {
        // A document whose text equals an image key must not collide with
        // that image's request.
        let img = Arc::new(ImageObject::new("img/1.png"));
        let mut batch = PerceptionBatch::new();
        batch.push_document(&Arc::from("img/1.png"), "What is depicted?");
        batch.push_image(&img, "What is depicted?");
        assert_eq!(batch.unique_len(), 2);
    }

    #[test]
    fn new_image_questions_share_the_image_instead_of_copying_it() {
        let img = Arc::new(ImageObject::new("img/1.png").with_object("sword", 2));
        let questions = ["How many swords?", "Is a horse depicted?", "What style?"];
        let mut batch = PerceptionBatch::new();
        for question in questions {
            for _ in 0..3 {
                batch.push_image(&img, question);
            }
        }
        // One reference per unique request plus ours: no deep copies, and
        // the duplicate rows still dedup by image key.
        assert_eq!(Arc::strong_count(&img), 1 + questions.len());
        assert_eq!(batch.unique_len(), questions.len());
        assert_eq!(batch.len(), 3 * questions.len());
        drop(batch);
        assert_eq!(Arc::strong_count(&img), 1);
    }
}
