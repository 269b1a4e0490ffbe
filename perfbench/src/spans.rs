//! Spans recorded from outside the program: the benchmark times its own calls
//! into each layer's public functions and keeps every span in memory until
//! the run ends, when [`Tracer::write`] dumps them as JSON lines.
//!
//! [`TimedLlm`] is the LLM-layer boundary: a wrapper around the session's
//! [`LlmClient`] that forwards all five trait methods unchanged (so plan-cache
//! identity and cancellation behave exactly as without it) and records one
//! span per dispatch.

use crate::json::Json;
use caesura_llm::{CancelToken, Conversation, LlmClient, LlmResult};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. `query` is the benchmark operation the span belongs
/// to and `parent` the span that caused it (`None` for operation roots).
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub query: Option<u64>,
    pub parent: Option<u64>,
    pub attrs: Vec<(&'static str, f64)>,
}

struct InFlight {
    op: u64,
    span: u64,
    text: Arc<str>,
}

/// The in-memory span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// Whether spans are kept; off during set-up so warm-up dispatches stay
    /// out of the measured trace.
    active: AtomicBool,
    spans: Mutex<Vec<Span>>,
    in_flight: Mutex<Vec<InFlight>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            active: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            in_flight: Mutex::new(Vec::new()),
        })
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    pub fn record(&self, span: Span) {
        if !self.active.load(Ordering::SeqCst) {
            return;
        }
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Register an NL query as in flight, so LLM dispatches made while it runs
    /// can name it as their parent. Returns the query span's id.
    pub fn begin_query(&self, op: u64, text: &str) -> u64 {
        let span = self.next_id();
        self.in_flight
            .lock()
            .expect("in-flight registry poisoned")
            .push(InFlight {
                op,
                span,
                text: Arc::from(text),
            });
        span
    }

    pub fn end_query(&self, op: u64) {
        self.in_flight
            .lock()
            .expect("in-flight registry poisoned")
            .retain(|q| q.op != op);
    }

    /// The `(op, span)` of the query a dispatch belongs to: the only query in
    /// flight, or, with several, the one whose text the prompt quotes.
    fn owner(&self, conversation: Option<&Conversation>) -> Option<(u64, u64)> {
        let in_flight = self.in_flight.lock().expect("in-flight registry poisoned");
        if in_flight.len() == 1 {
            return Some((in_flight[0].op, in_flight[0].span));
        }
        let conversation = conversation?;
        in_flight
            .iter()
            .find(|q| {
                conversation
                    .messages()
                    .iter()
                    .any(|m| m.content.contains(&*q.text))
            })
            .map(|q| (q.op, q.span))
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Write every span as one JSON object per line, times in microseconds
    /// since the tracer was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Int(v as i64));
        for span in spans.iter() {
            let line = Json::obj([
                ("id", Json::Int(span.id as i64)),
                ("name", Json::str(span.name)),
                ("start_us", us(span.start).into()),
                ("end_us", us(span.end).into()),
                ("query", opt(span.query)),
                ("parent", opt(span.parent)),
                (
                    "attrs",
                    Json::obj(span.attrs.iter().map(|(k, v)| (*k, Json::Num(*v)))),
                ),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Counters of the dispatches a [`TimedLlm`] forwarded.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LlmTotals {
    /// Physical dispatches (one per method call).
    pub dispatches: usize,
    /// Conversations carried by those dispatches.
    pub conversations: usize,
    /// Wall clock inside the wrapped client, in nanoseconds.
    pub model_ns: u64,
}

/// The benchmark-owned timing wrapper around an [`LlmClient`].
pub struct TimedLlm<C> {
    inner: C,
    tracer: Arc<Tracer>,
    dispatches: AtomicUsize,
    conversations: AtomicUsize,
    model_ns: AtomicU64,
}

impl<C: LlmClient> TimedLlm<C> {
    pub fn new(inner: C, tracer: Arc<Tracer>) -> TimedLlm<C> {
        TimedLlm {
            inner,
            tracer,
            dispatches: AtomicUsize::new(0),
            conversations: AtomicUsize::new(0),
            model_ns: AtomicU64::new(0),
        }
    }

    pub fn totals(&self) -> LlmTotals {
        LlmTotals {
            dispatches: self.dispatches.load(Ordering::Relaxed),
            conversations: self.conversations.load(Ordering::Relaxed),
            model_ns: self.model_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<R>(
        &self,
        name: &'static str,
        conversations: &[&Conversation],
        call: impl FnOnce() -> R,
    ) -> R {
        if conversations.is_empty() {
            return call();
        }
        let owner = self.tracer.owner(conversations.first().copied());
        let start = Instant::now();
        let result = call();
        let end = Instant::now();
        let elapsed = end.duration_since(start);
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.conversations
            .fetch_add(conversations.len(), Ordering::Relaxed);
        self.model_ns.fetch_add(
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let tokens: usize = conversations.iter().map(|c| c.approx_tokens()).sum();
        self.tracer.record(Span {
            id: self.tracer.next_id(),
            name,
            start,
            end,
            query: owner.map(|(op, _)| op),
            parent: owner.map(|(_, span)| span),
            attrs: vec![
                ("conversations", conversations.len() as f64),
                ("prompt_tokens", tokens as f64),
            ],
        });
        result
    }
}

impl<C: LlmClient> LlmClient for TimedLlm<C> {
    fn complete(&self, conversation: &Conversation) -> LlmResult<String> {
        self.timed("llm.complete", &[conversation], || {
            self.inner.complete(conversation)
        })
    }

    fn complete_batch(&self, conversations: &[Conversation]) -> Vec<LlmResult<String>> {
        let refs: Vec<&Conversation> = conversations.iter().collect();
        self.timed("llm.complete_batch", &refs, || {
            self.inner.complete_batch(conversations)
        })
    }

    fn complete_cancellable(
        &self,
        conversation: &Conversation,
        cancel: &CancelToken,
    ) -> LlmResult<String> {
        self.timed("llm.complete_cancellable", &[conversation], || {
            self.inner.complete_cancellable(conversation, cancel)
        })
    }

    fn complete_batch_cancellable(
        &self,
        conversations: &[Conversation],
        cancel: &CancelToken,
    ) -> Vec<LlmResult<String>> {
        let refs: Vec<&Conversation> = conversations.iter().collect();
        self.timed("llm.complete_batch_cancellable", &refs, || {
            self.inner.complete_batch_cancellable(conversations, cancel)
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
