//! Wall-clock spans recorded from outside the engine, and a passive
//! `TextService` wrapper that records one span per text-service call.
//!
//! A span has a name, a start and an end (nanoseconds since the log was
//! opened), the span that was open when it began, and the id of the query
//! it belongs to. Spans stay in memory until the run ends; [`self_times`]
//! reduces them to per-name self time: a span's duration minus
//! the part of it its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use textjoin_obs::Recorder;
use textjoin_text::batch::BatchResult;
use textjoin_text::doc::{DocId, Document, ShortDoc, TextSchema};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::{
    CostConstants, PartialRetrieveError, SearchResult, TextError, TextServer, Usage,
};
use textjoin_text::service::TextService;
use textjoin_text::stats::VocabularyStats;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name, e.g. `export_stats` or `text.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the log was opened.
    pub start_ns: u64,
    /// End, nanoseconds since the log was opened.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The query the span belongs to (0 for set-up).
    pub query: u64,
}

/// An in-memory span log for one thread.
pub struct SpanLog {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    query: Cell<u64>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            query: Cell::new(0),
        }
    }

    /// Sets the query id stamped on spans opened from now on.
    pub fn set_query(&self, id: u64) {
        self.query.set(id);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that closes when the guard drops.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            query: self.query.get(),
        });
        self.open.borrow_mut().push(idx);
        SpanGuard { log: self, idx }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name);
        f()
    }

    /// A copy of every closed span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Per-name `(self nanoseconds, span count)` over the spans of queries
    /// numbered `first_query` and later.
    pub fn self_times_from(&self, first_query: u64) -> BTreeMap<&'static str, (u64, u64)> {
        self_times(&self.spans.borrow(), first_query)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        f.flush()
    }
}

/// Per-name `(self nanoseconds, span count)` over the spans of queries
/// numbered `first_query` and later: each span's duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span], first_query: u64) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        if s.query < first_query {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
        e.1 += 1;
    }
    out
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    log: &'a SpanLog,
    idx: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.log.now_ns();
        self.log.spans.borrow_mut()[self.idx].end_ns = end;
        let mut open = self.log.open.borrow_mut();
        debug_assert_eq!(open.last(), Some(&self.idx), "spans close in LIFO order");
        open.pop();
    }
}

/// Opens a span when a log is attached; does nothing otherwise.
pub fn span<'a>(log: Option<&'a SpanLog>, name: &'static str) -> Option<SpanGuard<'a>> {
    log.map(|l| l.enter(name))
}

/// A `TextService` that forwards every call to one [`TextServer`] and
/// records a span around each metered or data-returning call. It charges
/// nothing itself, so the executor takes the same path and books the same
/// ledger as on the bare server.
///
/// It wraps a single server only: the executor picks its sharded
/// scatter/gather path through `as_sharded()`, and a wrapper over a sharded
/// server would hide that and send it down the single-server path.
pub struct TimedText<'a> {
    inner: &'a TextServer,
    log: &'a SpanLog,
}

impl<'a> TimedText<'a> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: &'a TextServer, log: &'a SpanLog) -> Self {
        TimedText { inner, log }
    }
}

impl TextService for TimedText<'_> {
    fn schema(&self) -> &TextSchema {
        TextService::schema(self.inner)
    }

    fn doc_count(&self) -> usize {
        TextService::doc_count(self.inner)
    }

    fn max_terms(&self) -> usize {
        TextService::max_terms(self.inner)
    }

    fn constants(&self) -> CostConstants {
        TextService::constants(self.inner)
    }

    fn usage(&self) -> Usage {
        TextService::usage(self.inner)
    }

    fn reset_usage(&self) {
        TextService::reset_usage(self.inner)
    }

    fn charge_backoff(&self, seconds: f64) {
        TextService::charge_backoff(self.inner, seconds)
    }

    fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        self.log
            .time("text.search", || TextService::search(self.inner, expr))
    }

    fn search_str(&self, query: &str) -> Result<SearchResult, TextError> {
        self.log
            .time("text.search", || TextService::search_str(self.inner, query))
    }

    fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        self.log
            .time("text.probe", || TextService::probe(self.inner, expr))
    }

    fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        self.log
            .time("text.retrieve", || TextService::retrieve(self.inner, id))
    }

    fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
        self.log.time("text.retrieve", || {
            TextService::retrieve_all(self.inner, ids)
        })
    }

    fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        self.log.time("text.batch", || {
            TextService::search_batch(self.inner, exprs)
        })
    }

    fn export_stats(&self) -> VocabularyStats {
        self.log
            .time("export_stats", || TextService::export_stats(self.inner))
    }

    fn reconstruct_short(&self, id: DocId) -> Option<ShortDoc> {
        self.log.time("text.retrieve", || {
            TextService::reconstruct_short(self.inner, id)
        })
    }

    fn recorder(&self) -> Option<Rc<Recorder>> {
        TextService::recorder(self.inner)
    }

    fn topology_epoch(&self) -> u64 {
        TextService::topology_epoch(self.inner)
    }
}
