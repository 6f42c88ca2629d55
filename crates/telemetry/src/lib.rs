//! # eve-telemetry
//!
//! Std-only observability substrate for the EVE workspace: hierarchical
//! spans with monotonic timings, a process-wide metrics registry
//! (counters and log-scale latency histograms), and pluggable sinks.
//!
//! The build environment has no route to crates.io, so this crate is
//! vendored alongside the other workspace shims and depends on `std`
//! only.
//!
//! ## Model
//!
//! * A **pipeline** is installed process-wide with [`install`]: a set of
//!   [`Sink`]s plus a fresh metrics [`Registry`]. [`uninstall`] tears it
//!   down, flushes a final [`MetricsSnapshot`] to every sink, and
//!   returns the snapshot.
//! * A **span** ([`span`]/[`span_under`]) measures one phase. Spans
//!   nest: each thread keeps a stack of open spans and a new span is
//!   parented under the innermost open one. Cross-thread parenting is
//!   explicit — capture [`Span::ctx`] on the coordinating thread and
//!   open children with [`span_under`] on workers. On drop a span emits
//!   a [`SpanRecord`] to every sink and records its duration into the
//!   `span.<name>` histogram.
//! * **Metrics** are plain named counters ([`counter_add`]), last-set
//!   gauges ([`gauge_set`]), and power-of-two-bucket histograms
//!   ([`record_duration_ns`]).
//! * A **flight recorder** ([`flight_install`]) keeps a bounded ring
//!   of recent events per thread and merges them into a deterministic
//!   JSONL dump on demand or when the engine reports a failure (see
//!   [`flight_trigger`] and the module docs in `flight.rs`).
//! * **Exposition**: [`expo`] renders the registry as Prometheus text
//!   or a JSON snapshot, and [`serve`] puts both behind a hand-rolled
//!   HTTP/1.1 endpoint (`/metrics`, `/snapshot`, `/health`).
//!
//! ## Disabled fast path
//!
//! When no pipeline is installed, every entry point short-circuits on a
//! single relaxed atomic load: no locks, no allocation, no `Instant`
//! reads. [`span`] returns an inert guard whose drop is a no-op. This
//! keeps always-on instrumentation affordable in hot loops.
//!
//! ## Sinks
//!
//! [`Collector`] buffers records in memory (for tests and for the CLI's
//! `--trace` tree, rendered with [`render_tree`]). [`JsonlSink`] writes
//! one JSON object per line — spans while running, counters and
//! histogram summaries on [`uninstall`] — using the hand-rolled encoder
//! in [`json`] (no serde in the vendored workspace).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::Instant;

pub mod expo;
mod flight;
pub mod json;
pub mod serve;

pub use flight::{
    flight_dump, flight_enabled, flight_fault, flight_install, flight_last_dump, flight_stats,
    flight_trigger, flight_uninstall, FlightStats,
};

// ---------------------------------------------------------------------------
// Global pipeline state
// ---------------------------------------------------------------------------

/// The one-load fast path: `true` iff a pipeline is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    sinks: Vec<Arc<dyn Sink>>,
    registry: Registry,
}

fn state() -> &'static RwLock<Option<Arc<Inner>>> {
    static STATE: OnceLock<RwLock<Option<Arc<Inner>>>> = OnceLock::new();
    STATE.get_or_init(|| RwLock::new(None))
}

fn current_inner() -> Option<Arc<Inner>> {
    state().read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Is a telemetry pipeline installed? One relaxed atomic load; this is
/// the cost every disabled-path call site pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Error returned by [`install`] when a pipeline is already installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlreadyInstalled;

impl std::fmt::Display for AlreadyInstalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a telemetry pipeline is already installed")
    }
}

impl std::error::Error for AlreadyInstalled {}

/// Install a process-wide telemetry pipeline with the given sinks and a
/// fresh metrics registry, enabling all instrumentation.
///
/// Fails if a pipeline is already installed (telemetry state is global;
/// tests that install one should serialize on [`serial_guard`]).
pub fn install(sinks: Vec<Arc<dyn Sink>>) -> Result<(), AlreadyInstalled> {
    let mut guard = state().write().unwrap_or_else(|e| e.into_inner());
    if guard.is_some() {
        return Err(AlreadyInstalled);
    }
    *guard = Some(Arc::new(Inner {
        epoch: Instant::now(),
        next_span: AtomicU64::new(1),
        sinks,
        registry: Registry::default(),
    }));
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Tear down the installed pipeline, flush a final [`MetricsSnapshot`]
/// to every sink ([`Sink::metrics`]), and return the snapshot.
///
/// Returns `None` if no pipeline was installed. Spans still open when
/// the pipeline is uninstalled keep a handle to it and report to its
/// sinks when they close; they no longer show up in later snapshots.
pub fn uninstall() -> Option<MetricsSnapshot> {
    ENABLED.store(false, Ordering::SeqCst);
    let inner = state().write().unwrap_or_else(|e| e.into_inner()).take()?;
    let snapshot = inner.registry.snapshot();
    for sink in &inner.sinks {
        sink.metrics(&snapshot);
    }
    Some(snapshot)
}

/// Snapshot the metrics registry of the installed pipeline without
/// tearing it down. `None` if no pipeline is installed.
pub fn metrics_snapshot() -> Option<MetricsSnapshot> {
    current_inner().map(|inner| inner.registry.snapshot())
}

/// Serialize tests (or tools) that install the global pipeline: hold
/// the returned guard around `install`..`uninstall`. Poisoning is
/// ignored so one panicking test does not wedge the rest.
pub fn serial_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    /// Stack of open span ids on this thread (innermost last).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Small dense per-thread ordinal, assigned on first use; stabler to
/// read in traces than `std::thread::ThreadId`.
fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(u64::MAX) };
    }
    ORDINAL.with(|slot| {
        if slot.get() == u64::MAX {
            slot.set(NEXT.fetch_add(1, Ordering::SeqCst));
        }
        slot.get()
    })
}

/// A handle to an open span, for explicit cross-thread parenting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    id: Option<u64>,
}

impl SpanCtx {
    /// A context with no parent; children open as roots.
    pub const fn root() -> SpanCtx {
        SpanCtx { id: None }
    }
}

/// The innermost span open on the current thread (inert when disabled).
pub fn current() -> SpanCtx {
    if !enabled() {
        return SpanCtx::root();
    }
    SpanCtx {
        id: SPAN_STACK.with(|s| s.borrow().last().copied()),
    }
}

/// A finished span as reported to sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique id (monotone from 1 per installed pipeline).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Static phase name, e.g. `"apply"` or `"view-sync"`.
    pub name: &'static str,
    /// Optional dynamic label (view name, change description, ...).
    pub label: Option<String>,
    /// Start time in microseconds since the pipeline was installed.
    pub start_us: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Dense ordinal of the thread the span closed on.
    pub thread: u64,
    /// Numeric attachments, e.g. `("worker", 3)`.
    pub fields: Vec<(&'static str, u64)>,
}

struct ActiveSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: Option<String>,
    fields: Vec<(&'static str, u64)>,
    start: Instant,
    start_us: u64,
}

/// RAII span guard. Inert (all methods no-ops, drop free) when the
/// pipeline is disabled. Close explicitly by dropping.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span(Option<Box<ActiveSpan>>);

/// Open a span named `name` under the innermost span open on this
/// thread (or as a root).
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    open_span(name, parent)
}

/// Open a span with an explicit parent context — the cross-thread form
/// used by fan-out workers.
pub fn span_under(name: &'static str, parent: SpanCtx) -> Span {
    if !enabled() {
        return Span(None);
    }
    open_span(name, parent.id)
}

fn open_span(name: &'static str, parent: Option<u64>) -> Span {
    let Some(inner) = current_inner() else {
        return Span(None);
    };
    let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let start_us = start.duration_since(inner.epoch).as_micros() as u64;
    SPAN_STACK.with(|s| s.borrow_mut().push(id));
    flight::note_span_open(name);
    Span(Some(Box::new(ActiveSpan {
        inner,
        id,
        parent,
        name,
        label: None,
        fields: Vec::new(),
        start,
        start_us,
    })))
}

impl Span {
    /// Attach a dynamic label; the closure runs only when recording.
    pub fn label(&mut self, f: impl FnOnce() -> String) {
        if let Some(a) = &mut self.0 {
            a.label = Some(f());
        }
    }

    /// Attach a numeric field.
    pub fn field(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.0 {
            a.fields.push((key, value));
        }
    }

    /// Is this span actually recording (pipeline enabled at open time)?
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Context for parenting children of this span on other threads.
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx {
            id: self.0.as_ref().map(|a| a.id),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else {
            return;
        };
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&id| id == a.id) {
                stack.remove(pos);
            }
        });
        let record = SpanRecord {
            id: a.id,
            parent: a.parent,
            name: a.name,
            label: a.label,
            start_us: a.start_us,
            dur_ns,
            thread: thread_ordinal(),
            fields: a.fields,
        };
        a.inner
            .registry
            .histogram(&format!("span.{}", a.name))
            .record(dur_ns);
        flight::note_span_close(record.name, &record.label, &record.fields, dur_ns);
        for sink in &a.inner.sinks {
            sink.span(&record);
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Process-wide named counters, gauges, and histograms. One registry
/// lives for the duration of an installed pipeline.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    fn counter(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return c.clone();
        }
        self.counters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(g) = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return g.clone();
        }
        self.gauges
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return h.clone();
        }
        self.histograms
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counter_values(),
            gauges: self.gauge_values(),
            histograms: self
                .histograms
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .map(|(name, h)| (name.clone(), h.summary()))
                .collect(),
        }
    }

    pub(crate) fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn gauge_values(&self) -> Vec<(String, u64)> {
        self.gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, g)| (name.clone(), g.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn histogram_handles(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect()
    }
}

/// Add `n` to the named counter of the installed pipeline (no-op when
/// disabled).
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    if let Some(inner) = current_inner() {
        inner.registry.counter(name).fetch_add(n, Ordering::Relaxed);
        flight::note_counter(name, n);
    }
}

/// Set the named gauge to `value` (no-op when disabled). Gauges are
/// last-write-wins point-in-time levels (e.g. `sync.views_active`),
/// unlike counters which only accumulate.
pub fn gauge_set(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    if let Some(inner) = current_inner() {
        inner.registry.gauge(name).store(value, Ordering::Relaxed);
    }
}

/// Record a nanosecond duration into the named histogram (no-op when
/// disabled).
pub fn record_duration_ns(name: &str, ns: u64) {
    if !enabled() {
        return;
    }
    if let Some(inner) = current_inner() {
        inner.registry.histogram(name).record(ns);
    }
}

/// Start a wall-clock timer iff the pipeline is enabled; pair with
/// [`stop_timer`]. The disabled path never reads the clock.
#[inline]
pub fn start_timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Record the elapsed time of a [`start_timer`] into the named
/// histogram (no-op if the timer was never started).
pub fn stop_timer(name: &str, timer: Option<Instant>) {
    if let Some(t) = timer {
        record_duration_ns(name, t.elapsed().as_nanos() as u64);
    }
}

/// Linear sub-buckets per power of two.
const SUB_BUCKETS: u64 = 8;

/// Fine buckets: the values below [`SUB_BUCKETS`] one each, then
/// [`SUB_BUCKETS`] per power of two up to `2^64`.
const FINE_BUCKETS: usize = 8 + 61 * 8;

/// The fine bucket of `ns`: `ns` itself below 8; above, the power of two
/// `2^e <= ns` and the three bits after the leading one, so a bucket
/// spans `2^(e-3)` values from a lower bound of at least `8 * 2^(e-3)`.
fn fine_bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let e = u64::BITS - 1 - ns.leading_zeros();
    let sub = (ns >> (e - 3)) & (SUB_BUCKETS - 1);
    (8 + (e - 3) as u64 * SUB_BUCKETS + sub) as usize
}

/// Inclusive upper bound of fine bucket `i`.
fn fine_bound(i: usize) -> u64 {
    if i < SUB_BUCKETS as usize {
        return i as u64;
    }
    let (e, sub) = ((i - 8) as u32 / 8 + 3, (i - 8) as u64 % SUB_BUCKETS);
    ((SUB_BUCKETS + sub + 1) << (e - 3)).wrapping_sub(1)
}

/// The power-of-two bucket a fine bucket lies in (see [`bucket_bound`]).
fn coarse_bucket(i: usize) -> usize {
    match i {
        0 => 0,
        1..=7 => (u64::BITS - (i as u64).leading_zeros()) as usize,
        _ => (i - 8) / 8 + 4,
    }
}

/// Fixed-shape latency histogram: bucket `i < 8` holds the value `i`,
/// and every power of two `[2^e, 2^(e+1))` above is split into eight
/// equal sub-buckets (HdrHistogram style). Recording is three relaxed
/// atomic RMWs plus a `fetch_max`; a quantile is read back as its
/// sub-bucket's upper bound, clamped to the largest observation, so it
/// lies at most 12.5% above the exact value. The Prometheus exposition
/// sums the sub-buckets back into power-of-two buckets.
pub struct Histogram {
    buckets: [AtomicU64; FINE_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one nanosecond observation.
    pub fn record(&self, ns: u64) {
        self.buckets[fine_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Counts per power-of-two bucket (bucket 0 holds zeros, bucket
    /// `i >= 1` values in `[2^(i-1), 2^i)`), for cumulative exposition.
    pub(crate) fn bucket_counts(&self) -> [u64; 65] {
        let mut counts = [0; 65];
        for (i, b) in self.buckets.iter().enumerate() {
            counts[coarse_bucket(i)] += b.load(Ordering::Relaxed);
        }
        counts
    }

    /// Running sum of all observations, in nanoseconds.
    pub(crate) fn sum_ns(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Summarise current contents (racy reads are fine: each cell is
    /// individually consistent).
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let max_ns = self.max.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            p50_ns: quantile(&counts, count, 0.50).min(max_ns),
            p95_ns: quantile(&counts, count, 0.95).min(max_ns),
            max_ns,
        }
    }
}

/// Inclusive upper bound of power-of-two histogram bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// The upper bound of the fine bucket holding the nearest-rank
/// quantile `q`.
fn quantile(counts: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= target {
            return fine_bound(i);
        }
    }
    fine_bound(counts.len() - 1)
}

/// Point-in-time read-out of a [`Histogram`]. A quantile is the upper
/// bound of the sub-bucket holding the nearest-rank quantile, clamped
/// to `max_ns`, so it lies within the observed range and `p50_ns` reads
/// "p50 ≤ this many ns", at most 12.5% above the exact value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum_ns: u64,
    /// Upper bound of the sub-bucket containing the median, at most
    /// `max_ns`.
    pub p50_ns: u64,
    /// Upper bound of the sub-bucket containing the 95th percentile, at
    /// most `max_ns`.
    pub p95_ns: u64,
    /// Largest observation seen.
    pub max_ns: u64,
}

/// Sorted name/value pairs from a [`Registry`] at one point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// All gauges (last-set values), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// All histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Value of the named counter, if it was ever touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of the named gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Summary of the named histogram, if it was ever touched.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for telemetry. Span records arrive as spans close (from
/// any thread); the final metrics snapshot arrives on [`uninstall`].
pub trait Sink: Send + Sync {
    /// A span closed.
    fn span(&self, record: &SpanRecord);

    /// The pipeline is being uninstalled; `snapshot` is the final state
    /// of the metrics registry.
    fn metrics(&self, _snapshot: &MetricsSnapshot) {}
}

/// In-memory sink for tests and for rendering the `--trace` tree.
#[derive(Default)]
pub struct Collector {
    spans: Mutex<Vec<SpanRecord>>,
}

impl Collector {
    /// New empty collector, ready to pass to [`install`].
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector::default())
    }

    /// Copy of every span record collected so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Sink for Collector {
    fn span(&self, record: &SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record.clone());
    }
}

/// Sink that writes one JSON object per line: `{"type":"span",...}`
/// while running, then `{"type":"counter",...}`, `{"type":"gauge",...}`
/// and `{"type":"histogram",...}` lines when the pipeline is
/// uninstalled.
///
/// Output is buffered ([`JsonlSink::create`] wraps the file in a
/// `BufWriter`) and flushed when the sink drops. Write failures are
/// *surfaced*, not swallowed: the first I/O error is retained (check
/// it with [`JsonlSink::take_error`]), later events are skipped rather
/// than written into a broken stream, and an error nobody collected is
/// reported on stderr from `drop`.
pub struct JsonlSink {
    out: Mutex<JsonlState>,
}

struct JsonlState {
    out: Box<dyn std::io::Write + Send>,
    error: Option<std::io::Error>,
}

impl JsonlState {
    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.flush() {
            self.error = Some(e);
        }
    }
}

impl JsonlSink {
    /// Create (truncate) `path` and write JSON lines to it, buffered.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::from_writer(Box::new(std::io::BufWriter::new(
            file,
        ))))
    }

    /// Wrap an arbitrary writer (used by tests to capture in memory).
    pub fn from_writer(out: Box<dyn std::io::Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(JsonlState { out, error: None }),
        }
    }

    /// The first write or flush error this sink hit, if any. Taking it
    /// marks the error as handled, so `drop` stays quiet.
    pub fn take_error(&self) -> Option<std::io::Error> {
        self.out
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .error
            .take()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let state = self.out.get_mut().unwrap_or_else(|e| e.into_inner());
        if state.error.is_none() {
            if let Err(e) = state.out.flush() {
                state.error = Some(e);
            }
        }
        if let Some(e) = &state.error {
            eprintln!("eve-telemetry: JSONL sink lost events: {e}");
        }
    }
}

impl Sink for JsonlSink {
    fn span(&self, r: &SpanRecord) {
        let mut line = String::with_capacity(128);
        line.push_str(&format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":",
            json::escape(r.name),
            r.id
        ));
        match r.parent {
            Some(p) => line.push_str(&p.to_string()),
            None => line.push_str("null"),
        }
        if let Some(label) = &r.label {
            line.push_str(&format!(",\"label\":\"{}\"", json::escape(label)));
        }
        line.push_str(&format!(
            ",\"thread\":{},\"start_us\":{},\"dur_ns\":{},\"fields\":{{",
            r.thread, r.start_us, r.dur_ns
        ));
        for (i, (k, v)) in r.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("\"{}\":{}", json::escape(k), v));
        }
        line.push_str("}}");
        let mut state = self.out.lock().unwrap_or_else(|e| e.into_inner());
        state.write_line(&line);
    }

    fn metrics(&self, snapshot: &MetricsSnapshot) {
        let mut state = self.out.lock().unwrap_or_else(|e| e.into_inner());
        for (name, value) in &snapshot.counters {
            state.write_line(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                json::escape(name)
            ));
        }
        for (name, value) in &snapshot.gauges {
            state.write_line(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value}}}",
                json::escape(name)
            ));
        }
        for (name, h) in &snapshot.histograms {
            state.write_line(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum_ns\":{},\
                 \"p50_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
                json::escape(name),
                h.count,
                h.sum_ns,
                h.p50_ns,
                h.p95_ns,
                h.max_ns
            ));
        }
        state.flush();
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Human format for a nanosecond duration (`842ns`, `3.1us`, `2.04ms`,
/// `1.50s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Render collected spans as an indented tree, one line per span:
/// name, optional label, `key=value` fields, then the duration in a
/// right-aligned column. Siblings sort by start time (ties by id), so
/// the layout is deterministic for a sequential run.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.parent {
            Some(p) if known.contains(&p) => children.entry(p).or_default().push(s),
            _ => roots.push(s),
        }
    }
    let by_start = |a: &&SpanRecord, b: &&SpanRecord| (a.start_us, a.id).cmp(&(b.start_us, b.id));
    roots.sort_by(by_start);
    for list in children.values_mut() {
        list.sort_by(by_start);
    }
    let mut out = String::new();
    fn emit(
        out: &mut String,
        s: &SpanRecord,
        depth: usize,
        children: &BTreeMap<u64, Vec<&SpanRecord>>,
    ) {
        let mut left = "  ".repeat(depth);
        left.push_str(s.name);
        if let Some(label) = &s.label {
            left.push(' ');
            left.push_str(label);
        }
        for (k, v) in &s.fields {
            left.push_str(&format!(" {k}={v}"));
        }
        out.push_str(&format!("{left:<56} {:>9}\n", fmt_ns(s.dur_ns)));
        for child in children.get(&s.id).into_iter().flatten() {
            emit(out, child, depth + 1, children);
        }
    }
    for root in roots {
        emit(&mut out, root, 0, &children);
    }
    out
}

/// Render a metrics snapshot as aligned text: counters first, then
/// histogram summaries.
pub fn render_metrics(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if !snapshot.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, value) in &snapshot.counters {
            out.push_str(&format!("  {name:<40} {value}\n"));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in &snapshot.gauges {
            out.push_str(&format!("  {name:<40} {value}\n"));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snapshot.histograms {
            out.push_str(&format!(
                "  {name:<40} count={} sum={} p50<={} p95<={} max={}\n",
                h.count,
                fmt_ns(h.sum_ns),
                fmt_ns(h.p50_ns),
                fmt_ns(h.p95_ns),
                fmt_ns(h.max_ns)
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_path_is_inert() {
        let _serial = serial_guard();
        assert!(!enabled());
        let mut s = span("nothing");
        s.label(|| panic!("label closure must not run when disabled"));
        s.field("k", 1);
        assert!(!s.is_recording());
        assert_eq!(s.ctx(), SpanCtx::root());
        drop(s);
        counter_add("nope", 7);
        record_duration_ns("nope", 7);
        assert!(metrics_snapshot().is_none());
        assert!(uninstall().is_none());
    }

    #[test]
    fn spans_nest_on_one_thread_and_across_threads() {
        let _serial = serial_guard();
        let collector = Collector::new();
        install(vec![collector.clone()]).unwrap();
        {
            let outer = span("outer");
            let ctx = outer.ctx();
            {
                let mut inner = span("inner");
                inner.field("n", 3);
                drop(inner);
            }
            let handle = std::thread::spawn(move || {
                let mut worker = span_under("worker", ctx);
                worker.label(|| "w0".to_string());
                drop(worker);
            });
            handle.join().unwrap();
            drop(outer);
        }
        let snap = uninstall().unwrap();
        let spans = collector.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(worker.parent, Some(outer.id));
        assert_eq!(inner.fields, vec![("n", 3)]);
        assert_eq!(worker.label.as_deref(), Some("w0"));
        // every span feeds its span.<name> histogram
        for name in ["span.outer", "span.inner", "span.worker"] {
            assert_eq!(snap.histogram(name).unwrap().count, 1, "{name}");
        }
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let _serial = serial_guard();
        install(vec![]).unwrap();
        counter_add("c", 2);
        counter_add("c", 3);
        record_duration_ns("h", 0);
        record_duration_ns("h", 1);
        record_duration_ns("h", 1024);
        let snap = uninstall().unwrap();
        assert_eq!(snap.counter("c"), Some(5));
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_ns, 1025);
        assert_eq!(h.max_ns, 1024);
        assert_eq!(h.p50_ns, 1); // bucket [1,1]
        assert_eq!(h.p95_ns, 1024); // bucket [1024,2047], clamped to max
    }

    #[test]
    fn fine_buckets_nest_in_powers_of_two() {
        for ns in (0..4096).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX, 1 << 63]) {
            let i = fine_bucket(ns);
            assert!(ns <= fine_bound(i), "{ns} above its bucket's bound");
            assert!(i == 0 || ns > fine_bound(i - 1), "{ns} below its bucket");
            let coarse = coarse_bucket(i);
            assert!(ns <= bucket_bound(coarse) && (coarse == 0 || ns > bucket_bound(coarse - 1)));
        }
        assert_eq!(fine_bucket(u64::MAX), FINE_BUCKETS - 1);
        assert_eq!(fine_bound(FINE_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_bucket_bounds() {
        let h = Histogram::new();
        for ns in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(ns);
        }
        let s = h.summary();
        assert_eq!(s.count, 8);
        assert_eq!(s.max_ns, u64::MAX);
        assert_eq!(quantile(&[1, 0, 0], 1, 0.5), 0);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn double_install_fails() {
        let _serial = serial_guard();
        install(vec![]).unwrap();
        assert_eq!(install(vec![]), Err(AlreadyInstalled));
        uninstall().unwrap();
    }

    #[test]
    fn jsonl_sink_emits_valid_json_lines() {
        let _serial = serial_guard();
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        install(vec![Arc::new(JsonlSink::from_writer(Box::new(
            buf.clone(),
        )))])
        .unwrap();
        {
            let mut s = span("apply");
            s.label(|| "delete-relation \"R\"\n".to_string());
            s.field("affected", 2);
        }
        counter_add("index.cache.hits", 4);
        record_duration_ns("service.read_wait_ns", 55);
        uninstall().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 4, "span + counter + 2 histograms: {text}");
        for line in &lines {
            json::validate(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
            assert!(line.contains("\"type\""), "{line}");
            assert!(line.contains("\"name\""), "{line}");
        }
        assert!(text.contains("\"type\":\"span\""));
        assert!(text.contains("\"type\":\"counter\""));
        assert!(text.contains("\"type\":\"histogram\""));
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let _serial = serial_guard();
        install(vec![]).unwrap();
        gauge_set("g", 5);
        gauge_set("g", 2);
        assert_eq!(metrics_snapshot().unwrap().gauge("g"), Some(2));
        let snap = uninstall().unwrap();
        assert_eq!(snap.gauge("g"), Some(2));
        assert_eq!(snap.gauge("missing"), None);
        let text = render_metrics(&snap);
        assert!(text.contains("gauges:\n"), "{text}");
        assert!(text.contains("  g"), "{text}");
    }

    #[test]
    fn jsonl_sink_emits_gauge_lines() {
        let _serial = serial_guard();
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        install(vec![Arc::new(JsonlSink::from_writer(Box::new(
            buf.clone(),
        )))])
        .unwrap();
        gauge_set("sync.views_active", 3);
        uninstall().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.contains("{\"type\":\"gauge\",\"name\":\"sync.views_active\",\"value\":3}"),
            "{text}"
        );
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors() {
        #[derive(Clone, Default)]
        struct Failing(Arc<std::sync::atomic::AtomicUsize>);
        impl std::io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let attempts = Failing::default();
        let sink = JsonlSink::from_writer(Box::new(attempts.clone()));
        let record = SpanRecord {
            id: 1,
            parent: None,
            name: "s",
            label: None,
            start_us: 0,
            dur_ns: 1,
            thread: 0,
            fields: vec![],
        };
        sink.span(&record); // first write fails and is captured
        let after_first = attempts.0.load(Ordering::SeqCst);
        assert!(after_first >= 1);
        sink.span(&record); // later events are skipped, not retried
        assert_eq!(attempts.0.load(Ordering::SeqCst), after_first);
        let err = sink.take_error().expect("error surfaced");
        assert_eq!(err.to_string(), "disk full");
        assert!(sink.take_error().is_none(), "error is handed over once");
    }

    #[test]
    fn render_tree_is_indented_and_sorted() {
        let spans = vec![
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "child-b",
                label: None,
                start_us: 20,
                dur_ns: 1_500,
                thread: 0,
                fields: vec![],
            },
            SpanRecord {
                id: 3,
                parent: Some(1),
                name: "child-a",
                label: Some("first".into()),
                start_us: 10,
                dur_ns: 2_000_000,
                thread: 0,
                fields: vec![("k", 7)],
            },
            SpanRecord {
                id: 1,
                parent: None,
                name: "root",
                label: None,
                start_us: 0,
                dur_ns: 5_000_000_000,
                thread: 0,
                fields: vec![],
            },
        ];
        let tree = render_tree(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("root"));
        assert!(lines[1].starts_with("  child-a first k=7"));
        assert!(lines[2].starts_with("  child-b"));
        assert!(lines[0].contains("5.00s"));
        assert!(lines[1].contains("2.00ms"));
        assert!(lines[2].contains("1.5us"));
    }

    #[test]
    fn orphan_spans_render_as_roots() {
        let spans = vec![SpanRecord {
            id: 9,
            parent: Some(1234),
            name: "lost",
            label: None,
            start_us: 0,
            dur_ns: 10,
            thread: 0,
            fields: vec![],
        }];
        assert!(render_tree(&spans).starts_with("lost"));
    }
}
