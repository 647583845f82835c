//! End-to-end tracing and the unified metrics registry.
//!
//! One [`Telemetry`] instance per engine owns everything observability:
//! the trace-id counter, the sharded [`TraceRing`]s retaining recent
//! span trees, the per-op latency *decomposition* (queue vs parse vs
//! compute vs fsync vs flush), the slow-request log, the Chrome
//! trace-event stream (`serve --trace-dir DIR`), and the metrics
//! registry behind the `metrics` wire op.
//!
//! # How a request is traced
//!
//! The worker that claims a request asks [`Telemetry::start_trace`] for
//! a [`TraceBuilder`] (or `None` when tracing is off — the only cost a
//! disabled pipeline pays is that one atomic load per request). The
//! builder is driven through the root phases `queue_wait → parse →
//! engine → reply_flush` and *installed in thread-local storage* while
//! the engine runs, so every layer below — plan cache, WAL, fsync, the
//! assurance kernels via [`TlsTracer`] — records child spans without a
//! single signature carrying a tracer argument. The builder then rides
//! the reply path (so `reply_flush` covers the actual socket write) and
//! is handed to [`Telemetry::finish`], which freezes the tree, feeds
//! the decomposition, checks the slow log, streams the Chrome events,
//! and publishes the trace into a ring as one `Arc` swap.
//!
//! Because the root phases are measured back-to-back on shared clock
//! reads, the sum of a trace's root-phase durations equals its
//! end-to-end total up to a few nanoseconds of instrumentation skew —
//! the reconciliation invariant the integration tests pin at ±5%.

use crate::lock_unpoisoned;
use crate::stats::Histogram;
use crate::trace::{Trace, TraceBuilder, TraceRing};
use serde::Value;
use std::cell::{Cell, RefCell};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ring shards — finishing threads are spread round-robin across the
/// shards so concurrent publications rarely touch the same ring.
const RING_SHARDS: usize = 8;

/// Traces retained per shard ([`RING_SHARDS`] × this in total).
const RING_CAP: usize = 32;

/// Most traces one `trace` request may return.
pub const MAX_TRACE_LIMIT: usize = RING_SHARDS * RING_CAP;

/// Default trace count for a `trace` request that omits `limit`.
pub const DEFAULT_TRACE_LIMIT: usize = 8;

/// Chrome trace files rotate once they pass this size.
const ROTATE_BYTES: u64 = 32 << 20;

thread_local! {
    /// The trace being built for the request this thread is handling.
    static CURRENT: RefCell<Option<Box<TraceBuilder>>> = const { RefCell::new(None) };
    /// This thread's ring shard (assigned round-robin on first finish).
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Installs `tb` as this thread's active trace; engine-internal spans
/// recorded via [`with_span`]/[`phase_event`] land in it until
/// [`take_current`] removes it.
pub fn install(tb: Box<TraceBuilder>) {
    CURRENT.with(|c| *c.borrow_mut() = Some(tb));
}

/// Removes and returns this thread's active trace, if any.
pub fn take_current() -> Option<Box<TraceBuilder>> {
    CURRENT.with(|c| c.borrow_mut().take())
}

/// Runs `f` inside a span named `name` on the active trace; with no
/// active trace this is `f()` plus one thread-local read.
pub fn with_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let active = CURRENT.with(|c| c.borrow_mut().as_mut().map(|tb| tb.begin(name)).is_some());
    let out = f();
    if active {
        CURRENT.with(|c| {
            if let Some(tb) = c.borrow_mut().as_mut() {
                tb.end();
            }
        });
    }
    out
}

/// Records an already-measured phase ending now on the active trace
/// (no-op without one) — how the WAL reports `wal_append`/`fsync` and
/// how [`TlsTracer`] lands kernel phases.
pub fn phase_event(name: &'static str, elapsed: Duration) {
    CURRENT.with(|c| {
        if let Some(tb) = c.borrow_mut().as_mut() {
            tb.event_ns(name, elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
    });
}

/// Records a named count on the active trace (no-op without one).
pub fn count_event(name: &'static str, n: u64) {
    CURRENT.with(|c| {
        if let Some(tb) = c.borrow_mut().as_mut() {
            tb.count(name, n);
        }
    });
}

/// The assurance-crate [`Tracer`](depcase::assurance::trace::Tracer)
/// writing kernel phase reports into the thread-local active trace.
/// With tracing disabled no trace is installed, so each hook costs one
/// thread-local read and a branch.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlsTracer;

impl depcase::assurance::trace::Tracer for TlsTracer {
    fn phase(&self, name: &'static str, elapsed: Duration) {
        phase_event(name, elapsed);
    }
    fn count(&self, name: &'static str, n: u64) {
        count_event(name, n);
    }
}

/// Aggregate of one phase (or one op's end-to-end total): count, exact
/// nanosecond sum, and a log2-µs histogram for quantiles.
#[derive(Debug, Clone, Default)]
struct PhaseAgg {
    count: u64,
    sum_ns: u64,
    hist: Histogram,
}

impl PhaseAgg {
    fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.hist.record(ns / 1_000);
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum_us".to_string(), Value::F64(self.sum_ns as f64 / 1_000.0)),
            ("p50_us".to_string(), Value::F64(self.hist.quantile_interpolated_us(0.50))),
            ("p90_us".to_string(), Value::F64(self.hist.quantile_interpolated_us(0.90))),
            ("p99_us".to_string(), Value::F64(self.hist.quantile_interpolated_us(0.99))),
            ("p999_us".to_string(), Value::F64(self.hist.quantile_interpolated_us(0.999))),
        ])
    }
}

/// Per-op latency decomposition: the end-to-end total and one
/// [`PhaseAgg`] per span name observed for that op.
#[derive(Debug, Default)]
struct OpDecomp {
    total: PhaseAgg,
    /// Nanoseconds summed over *root* phases only — the side of the
    /// reconciliation invariant the totals are checked against.
    root_sum_ns: u64,
    phases: Vec<(&'static str, PhaseAgg)>,
}

#[derive(Debug, Default)]
struct Decomp {
    ops: Vec<(&'static str, OpDecomp)>,
    traces_recorded: u64,
    slow_logged: u64,
}

impl Decomp {
    fn op_mut(&mut self, op: &'static str) -> &mut OpDecomp {
        if let Some(i) = self.ops.iter().position(|(o, _)| *o == op) {
            return &mut self.ops[i].1;
        }
        self.ops.push((op, OpDecomp::default()));
        &mut self.ops.last_mut().expect("just pushed").1
    }

    fn observe(&mut self, trace: &Trace) {
        self.traces_recorded += 1;
        let entry = self.op_mut(trace.op);
        entry.total.record_ns(trace.total_ns);
        entry.root_sum_ns = entry.root_sum_ns.saturating_add(trace.root_phase_sum_ns());
        for span in &trace.spans {
            let agg = if let Some(i) = entry.phases.iter().position(|(n, _)| *n == span.name) {
                &mut entry.phases[i].1
            } else {
                entry.phases.push((span.name, PhaseAgg::default()));
                &mut entry.phases.last_mut().expect("just pushed").1
            };
            agg.record_ns(span.dur_ns);
        }
    }

    fn to_value(&self) -> Value {
        let ops = self
            .ops
            .iter()
            .map(|(op, d)| {
                let phases = d
                    .phases
                    .iter()
                    .map(|(name, agg)| ((*name).to_string(), agg.to_value()))
                    .collect();
                (
                    (*op).to_string(),
                    Value::Object(vec![
                        ("total".to_string(), d.total.to_value()),
                        (
                            "root_phase_sum_us".to_string(),
                            Value::F64(d.root_sum_ns as f64 / 1_000.0),
                        ),
                        ("phases".to_string(), Value::Object(phases)),
                    ]),
                )
            })
            .collect();
        Value::Object(ops)
    }
}

/// Streams completed traces as Chrome trace-event JSON (the
/// `traceEvents` array form both `chrome://tracing` and Perfetto
/// load). The file is re-terminated with `]` after every trace by
/// seeking back over the previous terminator, so it parses as valid
/// JSON at *any* moment, crash included. Files rotate at
/// [`ROTATE_BYTES`].
#[derive(Debug)]
struct ChromeWriter {
    dir: PathBuf,
    file: File,
    seq: u64,
    bytes: u64,
    wrote_any: bool,
}

impl ChromeWriter {
    fn open(dir: PathBuf) -> io::Result<ChromeWriter> {
        std::fs::create_dir_all(&dir)?;
        let (file, seq) = Self::next_file(&dir, 0)?;
        Ok(ChromeWriter { dir, file, seq, bytes: 2, wrote_any: false })
    }

    /// Creates `trace-<seq>.json` (skipping names that already exist,
    /// so restarts never clobber earlier captures) primed as `[]`.
    fn next_file(dir: &std::path::Path, mut seq: u64) -> io::Result<(File, u64)> {
        loop {
            let path = dir.join(format!("trace-{seq:05}.json"));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    file.write_all(b"[]")?;
                    return Ok((file, seq));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => seq += 1,
                Err(e) => return Err(e),
            }
        }
    }

    fn rotate(&mut self) -> io::Result<()> {
        let (file, seq) = Self::next_file(&self.dir, self.seq + 1)?;
        self.file = file;
        self.seq = seq;
        self.bytes = 2;
        self.wrote_any = false;
        Ok(())
    }

    /// Appends one complete (`"ph":"X"`) event per span, overwriting
    /// the `]` terminator and writing a new one.
    fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        if self.bytes > ROTATE_BYTES {
            self.rotate()?;
        }
        let mut out = String::with_capacity(trace.spans.len() * 128);
        for span in &trace.spans {
            if self.wrote_any || !out.is_empty() {
                out.push_str(",\n");
            }
            let ts = trace.start_unix_us as f64 + span.start_ns as f64 / 1_000.0;
            let dur = span.dur_ns as f64 / 1_000.0;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\
                 \"dur\":{dur:.3},\"args\":{{\"trace_id\":{},\"op\":\"{}\",\"ok\":{}}}}}",
                span.name, trace.id, trace.id, trace.op, trace.ok
            ));
        }
        if out.is_empty() {
            return Ok(());
        }
        out.push(']');
        self.file.seek(SeekFrom::End(-1))?;
        self.file.write_all(out.as_bytes())?;
        self.bytes = self.bytes.saturating_add(out.len() as u64);
        self.wrote_any = true;
        Ok(())
    }
}

/// The engine's observability hub. See the module docs for the life of
/// a traced request.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    slow_ns: AtomicU64,
    next_id: AtomicU64,
    next_shard: AtomicUsize,
    rings: Vec<TraceRing>,
    decomp: Mutex<Decomp>,
    writer: Mutex<Option<ChromeWriter>>,
    transport: Mutex<String>,
    started: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Telemetry with tracing enabled, no slow log, no trace dir.
    #[must_use]
    pub fn new() -> Telemetry {
        Telemetry {
            enabled: AtomicBool::new(true),
            slow_ns: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            next_shard: AtomicUsize::new(0),
            rings: (0..RING_SHARDS).map(|_| TraceRing::new(RING_CAP)).collect(),
            decomp: Mutex::new(Decomp::default()),
            writer: Mutex::new(None),
            transport: Mutex::new("none".to_string()),
            started: Instant::now(),
        }
    }

    /// Turns per-request tracing on or off (metrics counters stay on).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether per-request tracing is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Requests slower than this (end to end) dump their span tree to
    /// stderr; 0 disables the slow log.
    pub fn set_slow_ms(&self, ms: u64) {
        self.slow_ns.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
    }

    /// Streams completed traces into `dir` as rotating Chrome
    /// trace-event JSON files.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or its first file.
    pub fn set_trace_dir(&self, dir: impl Into<PathBuf>) -> io::Result<()> {
        let writer = ChromeWriter::open(dir.into())?;
        *lock_unpoisoned(&self.writer) = Some(writer);
        Ok(())
    }

    /// Names the transport in use (`"epoll"`, `"stdio"`)
    /// for the `stats` build block and `depcase_build_info`.
    pub fn set_transport(&self, transport: &str) {
        *lock_unpoisoned(&self.transport) = transport.to_string();
    }

    /// The transport label last set (defaults to `"none"`).
    #[must_use]
    pub fn transport(&self) -> String {
        lock_unpoisoned(&self.transport).clone()
    }

    /// Seconds since this telemetry (= its engine) was created.
    #[must_use]
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// A builder for one request whose line was framed at `accepted`,
    /// or `None` when tracing is off — the whole per-request cost of a
    /// disabled pipeline.
    #[must_use]
    pub fn start_trace(&self, accepted: Instant) -> Option<Box<TraceBuilder>> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Some(Box::new(TraceBuilder::new(id, accepted)))
    }

    fn shard_ring(&self) -> &TraceRing {
        let idx = SHARD.with(|s| {
            let mut idx = s.get();
            if idx == usize::MAX {
                idx = self.next_shard.fetch_add(1, Ordering::Relaxed);
                s.set(idx);
            }
            idx
        });
        &self.rings[idx % self.rings.len()]
    }

    /// Freezes and publishes one completed trace: decomposition
    /// update, slow-request log, Chrome stream, ring retention.
    pub fn finish(&self, tb: TraceBuilder) {
        let trace = Arc::new(tb.finish());
        let slow_ns = self.slow_ns.load(Ordering::Relaxed);
        let is_slow = slow_ns > 0 && trace.total_ns >= slow_ns;
        {
            let mut decomp = lock_unpoisoned(&self.decomp);
            decomp.observe(&trace);
            if is_slow {
                decomp.slow_logged += 1;
            }
        }
        if is_slow {
            let line = serde_json::value_to_string(&trace_to_value(&trace));
            eprintln!(
                "[telemetry] slow request ({} ms >= threshold): {line}",
                trace.total_ns / 1_000_000
            );
        }
        {
            let mut writer = lock_unpoisoned(&self.writer);
            if let Some(w) = writer.as_mut() {
                if let Err(e) = w.write_trace(&trace) {
                    eprintln!("[telemetry] trace-dir write failed, disabling stream: {e}");
                    *writer = None;
                }
            }
        }
        self.shard_ring().push(trace);
    }

    /// The `trace` wire-op result: the most recent `limit` span trees
    /// (newest first) plus the per-op latency decomposition.
    #[must_use]
    pub fn trace_value(&self, limit: usize) -> Value {
        let limit = limit.clamp(1, MAX_TRACE_LIMIT);
        let mut all: Vec<Arc<Trace>> = self.rings.iter().flat_map(TraceRing::snapshot).collect();
        all.sort_by_key(|t| std::cmp::Reverse(t.id));
        all.truncate(limit);
        let traces = all.iter().map(|t| trace_to_value(t)).collect();
        Value::Object(vec![
            ("traces".to_string(), Value::Array(traces)),
            ("decomposition".to_string(), lock_unpoisoned(&self.decomp).to_value()),
        ])
    }

    /// Contributes the tracing-side families to the metrics registry.
    pub fn collect_metrics(&self, reg: &mut MetricsRegistry) {
        reg.gauge(
            "depcase_uptime_seconds",
            "Seconds since the engine started",
            &[],
            self.started.elapsed().as_secs_f64(),
        );
        let decomp = lock_unpoisoned(&self.decomp);
        reg.counter(
            "depcase_traces_recorded_total",
            "Traces published to the rings",
            &[],
            decomp.traces_recorded,
        );
        reg.counter(
            "depcase_slow_requests_total",
            "Requests that tripped the slow log",
            &[],
            decomp.slow_logged,
        );
        for (op, d) in &decomp.ops {
            let op_label = [("op", (*op).to_string())];
            reg.histogram_ns(
                "depcase_trace_total_us",
                "End-to-end traced latency per op",
                &op_label,
                &d.total,
            );
            for (phase, agg) in &d.phases {
                reg.histogram_ns(
                    "depcase_phase_latency_us",
                    "Per-phase latency decomposition",
                    &[("op", (*op).to_string()), ("phase", (*phase).to_string())],
                    agg,
                );
            }
        }
    }
}

/// One trace as the wire object the `trace` op (and the slow log)
/// emits: µs-resolution spans with parent indices (`null` for roots).
fn trace_to_value(trace: &Trace) -> Value {
    let spans = trace
        .spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("parent".to_string(), s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p)))),
                ("start_us".to_string(), Value::F64(s.start_ns as f64 / 1_000.0)),
                ("dur_us".to_string(), Value::F64(s.dur_ns as f64 / 1_000.0)),
            ])
        })
        .collect();
    let counts = trace.counts.iter().map(|(n, v)| ((*n).to_string(), Value::U64(*v))).collect();
    Value::Object(vec![
        ("id".to_string(), Value::U64(trace.id)),
        ("op".to_string(), Value::Str(trace.op.to_string())),
        ("ok".to_string(), Value::Bool(trace.ok)),
        ("start_unix_us".to_string(), Value::U64(trace.start_unix_us)),
        ("total_us".to_string(), Value::F64(trace.total_ns as f64 / 1_000.0)),
        ("spans".to_string(), Value::Array(spans)),
        ("counts".to_string(), Value::Object(counts)),
    ])
}

/// One series' value in the metrics registry.
#[derive(Debug, Clone)]
enum SeriesValue {
    Counter(u64),
    Gauge(f64),
    Hist { buckets: Vec<(u64, u64)>, count: u64, sum_us: f64 },
}

#[derive(Debug, Clone)]
struct Series {
    labels: Vec<(&'static str, String)>,
    value: SeriesValue,
}

#[derive(Debug, Clone)]
struct Family {
    name: &'static str,
    help: &'static str,
    series: Vec<Series>,
}

/// The unified metrics registry: every counter, gauge, and histogram
/// the service exposes, collected from the stats snapshot, the engine,
/// and the telemetry decomposition, rendered as JSON (`metrics` op) or
/// Prometheus text exposition (`{"format":"prometheus"}`).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn family_mut(&mut self, name: &'static str, help: &'static str) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            return &mut self.families[i];
        }
        self.families.push(Family { name, help, series: Vec::new() });
        self.families.last_mut().expect("just pushed")
    }

    fn push(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, String)],
        value: SeriesValue,
    ) {
        self.family_mut(name, help).series.push(Series { labels: labels.to_vec(), value });
    }

    /// Adds one counter series.
    pub fn counter(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, String)],
        value: u64,
    ) {
        self.push(name, help, labels, SeriesValue::Counter(value));
    }

    /// Adds one gauge series.
    pub fn gauge(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, String)],
        value: f64,
    ) {
        self.push(name, help, labels, SeriesValue::Gauge(value));
    }

    /// Adds one histogram series from a log2-µs [`Histogram`].
    pub fn histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, String)],
        hist: &Histogram,
    ) {
        self.push(
            name,
            help,
            labels,
            SeriesValue::Hist {
                buckets: hist.buckets(),
                count: hist.count(),
                sum_us: hist.sum_us() as f64,
            },
        );
    }

    fn histogram_ns(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, String)],
        agg: &PhaseAgg,
    ) {
        self.push(
            name,
            help,
            labels,
            SeriesValue::Hist {
                buckets: agg.hist.buckets(),
                count: agg.count,
                sum_us: agg.sum_ns as f64 / 1_000.0,
            },
        );
    }

    /// The registry as the `metrics` op's JSON result.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let metrics = self
            .families
            .iter()
            .map(|f| {
                let series = f
                    .series
                    .iter()
                    .map(|s| {
                        let labels = s
                            .labels
                            .iter()
                            .map(|(k, v)| ((*k).to_string(), Value::Str(v.clone())))
                            .collect();
                        let mut fields = vec![("labels".to_string(), Value::Object(labels))];
                        match &s.value {
                            SeriesValue::Counter(v) => {
                                fields.push(("value".to_string(), Value::U64(*v)));
                            }
                            SeriesValue::Gauge(v) => {
                                fields.push(("value".to_string(), Value::F64(*v)));
                            }
                            SeriesValue::Hist { buckets, count, sum_us } => {
                                let bs = buckets
                                    .iter()
                                    .map(|(le, n)| {
                                        Value::Array(vec![Value::U64(*le), Value::U64(*n)])
                                    })
                                    .collect();
                                fields.push(("buckets".to_string(), Value::Array(bs)));
                                fields.push(("count".to_string(), Value::U64(*count)));
                                fields.push(("sum_us".to_string(), Value::F64(*sum_us)));
                            }
                        }
                        Value::Object(fields)
                    })
                    .collect();
                Value::Object(vec![
                    ("name".to_string(), Value::Str(f.name.to_string())),
                    (
                        "type".to_string(),
                        Value::Str(
                            match f.series.first().map(|s| &s.value) {
                                Some(SeriesValue::Gauge(_)) => "gauge",
                                Some(SeriesValue::Hist { .. }) => "histogram",
                                _ => "counter",
                            }
                            .to_string(),
                        ),
                    ),
                    ("help".to_string(), Value::Str(f.help.to_string())),
                    ("series".to_string(), Value::Array(series)),
                ])
            })
            .collect();
        Value::Object(vec![("metrics".to_string(), Value::Array(metrics))])
    }

    /// The registry in Prometheus text exposition format (histograms
    /// as cumulative `_bucket{le=…}` series plus `_sum`/`_count`).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let kind = match f.series.first().map(|s| &s.value) {
                Some(SeriesValue::Gauge(_)) => "gauge",
                Some(SeriesValue::Hist { .. }) => "histogram",
                _ => "counter",
            };
            out.push_str(&format!("# HELP {} {}\n# TYPE {} {kind}\n", f.name, f.help, f.name));
            for s in &f.series {
                match &s.value {
                    SeriesValue::Counter(v) => {
                        out.push_str(&format!("{}{} {v}\n", f.name, label_text(&s.labels, &[])));
                    }
                    SeriesValue::Gauge(v) => {
                        out.push_str(&format!("{}{} {v}\n", f.name, label_text(&s.labels, &[])));
                    }
                    SeriesValue::Hist { buckets, count, sum_us } => {
                        let mut cum = 0u64;
                        for (le, n) in buckets {
                            cum += n;
                            out.push_str(&format!(
                                "{}_bucket{} {cum}\n",
                                f.name,
                                label_text(&s.labels, &[("le", &le.to_string())])
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {count}\n",
                            f.name,
                            label_text(&s.labels, &[("le", "+Inf")])
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {sum_us}\n",
                            f.name,
                            label_text(&s.labels, &[])
                        ));
                        out.push_str(&format!(
                            "{}_count{} {count}\n",
                            f.name,
                            label_text(&s.labels, &[])
                        ));
                    }
                }
            }
        }
        out
    }
}

/// Renders `{label="value",…}` (empty string with no labels). Label
/// values are quoted with the three escapes the exposition format
/// defines.
fn label_text(labels: &[(&'static str, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = Vec::with_capacity(labels.len() + extra.len());
    for (k, v) in labels {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    for (k, v) in extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_hands_out_no_builders() {
        let t = Telemetry::new();
        assert!(t.start_trace(Instant::now()).is_some());
        t.set_enabled(false);
        assert!(t.start_trace(Instant::now()).is_none());
    }

    #[test]
    fn finished_traces_surface_in_trace_value_newest_first() {
        let t = Telemetry::new();
        for _ in 0..3 {
            let mut tb = t.start_trace(Instant::now()).unwrap();
            tb.set_op("eval");
            tb.begin("engine");
            tb.end();
            tb.set_ok(true);
            t.finish(*tb);
        }
        let v = t.trace_value(2);
        let text = serde_json::to_string(&crate::protocol::Json(v)).unwrap();
        assert!(text.contains("\"traces\""), "{text}");
        assert!(text.contains("\"decomposition\""), "{text}");
        assert!(text.contains("\"eval\""), "{text}");
        // Newest first: id 3 appears before id 2, id 1 truncated away.
        let i3 = text.find("\"id\":3").expect("trace 3 present");
        let i2 = text.find("\"id\":2").expect("trace 2 present");
        assert!(i3 < i2, "{text}");
        assert!(!text.contains("\"id\":1,"), "{text}");
    }

    #[test]
    fn tls_spans_nest_under_installed_builder() {
        let t = Telemetry::new();
        let mut tb = t.start_trace(Instant::now()).unwrap();
        tb.begin("engine");
        install(tb);
        let out = with_span("plan_compile", || {
            phase_event("propagate", Duration::from_micros(5));
            count_event("nodes", 4);
            42
        });
        assert_eq!(out, 42);
        let mut tb = take_current().unwrap();
        tb.end();
        let trace = tb.finish();
        assert!(trace.is_well_formed(), "{trace:?}");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["engine", "plan_compile", "propagate"]);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.counts, vec![("nodes", 4)]);
    }

    #[test]
    fn with_span_is_transparent_without_a_trace() {
        assert!(take_current().is_none());
        assert_eq!(with_span("anything", || 7), 7);
        assert!(take_current().is_none());
    }

    #[test]
    fn chrome_writer_keeps_the_file_valid_json() {
        let dir = std::env::temp_dir().join(format!("depcase-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::new();
        t.set_trace_dir(&dir).unwrap();
        for _ in 0..2 {
            let mut tb = t.start_trace(Instant::now()).unwrap();
            tb.set_op("eval");
            tb.begin("engine");
            tb.end();
            t.finish(*tb);
        }
        let text = std::fs::read_to_string(dir.join("trace-00000.json")).unwrap();
        let (parsed, _) =
            serde_json::from_str_prefix::<crate::protocol::Json>(&text).expect("valid JSON");
        let crate::protocol::Json(Value::Array(events)) = parsed else {
            panic!("expected a JSON array: {text}");
        };
        assert_eq!(events.len(), 2);
        assert!(text.contains("\"ph\":\"X\""), "{text}");
        assert!(text.contains("\"op\":\"eval\""), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prometheus_text_renders_counters_gauges_and_histograms() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x_total", "a counter", &[("op", "eval".to_string())], 3);
        reg.gauge("y", "a gauge", &[], 1.5);
        let mut h = Histogram::default();
        h.record(10);
        h.record(100);
        reg.histogram("z_us", "a histogram", &[], &h);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE x_total counter"), "{text}");
        assert!(text.contains("x_total{op=\"eval\"} 3"), "{text}");
        assert!(text.contains("y 1.5"), "{text}");
        assert!(text.contains("# TYPE z_us histogram"), "{text}");
        assert!(text.contains("z_us_bucket{le=\"16\"} 1"), "{text}");
        assert!(text.contains("z_us_bucket{le=\"128\"} 2"), "{text}");
        assert!(text.contains("z_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("z_us_sum 110"), "{text}");
        assert!(text.contains("z_us_count 2"), "{text}");
    }

    #[test]
    fn metrics_value_carries_families_and_series() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a_total", "help text", &[], 1);
        let text = serde_json::to_string(&crate::protocol::Json(reg.to_value())).unwrap();
        assert!(text.contains("\"name\":\"a_total\""), "{text}");
        assert!(text.contains("\"type\":\"counter\""), "{text}");
        assert!(text.contains("\"value\":1"), "{text}");
    }

    #[test]
    fn root_phase_sums_reconcile_with_totals() {
        let t = Telemetry::new();
        for _ in 0..20 {
            let accepted = Instant::now();
            let mut tb = t.start_trace(accepted).unwrap();
            tb.set_op("eval");
            tb.begin_at("queue_wait", accepted);
            tb.end();
            tb.begin("parse");
            tb.end();
            tb.begin("engine");
            std::thread::sleep(Duration::from_micros(200));
            tb.end();
            tb.begin("reply_flush");
            t.finish(*tb); // finish closes reply_flush at the total's end
        }
        let decomp = lock_unpoisoned(&t.decomp);
        let (_, d) = decomp.ops.iter().find(|(op, _)| *op == "eval").unwrap();
        let total = d.total.sum_ns as f64;
        let roots = d.root_sum_ns as f64;
        let drift = (total - roots).abs() / total;
        assert!(drift <= 0.05, "phase sums drifted {drift} from totals");
    }
}
