//! Service observability: per-operation latency histograms and counters.
//!
//! Latencies land in logarithmic (power-of-two) microsecond buckets, so
//! a handful of `u64`s per operation covers nanosecond cache hits
//! through multi-second Monte-Carlo runs, and quantiles come from a
//! single scan. Quantile answers are the upper edge of the containing
//! bucket — pessimistic by at most 2×, which is the right bias for
//! latency reporting.

use crate::cache::CacheCounters;
use serde::Value;

const BUCKETS: usize = 40; // 2^39 µs ≈ 6.4 days; plenty.

/// Latency histogram with power-of-two microsecond buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum_us: 0, max_us: 0 }
    }
}

fn bucket_of(us: u64) -> usize {
    // Bucket 0 holds 0..=1 µs; bucket b ≥ 1 holds (2^(b-1), 2^b], so
    // every bucket's contents are bounded above by `bucket_upper` and a
    // 1 µs observation reports as 1 µs, not 2.
    match us {
        0 | 1 => 0,
        _ => (64 - (us - 1).leading_zeros() as usize).min(BUCKETS - 1),
    }
}

fn bucket_upper(bucket: usize) -> u64 {
    1u64 << bucket
}

impl Histogram {
    /// Records one observation.
    pub fn record(&mut self, us: u64) {
        self.buckets[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in `[0,1]`.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, clamped into range.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        self.max_us
    }

    /// Quantile `q` with linear interpolation inside the containing
    /// log2 bucket — the estimate clients used to re-derive by hand
    /// from the raw buckets, now computed (and pinned by unit tests)
    /// server-side.
    ///
    /// The rank `ceil(q·count)` lands in some bucket `(lo, hi]`; the
    /// answer places it proportionally between the edges by its
    /// position among that bucket's observations. Unlike
    /// [`Histogram::quantile_us`] this is an *estimate* (the true
    /// observation may sit anywhere in the bucket), but it is unbiased
    /// across a uniform fill instead of pessimistic by up to 2×, and it
    /// never exceeds the recorded maximum. Returns 0 when empty.
    #[must_use]
    pub fn quantile_interpolated_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if b == 0 { 0.0 } else { bucket_upper(b - 1) as f64 };
                let hi = bucket_upper(b) as f64;
                // Position of the rank among this bucket's n
                // observations, in (0, 1].
                let frac = (rank - seen) as f64 / n as f64;
                return (lo + (hi - lo) * frac).min(self.max_us as f64);
            }
            seen += n;
        }
        self.max_us as f64
    }

    /// The non-empty buckets as `(upper_edge_us, count)` pairs in
    /// ascending edge order — the raw log2-µs histogram the summary
    /// quantiles are derived from.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_upper(b), n))
            .collect()
    }

    /// Sum of all observations in µs (saturating).
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// The `p50/p90/p99/p999` interpolated summary plus the raw
    /// buckets, as the wire object every histogram now embeds.
    #[must_use]
    pub fn summary_value(&self) -> Value {
        let quantiles = Value::Object(vec![
            ("p50".to_string(), Value::F64(self.quantile_interpolated_us(0.50))),
            ("p90".to_string(), Value::F64(self.quantile_interpolated_us(0.90))),
            ("p99".to_string(), Value::F64(self.quantile_interpolated_us(0.99))),
            ("p999".to_string(), Value::F64(self.quantile_interpolated_us(0.999))),
        ]);
        let buckets = self
            .buckets()
            .into_iter()
            .map(|(le, n)| Value::Array(vec![Value::U64(le), Value::U64(n)]))
            .collect();
        Value::Object(vec![
            ("quantiles".to_string(), quantiles),
            ("buckets".to_string(), Value::Array(buckets)),
        ])
    }

    /// Mean latency in µs (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Largest observation in µs.
    #[must_use]
    pub fn max_us(&self) -> u64 {
        self.max_us
    }
}

/// Request counters and latency for one wire operation.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Requests handled (including failures).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Latency of the handling call.
    pub latency: Histogram,
}

/// The operations tracked, in wire-spelling order.
pub const TRACKED_OPS: [&str; 13] = [
    "load", "eval", "history", "edit", "rank", "mc", "bands", "batch", "stats", "scrub", "trace",
    "metrics", "shutdown",
];

/// A fault-tolerance event worth counting — the service's own evidence
/// of how it degrades under panic, overload, and slow clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobustnessEvent {
    /// A request handler panicked (caught; answered `internal_error`).
    Panic,
    /// A dead worker was replaced by the supervisor.
    Respawn,
    /// A request ran out of its time budget (`deadline_exceeded`).
    DeadlineExceeded,
    /// A request or connection was shed under load (`overloaded`).
    Overloaded,
    /// An oversized request line was discarded (`request_too_large`).
    RequestTooLarge,
    /// An idle connection was reaped after `read_timeout`.
    ConnectionReaped,
}

/// Counter snapshot of the fault-tolerance events.
///
/// Rejected requests (overloaded, too-large) never reach the engine, so
/// the per-op latency histograms stay untouched by load shedding — they
/// are counted here and their answer latency lands in the dedicated
/// rejection histogram ([`ServiceStats::note_rejection`]), so a p99
/// quoted under overload accounts for the shed traffic too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessCounters {
    /// Caught request-handler panics.
    pub panics: u64,
    /// Workers respawned after a panic.
    pub respawns: u64,
    /// Requests answered `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Requests or connections shed with `overloaded`.
    pub overloaded: u64,
    /// Lines rejected with `request_too_large`.
    pub request_too_large: u64,
    /// Connections closed by the idle reaper.
    pub connections_reaped: u64,
}

impl RobustnessCounters {
    fn note(&mut self, event: RobustnessEvent) {
        match event {
            RobustnessEvent::Panic => self.panics += 1,
            RobustnessEvent::Respawn => self.respawns += 1,
            RobustnessEvent::DeadlineExceeded => self.deadline_exceeded += 1,
            RobustnessEvent::Overloaded => self.overloaded += 1,
            RobustnessEvent::RequestTooLarge => self.request_too_large += 1,
            RobustnessEvent::ConnectionReaped => self.connections_reaped += 1,
        }
    }

    fn to_value(self) -> Value {
        Value::Object(vec![
            ("panics".to_string(), Value::U64(self.panics)),
            ("respawns".to_string(), Value::U64(self.respawns)),
            ("deadline_exceeded".to_string(), Value::U64(self.deadline_exceeded)),
            ("overloaded".to_string(), Value::U64(self.overloaded)),
            ("request_too_large".to_string(), Value::U64(self.request_too_large)),
            ("connections_reaped".to_string(), Value::U64(self.connections_reaped)),
        ])
    }
}

/// Counter snapshot of the incremental-recomputation engine behind the
/// `edit` op: how much work the subtree-hash memo actually saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalCounters {
    /// Edits applied (successful `edit` requests).
    pub edits: u64,
    /// Nodes whose confidence ran through the combination kernel.
    pub nodes_recomputed: u64,
    /// Nodes answered from the subtree-hash memo without float work.
    pub nodes_reused: u64,
}

/// Counter snapshot of plan compilation: how many full compiles ran and
/// how much of their propagation work the (shared) subtree memo
/// answered. `(nodes_recomputed + nodes_reused) / nodes_recomputed` is
/// the subtree-dedup ratio the multi-tenant bench and CI smoke assert
/// on — a fleet of template variants sharing a global memo store should
/// push it well above 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounters {
    /// Full compiles (cold `load`s and cache-miss recompiles).
    pub compiles: u64,
    /// Nodes whose confidence ran through the combination kernel.
    pub nodes_recomputed: u64,
    /// Nodes answered from the memo store without float work.
    pub nodes_reused: u64,
}

impl CompileCounters {
    /// `(recomputed + reused) / recomputed` — how many nodes were
    /// evaluated per node actually computed. 1.0 with no sharing.
    #[must_use]
    pub fn dedup_ratio(&self) -> f64 {
        if self.nodes_recomputed == 0 {
            return 1.0;
        }
        (self.nodes_recomputed + self.nodes_reused) as f64 / self.nodes_recomputed as f64
    }

    fn to_value(self) -> Value {
        Value::Object(vec![
            ("compiles".to_string(), Value::U64(self.compiles)),
            ("nodes_recomputed".to_string(), Value::U64(self.nodes_recomputed)),
            ("nodes_reused".to_string(), Value::U64(self.nodes_reused)),
            ("subtree_dedup_ratio".to_string(), Value::F64(self.dedup_ratio())),
        ])
    }
}

/// Counter snapshot of the durability layer: WAL traffic, snapshot
/// activity, and what the last startup had to recover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCounters {
    /// WAL records appended (acked mutations) since startup.
    pub records_appended: u64,
    /// `fdatasync` calls issued by the WAL (appends under
    /// `--fsync always`, plus drain-time flushes).
    pub fsyncs: u64,
    /// WAL records replayed at the last startup.
    pub records_replayed: u64,
    /// Snapshots written since startup.
    pub snapshots_written: u64,
    /// Torn WAL tails truncated at startup (0 or 1 per process life).
    pub torn_tail_recoveries: u64,
}

impl DurabilityCounters {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("records_appended".to_string(), Value::U64(self.records_appended)),
            ("fsyncs".to_string(), Value::U64(self.fsyncs)),
            ("records_replayed".to_string(), Value::U64(self.records_replayed)),
            ("snapshots_written".to_string(), Value::U64(self.snapshots_written)),
            ("torn_tail_recoveries".to_string(), Value::U64(self.torn_tail_recoveries)),
        ])
    }
}

/// Counter snapshot of the self-healing storage pipeline: scrub
/// verdicts, repairs by source, quarantines, and the read-only
/// degradation window ([`crate::engine`], DESIGN §15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageHealthCounters {
    /// `scrub` passes completed (wire op or startup verification).
    pub scrubs: u64,
    /// Snapshot objects whose content hash was verified.
    pub objects_checked: u64,
    /// Objects that failed their content-hash check (bit-rot,
    /// truncation, tampering).
    pub corrupt_detected: u64,
    /// Corrupt objects re-serialized from the intact in-memory copy.
    pub repaired_from_memory: u64,
    /// Corrupt objects rebuilt by replaying WAL records.
    pub repaired_from_wal: u64,
    /// Corrupt objects moved to `quarantine/` with no intact source to
    /// repair from; their versions answer `data_corrupted`.
    pub quarantined: u64,
    /// Times the engine entered read-only degraded mode.
    pub read_only_entered: u64,
    /// Times the engine recovered back to read-write.
    pub read_only_exited: u64,
    /// WAL appends that failed (each one refused a mutation).
    pub append_failures: u64,
    /// Whether the engine is in read-only mode right now.
    pub read_only: bool,
}

impl StorageHealthCounters {
    fn to_value(self) -> Value {
        Value::Object(vec![
            ("scrubs".to_string(), Value::U64(self.scrubs)),
            ("objects_checked".to_string(), Value::U64(self.objects_checked)),
            ("corrupt_detected".to_string(), Value::U64(self.corrupt_detected)),
            ("repaired_from_memory".to_string(), Value::U64(self.repaired_from_memory)),
            ("repaired_from_wal".to_string(), Value::U64(self.repaired_from_wal)),
            ("quarantined".to_string(), Value::U64(self.quarantined)),
            ("read_only_entered".to_string(), Value::U64(self.read_only_entered)),
            ("read_only_exited".to_string(), Value::U64(self.read_only_exited)),
            ("append_failures".to_string(), Value::U64(self.append_failures)),
            ("read_only".to_string(), Value::Bool(self.read_only)),
        ])
    }
}

/// Aggregate service statistics, dumped by `stats` and on shutdown.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    per_op: [OpStats; 13],
    robustness: RobustnessCounters,
    rejections: Histogram,
    incremental: IncrementalCounters,
    compile: CompileCounters,
    durability: DurabilityCounters,
    storage_health: StorageHealthCounters,
}

impl ServiceStats {
    /// Counts one fault-tolerance event.
    pub fn note(&mut self, event: RobustnessEvent) {
        self.robustness.note(event);
    }

    /// Counts one rejected request (shed with `overloaded` or discarded
    /// as `request_too_large`) **and** records how long the server took
    /// to answer the rejection. Shed traffic used to be invisible to
    /// every histogram — a p99 quoted under overload silently excluded
    /// exactly the requests overload hurt most.
    pub fn note_rejection(&mut self, event: RobustnessEvent, latency_us: u64) {
        self.robustness.note(event);
        self.rejections.record(latency_us);
    }

    /// The rejection-latency histogram (answer time of shed and
    /// too-large requests).
    #[must_use]
    pub fn rejections(&self) -> &Histogram {
        &self.rejections
    }

    /// Snapshot of the fault-tolerance counters.
    #[must_use]
    pub fn robustness(&self) -> RobustnessCounters {
        self.robustness
    }

    /// Counts one applied edit and the recomputation work it cost/saved.
    pub fn note_edit(&mut self, nodes_recomputed: u64, nodes_reused: u64) {
        self.incremental.edits += 1;
        self.incremental.nodes_recomputed += nodes_recomputed;
        self.incremental.nodes_reused += nodes_reused;
    }

    /// Snapshot of the incremental-recomputation counters.
    #[must_use]
    pub fn incremental(&self) -> IncrementalCounters {
        self.incremental
    }

    /// Counts one full compile and the propagation work the memo store
    /// saved it.
    pub fn note_compile(&mut self, nodes_recomputed: u64, nodes_reused: u64) {
        self.compile.compiles += 1;
        self.compile.nodes_recomputed += nodes_recomputed;
        self.compile.nodes_reused += nodes_reused;
    }

    /// Snapshot of the compile counters.
    #[must_use]
    pub fn compile(&self) -> CompileCounters {
        self.compile
    }

    /// Mutable access to the durability counters (the engine's WAL and
    /// snapshot paths bump these as they go).
    pub fn durability_mut(&mut self) -> &mut DurabilityCounters {
        &mut self.durability
    }

    /// Snapshot of the durability counters.
    #[must_use]
    pub fn durability(&self) -> DurabilityCounters {
        self.durability
    }

    /// Mutable access to the storage-health counters (scrub, repair,
    /// and read-only transitions bump these as they go).
    pub fn storage_health_mut(&mut self) -> &mut StorageHealthCounters {
        &mut self.storage_health
    }

    /// Snapshot of the storage-health counters.
    #[must_use]
    pub fn storage_health(&self) -> StorageHealthCounters {
        self.storage_health
    }

    /// Records one handled request for `op`.
    pub fn record(&mut self, op: &str, latency_us: u64, errored: bool) {
        if let Some(idx) = TRACKED_OPS.iter().position(|name| *name == op) {
            let stats = &mut self.per_op[idx];
            stats.requests += 1;
            if errored {
                stats.errors += 1;
            }
            stats.latency.record(latency_us);
        }
    }

    /// Stats for one operation, when tracked.
    #[must_use]
    pub fn op(&self, op: &str) -> Option<&OpStats> {
        TRACKED_OPS.iter().position(|name| *name == op).map(|idx| &self.per_op[idx])
    }

    /// Total requests across all operations.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.per_op.iter().map(|s| s.requests).sum()
    }

    /// Renders the snapshot as the wire `result` object.
    #[must_use]
    pub fn to_value(
        &self,
        cache: CacheCounters,
        cache_entries: usize,
        cache_capacity: usize,
    ) -> Value {
        let ops: Vec<(String, Value)> = TRACKED_OPS
            .iter()
            .zip(&self.per_op)
            .filter(|(_, s)| s.requests > 0)
            .map(|(name, s)| {
                (
                    (*name).to_string(),
                    Value::Object(vec![
                        ("requests".to_string(), Value::U64(s.requests)),
                        ("errors".to_string(), Value::U64(s.errors)),
                        (
                            "latency_us".to_string(),
                            Value::Object(vec![
                                ("p50".to_string(), Value::U64(s.latency.quantile_us(0.50))),
                                ("p99".to_string(), Value::U64(s.latency.quantile_us(0.99))),
                                ("mean".to_string(), Value::F64(s.latency.mean_us())),
                                ("max".to_string(), Value::U64(s.latency.max_us())),
                                ("summary".to_string(), s.latency.summary_value()),
                            ]),
                        ),
                    ]),
                )
            })
            .collect();
        let total = cache.hits + cache.misses;
        let hit_rate = if total == 0 { 0.0 } else { cache.hits as f64 / total as f64 };
        let robustness = {
            let Value::Object(mut fields) = self.robustness.to_value() else { unreachable!() };
            fields.push((
                "rejection_latency_us".to_string(),
                Value::Object(vec![
                    ("count".to_string(), Value::U64(self.rejections.count())),
                    ("p50".to_string(), Value::U64(self.rejections.quantile_us(0.50))),
                    ("p99".to_string(), Value::U64(self.rejections.quantile_us(0.99))),
                    ("mean".to_string(), Value::F64(self.rejections.mean_us())),
                    ("max".to_string(), Value::U64(self.rejections.max_us())),
                    ("summary".to_string(), self.rejections.summary_value()),
                ]),
            ));
            Value::Object(fields)
        };
        Value::Object(vec![
            ("requests".to_string(), Value::U64(self.total_requests())),
            ("ops".to_string(), Value::Object(ops)),
            ("robustness".to_string(), robustness),
            ("durability".to_string(), self.durability.to_value()),
            ("storage_health".to_string(), self.storage_health.to_value()),
            (
                "incremental".to_string(),
                Value::Object(vec![
                    ("edits".to_string(), Value::U64(self.incremental.edits)),
                    ("nodes_recomputed".to_string(), Value::U64(self.incremental.nodes_recomputed)),
                    ("nodes_reused".to_string(), Value::U64(self.incremental.nodes_reused)),
                ]),
            ),
            ("compile".to_string(), self.compile.to_value()),
            (
                "plan_cache".to_string(),
                Value::Object(vec![
                    ("entries".to_string(), Value::U64(cache_entries as u64)),
                    ("capacity".to_string(), Value::U64(cache_capacity as u64)),
                    ("hits".to_string(), Value::U64(cache.hits)),
                    ("misses".to_string(), Value::U64(cache.misses)),
                    ("evictions".to_string(), Value::U64(cache.evictions)),
                    ("hit_rate".to_string(), Value::F64(hit_rate)),
                ]),
            ),
        ])
    }

    /// Enumerates every counter and histogram of this snapshot into the
    /// unified metrics registry — the `stats` blocks above are views
    /// over exactly this data, so the `metrics` op and the `stats` op
    /// can never disagree.
    pub fn collect_metrics(&self, reg: &mut crate::telemetry::MetricsRegistry) {
        for (name, s) in TRACKED_OPS.iter().zip(&self.per_op) {
            if s.requests == 0 {
                continue;
            }
            let label = [("op", (*name).to_string())];
            reg.counter("depcase_requests_total", "Requests handled per op", &label, s.requests);
            reg.counter(
                "depcase_request_errors_total",
                "Requests answered with an error per op",
                &label,
                s.errors,
            );
            reg.histogram(
                "depcase_request_latency_us",
                "End-to-end handling latency per op (log2 µs buckets)",
                &label,
                &s.latency,
            );
        }
        if self.rejections.count() > 0 {
            reg.histogram(
                "depcase_rejection_latency_us",
                "Answer latency of shed and too-large requests",
                &[],
                &self.rejections,
            );
        }
        let r = self.robustness;
        for (event, n) in [
            ("panic", r.panics),
            ("respawn", r.respawns),
            ("deadline_exceeded", r.deadline_exceeded),
            ("overloaded", r.overloaded),
            ("request_too_large", r.request_too_large),
            ("connection_reaped", r.connections_reaped),
        ] {
            reg.counter(
                "depcase_robustness_events_total",
                "Fault-tolerance events by kind",
                &[("event", event.to_string())],
                n,
            );
        }
        let d = self.durability;
        reg.counter(
            "depcase_wal_records_appended_total",
            "WAL records appended",
            &[],
            d.records_appended,
        );
        reg.counter("depcase_wal_fsyncs_total", "WAL fsync calls issued", &[], d.fsyncs);
        reg.counter(
            "depcase_wal_records_replayed_total",
            "WAL records replayed at startup",
            &[],
            d.records_replayed,
        );
        reg.counter(
            "depcase_snapshots_written_total",
            "Snapshots written",
            &[],
            d.snapshots_written,
        );
        reg.counter(
            "depcase_torn_tail_recoveries_total",
            "Torn WAL tails truncated at startup",
            &[],
            d.torn_tail_recoveries,
        );
        let h = self.storage_health;
        for (event, n) in [
            ("scrub", h.scrubs),
            ("object_checked", h.objects_checked),
            ("corrupt_detected", h.corrupt_detected),
            ("repaired_from_memory", h.repaired_from_memory),
            ("repaired_from_wal", h.repaired_from_wal),
            ("quarantined", h.quarantined),
            ("read_only_entered", h.read_only_entered),
            ("read_only_exited", h.read_only_exited),
            ("append_failure", h.append_failures),
        ] {
            reg.counter(
                "depcase_storage_events_total",
                "Self-healing storage events by kind",
                &[("event", event.to_string())],
                n,
            );
        }
        reg.gauge(
            "depcase_read_only",
            "1 while the engine is in read-only degraded mode",
            &[],
            if h.read_only { 1.0 } else { 0.0 },
        );
        let i = self.incremental;
        reg.counter("depcase_edits_total", "Edits applied", &[], i.edits);
        reg.counter(
            "depcase_nodes_recomputed_total",
            "Spine nodes recomputed by edits",
            &[],
            i.nodes_recomputed,
        );
        reg.counter(
            "depcase_nodes_reused_total",
            "Spine nodes answered from the memo",
            &[],
            i.nodes_reused,
        );
        let c = self.compile;
        reg.counter("depcase_compiles_total", "Full plan compiles", &[], c.compiles);
        reg.counter(
            "depcase_compile_nodes_recomputed_total",
            "Compile-time nodes run through the combination kernel",
            &[],
            c.nodes_recomputed,
        );
        reg.counter(
            "depcase_compile_nodes_reused_total",
            "Compile-time nodes answered from the shared memo store",
            &[],
            c.nodes_reused,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_microseconds() {
        // Bucket 0 is 0..=1 µs — a 1 µs observation must not report as
        // 2 µs (the old `leading_zeros` boundary put it in bucket 1).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1u64 << 39), 39);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket's upper edge bounds its contents: quantiles are
        // pessimistic, never optimistic.
        for us in [0u64, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025, 1 << 39] {
            assert!(us <= bucket_upper(bucket_of(us)), "{us} above its bucket edge");
        }
    }

    #[test]
    fn minimum_latency_quantiles_report_one_microsecond() {
        let mut h = Histogram::default();
        for _ in 0..10 {
            h.record(1);
        }
        assert_eq!(h.quantile_us(0.5), 1, "1 µs observations must not report as 2 µs");
        assert_eq!(h.quantile_us(0.99), 1);
    }

    #[test]
    fn quantiles_bound_the_observations() {
        let mut h = Histogram::default();
        for us in [10, 20, 30, 40, 1000] {
            h.record(us);
        }
        // p50 lands in the bucket of the 3rd observation (30 µs → (16,32]).
        assert_eq!(h.quantile_us(0.50), 32);
        // p99 lands in the slowest bucket (1000 µs → (512,1024]).
        assert_eq!(h.quantile_us(0.99), 1024);
        assert_eq!(h.max_us(), 1000);
        assert!((h.mean_us() - 220.0).abs() < 1e-9);
        assert_eq!(h.quantile_us(0.0), 16); // clamped to first observation
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_interpolated_us(0.5), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn interpolated_quantiles_pin_the_arithmetic() {
        // Observations land in buckets (8,16], (16,32]×2, (32,64],
        // (512,1024]; interpolation places the rank proportionally
        // between the containing bucket's edges.
        let mut h = Histogram::default();
        for us in [10, 20, 30, 40, 1000] {
            h.record(us);
        }
        // p50 → rank 3, second of 2 observations in (16,32]: 16 + 16·(2/2).
        assert_eq!(h.quantile_interpolated_us(0.50), 32.0);
        // p90/p99/p999 → rank 5 in (512,1024], clamped to the max.
        assert_eq!(h.quantile_interpolated_us(0.90), 1000.0);
        assert_eq!(h.quantile_interpolated_us(0.99), 1000.0);
        assert_eq!(h.quantile_interpolated_us(0.999), 1000.0);
        // The interpolated estimate never exceeds the bucket-edge bound.
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert!(h.quantile_interpolated_us(q) <= h.quantile_us(q) as f64, "q={q}");
        }
    }

    #[test]
    fn interpolation_splits_a_bucket_proportionally() {
        // 100 observations of 100 µs fill bucket (64,128]: the median
        // interpolates to the bucket midpoint, the tail to the max.
        let mut h = Histogram::default();
        for _ in 0..100 {
            h.record(100);
        }
        assert_eq!(h.quantile_interpolated_us(0.50), 96.0); // 64 + 64·(50/100)
        assert_eq!(h.quantile_interpolated_us(0.999), 100.0); // clamped to max
        assert_eq!(h.buckets(), vec![(128, 100)]);
    }

    #[test]
    fn summary_fields_ride_next_to_the_raw_buckets_on_the_wire() {
        let mut s = ServiceStats::default();
        s.record("eval", 100, false);
        let v = s.to_value(CacheCounters::default(), 0, 4);
        let text = serde_json::to_string(&crate::protocol::Json(v)).unwrap();
        assert!(text.contains("\"summary\""), "{text}");
        assert!(text.contains("\"quantiles\""), "{text}");
        assert!(text.contains("\"p90\""), "{text}");
        assert!(text.contains("\"p999\""), "{text}");
        assert!(text.contains("\"buckets\":[[128,1]]"), "{text}");
    }

    #[test]
    fn trace_and_metrics_ops_are_tracked() {
        let mut s = ServiceStats::default();
        s.record("trace", 5, false);
        s.record("metrics", 7, false);
        assert_eq!(s.op("trace").unwrap().requests, 1);
        assert_eq!(s.op("metrics").unwrap().requests, 1);
        assert_eq!(s.total_requests(), 2);
    }

    #[test]
    fn per_op_records_accumulate() {
        let mut s = ServiceStats::default();
        s.record("eval", 100, false);
        s.record("eval", 200, true);
        s.record("mc", 5000, false);
        s.record("nonsense", 1, false); // ignored, not tracked
        let eval = s.op("eval").unwrap();
        assert_eq!((eval.requests, eval.errors), (2, 1));
        assert_eq!(s.total_requests(), 3);
        let v = s.to_value(CacheCounters { hits: 3, misses: 1, evictions: 0 }, 1, 64);
        let text = serde_json::to_string(&crate::protocol::Json(v)).unwrap();
        assert!(text.contains("\"hit_rate\":0.75"), "{text}");
        assert!(text.contains("\"eval\""), "{text}");
        assert!(!text.contains("\"bands\""), "untouched ops stay out: {text}");
    }

    #[test]
    fn edit_counters_accumulate_and_surface_in_the_snapshot() {
        let mut s = ServiceStats::default();
        s.note_edit(3, 0);
        s.note_edit(2, 5);
        let inc = s.incremental();
        assert_eq!(inc, IncrementalCounters { edits: 2, nodes_recomputed: 5, nodes_reused: 5 });
        // Edits never land in the latency histograms by themselves.
        assert_eq!(s.total_requests(), 0);
        let v = s.to_value(CacheCounters::default(), 0, 4);
        let text = serde_json::to_string(&crate::protocol::Json(v)).unwrap();
        assert!(text.contains("\"incremental\""), "{text}");
        assert!(text.contains("\"nodes_recomputed\":5"), "{text}");
        assert!(text.contains("\"nodes_reused\":5"), "{text}");
    }

    #[test]
    fn rejections_land_in_their_own_histogram_not_the_op_histograms() {
        let mut s = ServiceStats::default();
        s.record("eval", 100, false);
        s.note_rejection(RobustnessEvent::Overloaded, 10);
        s.note_rejection(RobustnessEvent::Overloaded, 20);
        s.note_rejection(RobustnessEvent::RequestTooLarge, 1000);
        // The counters move with the histogram — one call, one truth.
        assert_eq!(s.robustness().overloaded, 2);
        assert_eq!(s.robustness().request_too_large, 1);
        assert_eq!(s.rejections().count(), 3);
        assert_eq!(s.rejections().max_us(), 1000);
        // Shed traffic still never pollutes the per-op latencies.
        assert_eq!(s.total_requests(), 1);
        assert_eq!(s.op("eval").unwrap().latency.count(), 1);
        let v = s.to_value(CacheCounters::default(), 0, 4);
        let text = serde_json::to_string(&crate::protocol::Json(v)).unwrap();
        assert!(text.contains("\"rejection_latency_us\""), "{text}");
        assert!(text.contains("\"count\":3"), "{text}");
        assert!(text.contains("\"max\":1000"), "{text}");
    }

    #[test]
    fn storage_health_counters_surface_in_the_snapshot() {
        let mut s = ServiceStats::default();
        s.storage_health_mut().scrubs = 2;
        s.storage_health_mut().objects_checked = 9;
        s.storage_health_mut().corrupt_detected = 3;
        s.storage_health_mut().repaired_from_memory = 1;
        s.storage_health_mut().repaired_from_wal = 1;
        s.storage_health_mut().quarantined = 1;
        s.storage_health_mut().read_only = true;
        // `scrub` is a tracked op: its latency lands in the per-op table.
        s.record("scrub", 50, false);
        assert_eq!(s.op("scrub").unwrap().requests, 1);
        let v = s.to_value(CacheCounters::default(), 0, 4);
        let text = serde_json::to_string(&crate::protocol::Json(v)).unwrap();
        assert!(text.contains("\"storage_health\""), "{text}");
        assert!(text.contains("\"corrupt_detected\":3"), "{text}");
        assert!(text.contains("\"repaired_from_memory\":1"), "{text}");
        assert!(text.contains("\"quarantined\":1"), "{text}");
        assert!(text.contains("\"read_only\":true"), "{text}");
        assert!(text.contains("\"scrub\""), "{text}");
    }

    #[test]
    fn robustness_events_count_without_touching_histograms() {
        let mut s = ServiceStats::default();
        s.record("eval", 100, false);
        s.note(RobustnessEvent::Panic);
        s.note(RobustnessEvent::Respawn);
        s.note(RobustnessEvent::Overloaded);
        s.note(RobustnessEvent::Overloaded);
        s.note(RobustnessEvent::DeadlineExceeded);
        s.note(RobustnessEvent::RequestTooLarge);
        s.note(RobustnessEvent::ConnectionReaped);
        let r = s.robustness();
        assert_eq!(r.panics, 1);
        // Durability counters surface in the same snapshot.
        s.durability_mut().records_appended = 7;
        s.durability_mut().torn_tail_recoveries = 1;
        let text = serde_json::to_string(&crate::protocol::Json(s.to_value(
            CacheCounters::default(),
            0,
            4,
        )))
        .unwrap();
        assert!(text.contains("\"durability\""), "{text}");
        assert!(text.contains("\"records_appended\":7"), "{text}");
        assert!(text.contains("\"torn_tail_recoveries\":1"), "{text}");
        assert_eq!(r.respawns, 1);
        assert_eq!(r.overloaded, 2);
        assert_eq!(r.deadline_exceeded, 1);
        assert_eq!(r.request_too_large, 1);
        assert_eq!(r.connections_reaped, 1);
        // Shed requests never land in the latency histograms.
        assert_eq!(s.total_requests(), 1);
        assert_eq!(s.op("eval").unwrap().latency.count(), 1);
        // The snapshot always carries the robustness block, zeros or not.
        let v = s.to_value(CacheCounters::default(), 0, 4);
        let text = serde_json::to_string(&crate::protocol::Json(v)).unwrap();
        assert!(text.contains("\"robustness\""), "{text}");
        assert!(text.contains("\"respawns\":1"), "{text}");
    }
}
