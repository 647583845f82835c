//! Long-running assessment service for `depcase` dependability cases.
//!
//! A risk-assessment workflow rarely evaluates a case once: the same
//! argument graph is propagated, ranked, Monte-Carlo cross-checked, and
//! banded over and over as evidence firms up. This crate turns the
//! library into a resident engine so those repeat evaluations amortise
//! the per-case compilation work:
//!
//! - **Registry** — cases are loaded under client-chosen names and
//!   versioned on every reload ([`Engine`]).
//! - **Plan cache** — compiled [`EvalPlan`](depcase::assurance::EvalPlan)s,
//!   analytic reports, live [`Incremental`](depcase::assurance::Incremental)
//!   sessions and their rendered `eval` text are kept in an LRU keyed by
//!   [`Case::content_hash`](depcase::assurance::Case::content_hash), so
//!   an unchanged case never recompiles ([`PlanCache`]).
//! - **Incremental edits** — the `edit` op mutates a loaded case (set a
//!   leaf confidence, add a leaf, retarget a support edge) and bumps its
//!   version, recomputing only the edited node's ancestor spine via the
//!   cached session's subtree-hash memo; `stats` reports the
//!   `nodes_recomputed` / `nodes_reused` tally ([`IncrementalCounters`]).
//! - **Durability** — with `--data-dir`, every acked `load`/`edit` is
//!   written ahead to a checksummed WAL before the response is
//!   released, periodic content-addressed snapshots bound replay time,
//!   and a restart (or `kill -9`) recovers exactly the acked state —
//!   including the full version history behind time-travel `eval`
//!   ([`wal`], [`snapshot`], [`Engine::open`]).
//! - **Wire protocol** — newline-delimited JSON over a localhost TCP
//!   listener (one `epoll` I/O thread reads, workers write replies) or
//!   over stdin/stdout, with stable machine-readable error codes
//!   ([`protocol`]).
//! - **Worker pool** — requests are claimed dynamically by a pool of
//!   workers, the same discipline as the parallel Monte-Carlo engine's
//!   chunk claiming ([`Server`]).
//! - **Observability** — per-operation latency histograms and cache
//!   hit/miss counters, dumped by the `stats` op and on shutdown
//!   ([`ServiceStats`]).
//!
//! Start it from the command line with `case_tool serve`, or embed it:
//!
//! ```
//! use depcase_service::{Client, Engine, Server};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::new(16));
//! let server = Server::bind(engine, ("127.0.0.1", 0), 2)?;
//! let mut client = Client::connect(server.local_addr())?;
//!
//! let response = client.round_trip(r#"{"id":1,"op":"stats"}"#).unwrap();
//! assert!(response.contains(r#""ok":true"#));
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Determinism note: the engine adds caching and transport around the
//! library, never arithmetic. Every confidence, estimate, and band
//! probability in a response is bit-identical to the value the same
//! library call returns in-process — the integration tests hold the
//! service to that with `f64::to_bits` comparisons.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cache;
pub mod client;
pub mod engine;
pub(crate) mod epoll;
pub mod faults;
pub mod protocol;
pub(crate) mod registry;
pub mod server;
pub mod snapshot;
pub mod stats;
pub mod storage_io;
pub mod telemetry;
pub mod trace;
pub mod wal;

pub use cache::{CacheCounters, Cached, PlanCache};
pub use client::{code_is_retryable, Client, RetryPolicy, RetryingClient};
pub use engine::{DurabilityConfig, Engine, EngineConfig, DEFAULT_MEMO_ENTRIES, DEFAULT_SHARDS};
pub use faults::{FaultPlan, InjectedCounts};
pub use protocol::{EditAction, Envelope, ErrorCode, EvalAt, Request, WireError, WireLeafKind};
pub use server::{serve_stdio, serve_stdio_with, Server, ServerConfig};
pub use stats::{
    CompileCounters, DurabilityCounters, Histogram, IncrementalCounters, RobustnessCounters,
    RobustnessEvent, ServiceStats, StorageHealthCounters,
};
pub use storage_io::{
    AppendFile, CrashImage, FaultyIo, RealIo, SimIo, StorageFaultPlan, StorageInjectedCounts,
    StorageIo, TailVariant,
};
pub use telemetry::{MetricsRegistry, Telemetry, TlsTracer};
pub use trace::{SpanRecord, Trace, TraceBuilder, TraceRing};
pub use wal::FsyncPolicy;

/// Locks a mutex, recovering the guard from a poisoned lock.
///
/// A panicking request handler is isolated with `catch_unwind`, so a
/// worker can die while holding (or after poisoning) a shared lock.
/// Every shared structure in this crate holds only counters, caches,
/// and registry entries whose invariants are re-established before any
/// lock is released, so the data behind a poisoned mutex is still
/// consistent — recovering it is what keeps one panic from turning
/// into a service-wide outage.
pub(crate) fn lock_unpoisoned<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
