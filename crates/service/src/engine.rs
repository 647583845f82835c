//! The assessment engine: a sharded, named, versioned case registry in
//! front of sharded compiled-plan caches and an optional global
//! content-addressed memo store, optionally backed by a durability
//! layer.
//!
//! [`Engine::handle`] is the single entry point; it is `&self` and
//! thread-safe, so any number of server workers can call it
//! concurrently. Registry and cache state is split across
//! [`EngineConfig::shards`] independent shards — names route by FNV-1a
//! hash, compiled plans by content hash — so tenants working on
//! different names contend only when their names collide on a shard,
//! not on one global mutex. Locks are held only around registry/cache
//! bookkeeping — the expensive work (plan compilation, Monte-Carlo
//! sampling) runs outside every lock, on the worker's own thread. The
//! one exception is the mutation commit path: a dedicated durability
//! mutex serializes `load`/`edit` commits **across all shards** so the
//! WAL's sequence order always equals the registry's commit order —
//! sharding changes who contends on reads, never the recovery
//! semantics — and readers never touch that lock.
//!
//! Compilation shares work across tenants: when the engine's global
//! memo store is enabled ([`EngineConfig::memo_entries`]), every
//! compile memoises per-subtree results keyed by the IR's Merkle
//! subtree hashes, so ten thousand stamped variants of one case
//! template each compute only the few subtrees their stamp actually
//! changed — bit-identically to compiling each from scratch (the memo
//! stores exact `f64` results keyed by exact content, never
//! approximations).
//!
//! The registry ([`crate::registry`]) keeps **every** version of every
//! named case reachable: each mutation appends a [`VersionRecord`] to
//! the name's history and stores the version in a content-addressed
//! object map — a `load` in full, an `edit` as a delta on its base — so
//! `history` is a map lookup and time-travel `eval` (by `version` or
//! `at_hash`) resolves in two lookups plus, on a plan-cache miss, one
//! compile of the chain's keyframe and at most 15 replayed edits.
//!
//! With [`Engine::open`], every acked mutation is written ahead to a
//! WAL before the response is released, periodic content-addressed
//! snapshots bound replay time, and a restart replays snapshot + WAL
//! tail back to exactly the acked state (see the [`crate::wal`] and
//! [`crate::snapshot`] docs for the formats and crash-ordering rules).
//!
//! Numeric discipline: every number in a response is produced by exactly
//! the same library call a direct user would make — the engine adds
//! caching, durability, and transport, never arithmetic — so responses
//! are bit-identical to in-process evaluation (the integration tests
//! assert this via `f64::to_bits`).

use crate::cache::{render, CacheCounters, Cached, PlanCache};
use crate::lock_unpoisoned;
use crate::protocol::{
    format_hash, lib_error, BatchItem, EditAction, ErrorCode, EvalAt, Request, Response, WireError,
};
use crate::registry::{
    apply_action, open_plain, shard_of, write_documents, Bases, CaseEntry, NamedCase, PackedCase,
    Registry,
};
use crate::snapshot::{Manifest, ManifestCase, Store, VersionRecord};
use crate::stats::{CompileCounters, RobustnessCounters, RobustnessEvent, ServiceStats};
use crate::storage_io::{RealIo, StorageIo};
use crate::telemetry::{self, MetricsRegistry, Telemetry, TlsTracer};
use crate::wal::{FsyncPolicy, OpRef, RecordRef, Wal, WalOp, WalRecord};
use depcase::assurance::{
    Case, ConfidenceReport, EvalPlan, Incremental, MemoStoreStats, MonteCarlo, SharedMemo,
};
use depcase::distributions::TwoPoint;
use depcase::sil::{SilAssessment, SilLevel};
use serde::{Deserialize, Value};
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::available_parallelism;
use std::time::{Duration, Instant};

/// Fails with `deadline_exceeded` once `deadline` has passed. Called
/// between pipeline stages (after parse, after lookup/compile, before
/// heavy math), so a request that runs over budget stops at the next
/// stage boundary instead of holding a worker indefinitely. `mc`
/// additionally polls the deadline between sample chunks, so even a
/// huge sampling request overshoots by at most one chunk.
fn check_deadline(deadline: Option<Instant>) -> Result<(), WireError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(WireError::new(
            ErrorCode::DeadlineExceeded,
            "request deadline exceeded before the answer was ready",
        )),
        _ => Ok(()),
    }
}

/// Backoff hint attached to `read_only` answers: long enough for an
/// operator (or the fault window) to clear a transient disk problem,
/// short enough that a retrying client probes the disk promptly once
/// space returns.
const READ_ONLY_RETRY_MS: u64 = 250;

/// Milliseconds since the Unix epoch (0 if the clock is before 1970).
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Default shard count for registry and plan-cache state.
pub const DEFAULT_SHARDS: usize = 8;

/// Default capacity of the global content-addressed memo store
/// (entries, not bytes; one entry is a subtree hash plus three `f64`s).
pub const DEFAULT_MEMO_ENTRIES: usize = 1 << 18;

/// Construction-time tuning for [`Engine::with_config`]: how much
/// compiled state to keep and how widely to stripe it.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Total compiled cases kept across all plan-cache shards
    /// (`--cache`).
    pub cache_capacity: usize,
    /// Registry/cache shards (`--shards`). Clamped to
    /// `[1, cache_capacity]` so a tiny cache is never striped thinner
    /// than one entry per shard.
    pub shards: usize,
    /// Capacity of the global content-addressed memo store shared by
    /// every compile (`--memo-cap`); 0 disables it, giving each
    /// compile a private per-session memo instead.
    pub memo_entries: usize,
}

impl EngineConfig {
    /// Defaults for `cache_capacity`: [`DEFAULT_SHARDS`] shards and a
    /// [`DEFAULT_MEMO_ENTRIES`]-entry global memo store.
    #[must_use]
    pub fn new(cache_capacity: usize) -> Self {
        EngineConfig { cache_capacity, shards: DEFAULT_SHARDS, memo_entries: DEFAULT_MEMO_ENTRIES }
    }
}

/// Configuration for [`Engine::open`]'s durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL, manifest, and object store; created
    /// if absent.
    pub data_dir: PathBuf,
    /// When WAL appends reach stable storage (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Take a snapshot and truncate the WAL every this many mutations
    /// (`--snapshot-every`); 0 disables periodic snapshots.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Defaults for `data_dir`: no per-append fsync, snapshot every 256
    /// mutations.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 256,
        }
    }
}

/// The open durability state, guarded by one mutex so mutations commit
/// in WAL-sequence order.
#[derive(Debug)]
struct Durability {
    store: Store,
    wal: Wal,
    snapshot_every: u64,
    /// WAL records appended since the last snapshot (or startup replay
    /// tail length), the periodic-snapshot trigger.
    since_snapshot: u64,
    /// Next WAL sequence number to assign.
    next_seq: u64,
}

/// What the scrub/repair pipeline knows to be damaged: object hashes
/// whose stored bytes failed verification (quarantined on disk, absent
/// from the registry's object map), and case names whose recovered
/// state could not be reconstructed faithfully. Reads that resolve to
/// either answer `data_corrupted` — corrupt state is never served as
/// if it were healthy.
#[derive(Debug, Default)]
struct CorruptState {
    hashes: HashSet<u64>,
    names: HashSet<String>,
}

/// Everything a Monte-Carlo response depends on, used to coalesce
/// concurrent identical runs into one flight. `threads` is deliberately
/// absent: chunked sampling is bit-identical at any thread count, so
/// requests differing only in `threads` produce the same bytes and may
/// share one run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct McKey {
    name: String,
    version: u64,
    hash: u64,
    samples: u32,
    seed: u64,
}

/// The shared state of one in-flight coalesced run: followers block on
/// the condvar until the leader publishes the outcome.
#[derive(Debug)]
enum FlightSlot {
    Running,
    Done(Result<Value, WireError>),
}

type Flight = Arc<(Mutex<FlightSlot>, Condvar)>;

/// Publishes the leader's outcome even on unwind: dropping the guard
/// removes the flight from the table and wakes every follower — with
/// `internal_error` if the leader never stored a real result — so a
/// panicking sampler (the server's worker isolation catches the panic
/// itself) can never strand followers on the condvar.
struct FlightGuard<'a> {
    flights: &'a Mutex<HashMap<McKey, Flight>>,
    key: &'a McKey,
    flight: &'a Flight,
    outcome: Option<Result<Value, WireError>>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| {
            Err(WireError::new(
                ErrorCode::InternalError,
                "the coalesced sampling run did not complete",
            ))
        });
        lock_unpoisoned(self.flights).remove(self.key);
        let (slot, signal) = &**self.flight;
        *lock_unpoisoned(slot) = FlightSlot::Done(outcome);
        signal.notify_all();
    }
}

/// Blocks until the flight completes or `deadline` passes; `None` means
/// the wait timed out with the leader still running.
fn wait_for_flight(flight: &Flight, deadline: Option<Instant>) -> Option<Result<Value, WireError>> {
    let (slot, signal) = &**flight;
    let mut state = lock_unpoisoned(slot);
    loop {
        if let FlightSlot::Done(result) = &*state {
            return Some(result.clone());
        }
        state = match deadline {
            None => signal.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner),
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    return None;
                }
                signal
                    .wait_timeout(state, d - now)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0
            }
        };
    }
}

/// The long-running assessment engine.
#[derive(Debug)]
pub struct Engine {
    /// Registry shards, indexed by [`shard_of`] the case name. Each
    /// shard has its own lock; no operation holds two at once.
    registries: Vec<Mutex<Registry>>,
    /// Full documents that confidence-only loads are stored as patches of.
    bases: Bases,
    /// Plan-cache shards, indexed by content hash (decoupled from the
    /// name shard: every cache access site already has the hash).
    caches: Vec<Mutex<PlanCache>>,
    /// The global content-addressed memo store shared by every compile;
    /// `None` when disabled (`memo_entries: 0`).
    memo: Option<Arc<SharedMemo>>,
    stats: Mutex<ServiceStats>,
    /// `Some` for durable engines. Also taken (even when `None`) to
    /// serialize mutation commits.
    durability: Mutex<Option<Durability>>,
    /// In-flight Monte-Carlo runs, keyed by everything the response
    /// depends on; a request arriving while an identical run is already
    /// sampling joins it instead of re-sampling.
    mc_flights: Mutex<HashMap<McKey, Flight>>,
    /// Requests answered by joining another request's in-flight run.
    coalesced: AtomicU64,
    /// Set while the WAL cannot take appends (disk full, IO errors):
    /// mutations answer `read_only` + `retry_after_ms` while reads keep
    /// being served from memory. Every mutation attempt still probes
    /// the disk, so the flag clears itself on the first append that
    /// lands — no operator action needed once space returns.
    read_only: AtomicBool,
    /// Objects and names the scrub/repair pipeline has quarantined.
    corrupt: Mutex<CorruptState>,
    /// Tracing, latency decomposition, and the metrics registry.
    telemetry: Arc<Telemetry>,
}

impl Engine {
    /// Creates an in-memory engine whose plan caches hold
    /// `cache_capacity` compiled cases in total, with the default shard
    /// count and memo store. Nothing survives a restart, but version
    /// history and time-travel still work within the process.
    #[must_use]
    pub fn new(cache_capacity: usize) -> Self {
        Engine::with_config(&EngineConfig::new(cache_capacity))
    }

    /// Creates an in-memory engine with explicit sharding and memo
    /// sizing. The shard count is clamped to `[1, cache_capacity]`
    /// (each cache shard holds at least one entry); the total cache
    /// capacity is split evenly across shards, rounding up.
    #[must_use]
    pub fn with_config(config: &EngineConfig) -> Self {
        let shards = config.shards.clamp(1, config.cache_capacity.max(1));
        let per_shard_cache = config.cache_capacity.div_ceil(shards);
        Engine {
            registries: (0..shards).map(|_| Mutex::new(Registry::default())).collect(),
            bases: Bases::default(),
            caches: (0..shards).map(|_| Mutex::new(PlanCache::new(per_shard_cache))).collect(),
            memo: (config.memo_entries > 0).then(|| Arc::new(SharedMemo::new(config.memo_entries))),
            stats: Mutex::new(ServiceStats::default()),
            durability: Mutex::new(None),
            mc_flights: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            read_only: AtomicBool::new(false),
            corrupt: Mutex::new(CorruptState::default()),
            telemetry: Arc::new(Telemetry::new()),
        }
    }

    /// The registry shard owning `name`.
    fn registry(&self, name: &str) -> &Mutex<Registry> {
        &self.registries[shard_of(name, self.registries.len())]
    }

    /// The plan-cache shard owning content hash `hash`.
    fn cache(&self, hash: u64) -> &Mutex<PlanCache> {
        let n = self.caches.len() as u64;
        &self.caches[usize::try_from(hash % n).expect("shard index fits usize")]
    }

    /// Rewrites one object from the registry's stored version (the
    /// repair source), searching every shard — shard locks are taken one
    /// at a time, never together, and none is held while writing.
    fn repair_object(&self, store: &Store, hash: u64) -> bool {
        let find = |shard: &Mutex<Registry>| lock_unpoisoned(shard).objects.get(&hash).cloned();
        self.registries.iter().find_map(find).is_some_and(|version| {
            write_documents(vec![(hash, version)], |h, doc| store.rewrite_object_text(h, doc))
                .is_ok()
        })
    }

    /// Aggregated cache counters plus total entries/capacity, collected
    /// shard by shard.
    fn cache_totals(&self) -> (CacheCounters, usize, usize) {
        let mut totals = CacheCounters::default();
        let (mut entries, mut capacity) = (0usize, 0usize);
        for shard in &self.caches {
            let cache = lock_unpoisoned(shard);
            let c = cache.counters();
            totals.hits += c.hits;
            totals.misses += c.misses;
            totals.evictions += c.evictions;
            entries += cache.len();
            capacity += cache.capacity();
        }
        (totals, entries, capacity)
    }

    /// Number of registry/cache shards this engine was built with.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.registries.len()
    }

    /// Counter snapshot of the global memo store; `None` when the
    /// store is disabled.
    #[must_use]
    pub fn memo_stats(&self) -> Option<MemoStoreStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// Snapshot of the compile counters (for tests and benches).
    #[must_use]
    pub fn compile_counters(&self) -> CompileCounters {
        lock_unpoisoned(&self.stats).compile()
    }

    /// The engine's observability hub: per-request tracing, latency
    /// decomposition, the slow-request log, and the metrics registry.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Opens a durable engine: recovers the registry from the snapshot
    /// and WAL tail under `config.data_dir` (truncating a torn final
    /// record if the last run died mid-write), then logs every
    /// subsequent acked mutation ahead of its response.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the data directory is unusable, or with
    /// kind `InvalidData` when the manifest itself is corrupt —
    /// deliberately a hard error, because silently re-initializing a
    /// store that an operator believes holds audit history would be
    /// worse than refusing to start. A corrupt *object* or an
    /// unreplayable WAL record is survivable: the damaged state is
    /// quarantined and answers `data_corrupted` while every healthy
    /// case keeps serving (see [`Engine::open_with_io`]).
    pub fn open(cache_capacity: usize, config: &DurabilityConfig) -> std::io::Result<Engine> {
        Engine::open_with_io(cache_capacity, config, RealIo::shared())
    }

    /// [`Engine::open`] with explicit sharding and memo sizing.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] as for [`Engine::open`].
    pub fn open_config(
        config: &EngineConfig,
        durability: &DurabilityConfig,
    ) -> std::io::Result<Engine> {
        Engine::open_config_with_io(config, durability, RealIo::shared())
    }

    /// [`Engine::open`] over an explicit [`StorageIo`] — the seam the
    /// fault-injection and crash-matrix tests use to run the real
    /// recovery code against simulated or faulty disks.
    ///
    /// Recovery degrades instead of refusing: a snapshot object whose
    /// bytes fail their content-hash check is quarantined (moved to
    /// `quarantine/` under the data dir) and the WAL tail is given a
    /// chance to rebuild it; a WAL record that cannot be replayed
    /// poisons just its case name. Whatever remains damaged afterwards
    /// answers `data_corrupted` on access rather than being served.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the data directory is unusable or the
    /// manifest is corrupt.
    pub fn open_with_io(
        cache_capacity: usize,
        config: &DurabilityConfig,
        io: Arc<dyn StorageIo>,
    ) -> std::io::Result<Engine> {
        Engine::open_config_with_io(&EngineConfig::new(cache_capacity), config, io)
    }

    /// [`Engine::open_with_io`] with explicit sharding and memo sizing
    /// — the full-control constructor every other one funnels into.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] as for [`Engine::open`].
    pub fn open_config_with_io(
        engine_config: &EngineConfig,
        config: &DurabilityConfig,
        io: Arc<dyn StorageIo>,
    ) -> std::io::Result<Engine> {
        let engine = Engine::with_config(engine_config);
        let store = Store::open_with_io(&config.data_dir, io)?;
        let manifest = store.load_manifest()?;
        let mut last_seq = 0u64;
        if let Some(manifest) = &manifest {
            last_seq = manifest.seq;
            engine.restore_snapshot(&store, manifest)?;
        }
        let (wal, replay) = Wal::open_with_io(store.wal_path(), config.fsync, store.io())?;
        if replay.torn_tail_dropped {
            eprintln!(
                "depcase-service: wal: dropped a torn tail ({} bytes); \
                 resuming from the last intact record",
                replay.bytes_dropped
            );
        }
        let mut replayed = 0u64;
        let mut poisoned: HashSet<String> = HashSet::new();
        for record in &replay.records {
            if record.seq <= last_seq {
                // The snapshot already covers this record: the last run
                // died between writing the manifest and truncating the
                // WAL. Skipping keeps replay idempotent.
                continue;
            }
            last_seq = record.seq;
            match engine.replay_record(record) {
                Ok(()) => {
                    // A `load` is a full state reset: it re-establishes
                    // the name from scratch, clearing earlier damage —
                    // including a quarantine from the snapshot restore.
                    if matches!(record.op, WalOp::Load { .. }) {
                        poisoned.remove(&record.name);
                        lock_unpoisoned(&engine.corrupt).names.remove(&record.name);
                    }
                    replayed += 1;
                }
                Err(e) => {
                    // Skipping a record would silently serve a stale
                    // version as current; poison the name instead so
                    // reads answer `data_corrupted`.
                    eprintln!(
                        "depcase-service: wal replay: {e}; case `{}` quarantined",
                        record.name
                    );
                    poisoned.insert(record.name.clone());
                }
            }
        }
        engine.heal_after_replay(&store, poisoned);
        {
            let mut stats = lock_unpoisoned(&engine.stats);
            let counters = stats.durability_mut();
            counters.records_replayed = replayed;
            counters.torn_tail_recoveries = u64::from(replay.torn_tail_dropped);
        }
        *lock_unpoisoned(&engine.durability) = Some(Durability {
            store,
            wal,
            snapshot_every: config.snapshot_every,
            since_snapshot: replayed,
            next_seq: last_seq + 1,
        });
        Ok(engine)
    }

    /// Post-replay fixpoint: any quarantined object the WAL replay has
    /// re-parked in the registry is rewritten to the store from that
    /// in-memory copy's document (counted `repaired_from_wal`), and
    /// a poisoned name whose registry state is unreconstructable is
    /// dropped from serving entirely so `data_corrupted` is the only
    /// answer it gives.
    fn heal_after_replay(&self, store: &Store, poisoned: HashSet<String>) {
        let quarantined: Vec<u64> = lock_unpoisoned(&self.corrupt).hashes.iter().copied().collect();
        let healed: Vec<u64> =
            quarantined.into_iter().filter(|hash| self.repair_object(store, *hash)).collect();
        let mut corrupt = lock_unpoisoned(&self.corrupt);
        let mut stats = lock_unpoisoned(&self.stats);
        for hash in healed {
            corrupt.hashes.remove(&hash);
            stats.storage_health_mut().repaired_from_wal += 1;
        }
        for name in poisoned {
            lock_unpoisoned(self.registry(&name)).cases.remove(&name);
            corrupt.names.insert(name);
        }
    }

    /// True when this engine writes mutations ahead to a WAL.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        lock_unpoisoned(&self.durability).is_some()
    }

    /// Forces everything acked so far to stable storage regardless of
    /// fsync policy. Graceful drain calls this; a no-op for in-memory
    /// engines.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the sync fails.
    pub fn flush_durability(&self) -> std::io::Result<()> {
        let mut durability = lock_unpoisoned(&self.durability);
        if let Some(d) = durability.as_mut() {
            d.wal.sync()?;
            lock_unpoisoned(&self.stats).durability_mut().fsyncs += 1;
        }
        Ok(())
    }

    /// Rebuilds registry state from a snapshot manifest. Objects are
    /// verified against their content address as they are read; one
    /// whose bytes do not hash back is quarantined and skipped rather
    /// than failing the whole restore — the WAL tail may rebuild it
    /// ([`Engine::heal_after_replay`]), and until something does, reads
    /// that resolve to it answer `data_corrupted`.
    ///
    /// This thread reads each object once, in manifest order, while
    /// [`verify_all`] decodes and hashes them on the other cores; they
    /// are then parked or quarantined in manifest order, so the store
    /// sees the same operations whatever the scheduling.
    fn restore_snapshot(&self, store: &Store, manifest: &Manifest) -> std::io::Result<()> {
        let mut seen = HashSet::new();
        let hashes = manifest.cases.iter().flat_map(|c| &c.history).map(|record| record.hash);
        let reads = hashes.filter(|&hash| seen.insert(hash));
        let verified = verify_all(reads.map(|hash| (hash, store.read_object_text(hash))));
        for snap_case in &manifest.cases {
            // Objects park in the shard that owns the case's name.
            let shard = self.registry(&snap_case.name);
            for record in &snap_case.history {
                if lock_unpoisoned(shard).objects.contains_key(&record.hash) {
                    continue;
                }
                match &verified[&record.hash] {
                    Ok(packed) => {
                        lock_unpoisoned(shard).objects.insert(record.hash, packed.clone());
                    }
                    Err(reason) => self.quarantine(store, record.hash, reason),
                }
            }
            // The name serves only if its **newest** version survived —
            // presenting an older version as current would silently
            // roll acked state back. A corrupt current quarantines the
            // whole name (`data_corrupted` on access) until WAL replay
            // or a fresh `load` re-establishes it; corrupt *historical*
            // versions leave the name serving and fail only time-travel
            // reads that resolve to them.
            let last = *snap_case.history.last().expect("manifest history is never empty");
            let mut registry = lock_unpoisoned(shard);
            if let Some(case) = registry.objects.get(&last.hash).cloned() {
                registry.cases.insert(
                    snap_case.name.clone(),
                    NamedCase {
                        current: CaseEntry { case, version: last.version, hash: last.hash },
                        history: snap_case.history.clone(),
                    },
                );
            } else {
                drop(registry);
                lock_unpoisoned(&self.corrupt).names.insert(snap_case.name.clone());
            }
        }
        Ok(())
    }

    /// Pulls one object off the store and quarantines it: the damaged
    /// bytes move to `quarantine/` (kept for forensics, out of the
    /// serving path) and the health counters record the detection.
    fn quarantine(&self, store: &Store, hash: u64, reason: &str) {
        eprintln!(
            "depcase-service: object {} is corrupt ({reason}); quarantined",
            format_hash(hash)
        );
        let moved = store.quarantine_object(hash).is_ok();
        lock_unpoisoned(&self.corrupt).hashes.insert(hash);
        let mut stats = lock_unpoisoned(&self.stats);
        let health = stats.storage_health_mut();
        health.corrupt_detected += 1;
        health.quarantined += u64::from(moved);
    }

    /// Re-applies one WAL record to the registry. Edits replay against
    /// the logged **base** hash — the exact stored state the action was
    /// originally applied to — so recovery is deterministic even when
    /// the live run interleaved concurrent edits; the logged result
    /// hash then double-checks that replay reproduced the same case.
    fn replay_record(&self, record: &WalRecord) -> Result<(), String> {
        let seq = record.seq;
        let (packed, hash) = match &record.op {
            WalOp::Load { doc } => {
                let case =
                    Case::from_value(doc).map_err(|e| format!("replaying load #{seq}: {e}"))?;
                (PackedCase::pack_load(&case, &self.bases), case.content_hash())
            }
            WalOp::Edit { base_hash, action } => {
                // The base committed under the same name, so it parked
                // in this name's shard.
                let base = lock_unpoisoned(self.registry(&record.name))
                    .objects
                    .get(base_hash)
                    .cloned()
                    .ok_or_else(|| {
                        format!(
                            "replaying edit #{seq}: base object {} is missing",
                            format_hash(*base_hash)
                        )
                    })?;
                let session = base
                    .materialize(&mut open_plain)
                    .and_then(|mut session| apply_action(&mut session, action).map(|_| session))
                    .map_err(|e| format!("replaying edit #{seq}: {}", e.message))?;
                (base.edited(action, session.case()), session.case_hash())
            }
        };
        if hash != record.hash {
            return Err(format!(
                "replaying record #{seq} produced hash {} but the log says {}",
                format_hash(hash),
                format_hash(record.hash)
            ));
        }
        let timestamps =
            VersionRecord { version: record.version, hash: record.hash, ts_ms: record.ts_ms };
        lock_unpoisoned(self.registry(&record.name)).commit(&record.name, packed, timestamps);
        Ok(())
    }

    /// Handles one parsed request, recording latency and error counters.
    ///
    /// # Errors
    ///
    /// [`WireError`] carrying the stable wire code for the failure.
    pub fn handle(&self, request: &Request) -> Result<Value, WireError> {
        self.handle_deadline(request, None)
    }

    /// Like [`Engine::handle`], but fails with `deadline_exceeded` at
    /// the next pipeline-stage boundary (or, for `mc`, the next sample
    /// chunk) once `deadline` passes.
    ///
    /// # Errors
    ///
    /// [`WireError`] carrying the stable wire code for the failure.
    pub fn handle_deadline(
        &self,
        request: &Request,
        deadline: Option<Instant>,
    ) -> Result<Value, WireError> {
        let started = Instant::now();
        let result = self.dispatch(request, deadline);
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut stats = lock_unpoisoned(&self.stats);
        stats.record(request.op_name(), elapsed_us, result.is_err());
        if matches!(&result, Err(e) if e.code == ErrorCode::DeadlineExceeded) {
            stats.note(RobustnessEvent::DeadlineExceeded);
        }
        result
    }

    /// Counts one fault-tolerance event (panic, respawn, shed request…)
    /// in the stats the `stats` op and the shutdown dump report.
    pub fn note(&self, event: RobustnessEvent) {
        lock_unpoisoned(&self.stats).note(event);
    }

    /// Counts one rejected request (`overloaded` / `request_too_large`)
    /// along with how long the server took to answer the rejection, so
    /// shed traffic shows up in a latency histogram instead of
    /// disappearing from p99 exactly when the service is saturated.
    pub fn note_rejection(&self, event: RobustnessEvent, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        lock_unpoisoned(&self.stats).note_rejection(event, us);
    }

    /// Snapshot of the fault-tolerance counters (for tests and benches).
    #[must_use]
    pub fn robustness(&self) -> RobustnessCounters {
        lock_unpoisoned(&self.stats).robustness()
    }

    /// Snapshot of the durability counters (for tests and benches).
    #[must_use]
    pub fn durability_counters(&self) -> crate::stats::DurabilityCounters {
        lock_unpoisoned(&self.stats).durability()
    }

    /// Snapshot of the storage-health counters (for tests and benches).
    #[must_use]
    pub fn storage_health(&self) -> crate::stats::StorageHealthCounters {
        lock_unpoisoned(&self.stats).storage_health()
    }

    /// True while the engine is refusing mutations with `read_only`
    /// (the WAL cannot take appends). Reads keep being served.
    #[must_use]
    pub fn read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    fn dispatch(&self, request: &Request, deadline: Option<Instant>) -> Result<Value, WireError> {
        check_deadline(deadline)?;
        match request {
            Request::Load { name, case } => self.load(name, case),
            Request::Eval { name, at } => self.eval(name, at.as_ref(), deadline),
            Request::History { name } => self.history(name),
            Request::Edit { name, action } => self.edit(name, action, deadline),
            Request::Rank { name } => self.rank(name, deadline),
            Request::Mc { name, samples, seed, threads } => {
                self.mc(name, *samples, *seed, *threads, deadline)
            }
            Request::Bands { name, pfd_bound, mode } => {
                self.bands(name, *pfd_bound, mode.to_lib(), deadline)
            }
            Request::Stats | Request::Shutdown => Ok(self.stats_value()),
            Request::Trace { limit } => Ok(self.telemetry.trace_value(*limit)),
            Request::Metrics { prometheus } => Ok(self.metrics_value(*prometheus)),
            Request::Scrub => self.scrub(),
            Request::Batch { items } => self.batch(items, deadline),
        }
    }

    /// Requests answered by joining another request's identical
    /// in-flight Monte-Carlo run (for tests and the bench harness).
    #[must_use]
    pub fn coalesced_joins(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// The current stats snapshot as a wire value (also the `shutdown`
    /// response body, so a final dump always reaches the client).
    #[must_use]
    pub fn stats_value(&self) -> Value {
        let (counters, entries, capacity) = self.cache_totals();
        let mut value = lock_unpoisoned(&self.stats).to_value(counters, entries, capacity);
        if let Value::Object(fields) = &mut value {
            fields.push(("shards".to_string(), self.shards_value()));
            fields.push(("memo_store".to_string(), self.memo_value()));
            fields.push(("build".to_string(), self.build_value()));
        }
        value
    }

    /// The `stats` response's `shards` block: per-shard registry and
    /// cache occupancy, collected one shard at a time — assembling this
    /// snapshot never stops the other shards from serving.
    fn shards_value(&self) -> Value {
        let per_shard: Vec<Value> = (0..self.registries.len())
            .map(|i| {
                let (cases, objects) = {
                    let registry = lock_unpoisoned(&self.registries[i]);
                    (registry.cases.len() as u64, registry.objects.len() as u64)
                };
                let (counters, entries, capacity) = {
                    let cache = lock_unpoisoned(&self.caches[i]);
                    (cache.counters(), cache.len() as u64, cache.capacity() as u64)
                };
                Value::Object(vec![
                    ("shard".to_string(), Value::U64(i as u64)),
                    ("cases".to_string(), Value::U64(cases)),
                    ("objects".to_string(), Value::U64(objects)),
                    ("cache_entries".to_string(), Value::U64(entries)),
                    ("cache_capacity".to_string(), Value::U64(capacity)),
                    ("cache_hits".to_string(), Value::U64(counters.hits)),
                    ("cache_misses".to_string(), Value::U64(counters.misses)),
                    ("cache_evictions".to_string(), Value::U64(counters.evictions)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("count".to_string(), Value::U64(self.registries.len() as u64)),
            ("per_shard".to_string(), Value::Array(per_shard)),
        ])
    }

    /// The `stats` response's `memo_store` block: the global
    /// content-addressed result store's counters, or `enabled: false`.
    fn memo_value(&self) -> Value {
        match self.memo_stats() {
            None => Value::Object(vec![("enabled".to_string(), Value::Bool(false))]),
            Some(s) => {
                let lookups = s.hits + s.misses;
                let hit_rate = if lookups == 0 { 0.0 } else { s.hits as f64 / lookups as f64 };
                Value::Object(vec![
                    ("enabled".to_string(), Value::Bool(true)),
                    ("entries".to_string(), Value::U64(s.entries)),
                    ("capacity".to_string(), Value::U64(s.capacity)),
                    ("hits".to_string(), Value::U64(s.hits)),
                    ("misses".to_string(), Value::U64(s.misses)),
                    ("insertions".to_string(), Value::U64(s.insertions)),
                    ("evictions".to_string(), Value::U64(s.evictions)),
                    ("hit_rate".to_string(), Value::F64(hit_rate)),
                ])
            }
        }
    }

    /// The `stats` response's `build` block: what is running, speaking
    /// which schema, over which transport, for how long.
    fn build_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), Value::Str(env!("CARGO_PKG_VERSION").to_string())),
            (
                "case_schema_version".to_string(),
                Value::U64(depcase::assurance::CASE_SCHEMA_VERSION),
            ),
            ("uptime_seconds".to_string(), Value::U64(self.telemetry.uptime_seconds())),
            ("transport".to_string(), Value::Str(self.telemetry.transport())),
        ])
    }

    /// The `metrics` op: assembles the unified registry from the stats
    /// snapshot, the cache counters, and the telemetry decomposition,
    /// rendered as JSON or (`prometheus: true`) wrapped text exposition.
    fn metrics_value(&self, prometheus: bool) -> Value {
        let mut reg = MetricsRegistry::new();
        reg.gauge(
            "depcase_build_info",
            "Build metadata carried as labels; value is always 1",
            &[
                ("version", env!("CARGO_PKG_VERSION").to_string()),
                ("case_schema_version", depcase::assurance::CASE_SCHEMA_VERSION.to_string()),
                ("transport", self.telemetry.transport()),
            ],
            1.0,
        );
        {
            let (counters, entries, capacity) = self.cache_totals();
            reg.counter(
                "depcase_plan_cache_hits_total",
                "Plan-cache lookups that hit",
                &[],
                counters.hits,
            );
            reg.counter(
                "depcase_plan_cache_misses_total",
                "Plan-cache lookups that missed",
                &[],
                counters.misses,
            );
            reg.counter(
                "depcase_plan_cache_evictions_total",
                "Compiled cases displaced by capacity",
                &[],
                counters.evictions,
            );
            reg.gauge(
                "depcase_plan_cache_entries",
                "Compiled cases currently cached",
                &[],
                entries as f64,
            );
            reg.gauge("depcase_plan_cache_capacity", "Plan-cache capacity", &[], capacity as f64);
        }
        reg.counter(
            "depcase_mc_coalesced_joins_total",
            "Monte-Carlo requests answered by joining an identical in-flight run",
            &[],
            self.coalesced.load(Ordering::Relaxed),
        );
        reg.gauge(
            "depcase_registry_shards",
            "Registry/plan-cache shard count",
            &[],
            self.registries.len() as f64,
        );
        if let Some(s) = self.memo_stats() {
            reg.counter("depcase_memo_store_hits_total", "Global memo store hits", &[], s.hits);
            reg.counter(
                "depcase_memo_store_misses_total",
                "Global memo store misses",
                &[],
                s.misses,
            );
            reg.counter(
                "depcase_memo_store_insertions_total",
                "Global memo store insertions",
                &[],
                s.insertions,
            );
            reg.counter(
                "depcase_memo_store_evictions_total",
                "Global memo store second-chance evictions",
                &[],
                s.evictions,
            );
            reg.gauge(
                "depcase_memo_store_entries",
                "Global memo store live entries",
                &[],
                s.entries as f64,
            );
            reg.gauge(
                "depcase_memo_store_capacity",
                "Global memo store capacity",
                &[],
                s.capacity as f64,
            );
        }
        lock_unpoisoned(&self.stats).collect_metrics(&mut reg);
        self.telemetry.collect_metrics(&mut reg);
        if prometheus {
            Value::Object(vec![("text".to_string(), Value::Str(reg.prometheus_text()))])
        } else {
            reg.to_value()
        }
    }

    /// Aggregated cache counters across every shard (for tests and the
    /// bench harness).
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.cache_totals().0
    }

    /// Commits one mutation: assigns the next version, writes the WAL
    /// record ahead of the ack (durable engines), updates the registry,
    /// and takes a periodic snapshot when one is due.
    ///
    /// The durability mutex is held for the whole commit — version
    /// assignment, append, registry update — so WAL sequence order and
    /// registry commit order are the same order **across every shard**,
    /// which is what makes replay deterministic: sharding stripes the
    /// read path, never the commit order. The shard lock itself is only
    /// taken for the brief map updates, so readers (`eval`, `history`,
    /// …) never wait on an fsync.
    fn commit_mutation(
        &self,
        name: &str,
        case: PackedCase,
        hash: u64,
        op: OpRef<'_>,
    ) -> Result<u64, WireError> {
        let mut durability = lock_unpoisoned(&self.durability);
        let version = {
            let registry = lock_unpoisoned(self.registry(name));
            registry.cases.get(name).map_or(1, |named| named.current.version + 1)
        };
        let ts_ms = now_ms();
        if let Some(d) = durability.as_mut() {
            let record = RecordRef { seq: d.next_seq, ts_ms, name, version, hash, op };
            // Write-ahead discipline: if this append (or its fsync)
            // fails, the WAL rolls the partial bytes back, the registry
            // is left untouched — never acked, never applied — and the
            // engine flips read-only: this mutation and every following
            // one answer `read_only` + `retry_after_ms` while evals
            // keep serving from memory. Each attempt still runs the
            // append, so the first one that lands (space freed, fault
            // window over) clears the flag by itself.
            match d.wal.append_ref(&record) {
                Ok(synced) => {
                    d.next_seq += 1;
                    d.since_snapshot += 1;
                    let mut stats = lock_unpoisoned(&self.stats);
                    if self.read_only.swap(false, Ordering::Relaxed) {
                        let health = stats.storage_health_mut();
                        health.read_only = false;
                        health.read_only_exited += 1;
                    }
                    let counters = stats.durability_mut();
                    counters.records_appended += 1;
                    counters.fsyncs += u64::from(synced);
                }
                Err(e) => {
                    let mut stats = lock_unpoisoned(&self.stats);
                    let health = stats.storage_health_mut();
                    health.append_failures += 1;
                    health.read_only = true;
                    if !self.read_only.swap(true, Ordering::Relaxed) {
                        health.read_only_entered += 1;
                    }
                    return Err(WireError::new(
                        ErrorCode::ReadOnly,
                        format!(
                            "wal append failed ({e}); serving reads only until appends succeed"
                        ),
                    )
                    .with_retry_after(READ_ONLY_RETRY_MS));
                }
            }
        }
        lock_unpoisoned(self.registry(name)).commit(
            name,
            case,
            VersionRecord { version, hash, ts_ms },
        );
        // A committed `load` fully re-establishes a quarantined name
        // from the wire: the fresh state lifts the quarantine.
        lock_unpoisoned(&self.corrupt).names.remove(name);
        if let Some(d) = durability.as_mut() {
            if d.snapshot_every > 0 && d.since_snapshot >= d.snapshot_every {
                if let Err(e) = telemetry::with_span("snapshot_write", || self.write_snapshot(d)) {
                    // The mutation is already durable in the WAL; a
                    // failed snapshot costs replay time, not data.
                    eprintln!("depcase-service: snapshot failed (will retry later): {e}");
                }
            }
        }
        Ok(version)
    }

    /// Writes a snapshot covering everything committed so far, then
    /// truncates the WAL behind it (see [`crate::snapshot`] for the
    /// crash-ordering argument).
    fn write_snapshot(&self, d: &mut Durability) -> std::io::Result<()> {
        // Shard state is collected one shard at a time — the snapshot
        // is still consistent because the caller holds the durability
        // mutex, which every mutation commits under, so no shard can
        // change between these reads. Objects committed under several
        // names may park in several shards; the seen-set dedups them.
        let mut cases: Vec<ManifestCase> = Vec::new();
        let mut missing: Vec<(u64, PackedCase)> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        for shard in &self.registries {
            let registry = lock_unpoisoned(shard);
            for (name, named) in &registry.cases {
                // History order is chain order: the writes carry it.
                missing.extend(named.history.iter().filter_map(|r| {
                    let new = seen.insert(r.hash) && !d.store.has_object(r.hash);
                    new.then(|| Some((r.hash, registry.objects.get(&r.hash)?.clone()))).flatten()
                }));
                cases.push(ManifestCase { name: name.clone(), history: named.history.clone() });
            }
        }
        cases.sort_by(|a, b| a.name.cmp(&b.name));
        let manifest = Manifest { seq: d.next_seq - 1, cases };
        // Object writes run outside every shard lock; only
        // already-committed (immutable) versions are touched.
        write_documents(missing, |hash, doc| d.store.write_object_text(hash, doc).map(drop))?;
        d.store.write_manifest(&manifest)?;
        d.wal.truncate()?;
        d.since_snapshot = 0;
        lock_unpoisoned(&self.stats).durability_mut().snapshots_written += 1;
        Ok(())
    }

    fn load(&self, name: &str, doc: &Value) -> Result<Value, WireError> {
        let case = Case::from_value(doc).map_err(|e| WireError::new(ErrorCode::BadCase, e))?;
        // Reject unevaluable cases at the door rather than on first use;
        // compiling also warms the plan cache for the expected follow-up.
        let session = telemetry::with_span("plan_compile", || self.open_session(case))?;
        let (hash, nodes) = (session.case_hash(), session.case().len());
        let packed = PackedCase::pack_load(session.case(), &self.bases);
        lock_unpoisoned(self.cache(hash)).insert(hash, Arc::new(session.into()));
        let version = self.commit_mutation(name, packed, hash, OpRef::Load { doc })?;
        Ok(Value::Object(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("version".to_string(), Value::U64(version)),
            ("hash".to_string(), Value::Str(format_hash(hash))),
            ("nodes".to_string(), Value::U64(nodes as u64)),
        ]))
    }

    fn lookup(&self, name: &str) -> Result<CaseEntry, WireError> {
        self.lookup_at(name, None)
    }

    /// Resolves a name to a case version: the current one, or — for
    /// time-travel reads — the history entry named by `version` /
    /// `at_hash`. Every historical hash has its version stored in the
    /// registry, so resolution is two map lookups.
    fn lookup_at(&self, name: &str, at: Option<&EvalAt>) -> Result<CaseEntry, WireError> {
        self.check_not_quarantined(name)?;
        let registry = lock_unpoisoned(self.registry(name));
        let named = registry.cases.get(name).ok_or_else(|| {
            WireError::new(ErrorCode::UnknownCase, format!("no case named `{name}` is loaded"))
        })?;
        let record = match at {
            None => return Ok(named.current.clone()),
            // Versions are appended in order, so `v` sits `v − first`
            // records in; only a history restored with gaps is scanned.
            Some(EvalAt::Version(v)) => {
                let at = v.checked_sub(named.history[0].version).and_then(|i| i.try_into().ok());
                let missing = || format!("case `{name}` has no version {v}");
                at.and_then(|i: usize| named.history.get(i))
                    .filter(|r| r.version == *v)
                    .or_else(|| named.history.iter().find(|r| r.version == *v))
                    .ok_or_else(|| WireError::new(ErrorCode::NoSuchVersion, missing()))?
            }
            // Most recent version carrying that content (an edited-back
            // case owns its hash at several versions).
            Some(EvalAt::Hash(h)) => {
                named.history.iter().rev().find(|r| r.hash == *h).ok_or_else(|| {
                    WireError::new(
                        ErrorCode::NoSuchVersion,
                        format!("case `{name}` has no version with hash {}", format_hash(*h)),
                    )
                })?
            }
        };
        // Almost always parked; the exception is a version whose stored
        // object failed verification at recovery and was quarantined —
        // that version answers `data_corrupted`, never stale bytes.
        let case = registry.objects.get(&record.hash).cloned().ok_or_else(|| {
            WireError::new(
                ErrorCode::DataCorrupted,
                format!(
                    "version {} of case `{name}` (object {}) is quarantined as corrupt",
                    record.version,
                    format_hash(record.hash)
                ),
            )
        })?;
        Ok(CaseEntry { case, version: record.version, hash: record.hash })
    }

    /// Fails with `data_corrupted` when a name's recovered state could
    /// not be reconstructed faithfully (every stored version failed
    /// verification, or a WAL record for it would not replay). A fresh
    /// `load` under the name clears the quarantine — it re-establishes
    /// the full state from the wire.
    fn check_not_quarantined(&self, name: &str) -> Result<(), WireError> {
        if lock_unpoisoned(&self.corrupt).names.contains(name) {
            return Err(WireError::new(
                ErrorCode::DataCorrupted,
                format!(
                    "case `{name}` is quarantined: its stored state failed verification \
                     and could not be repaired; re-load it to restore service"
                ),
            ));
        }
        Ok(())
    }

    /// Fetches the compiled artefacts for an entry, compiling outside
    /// the lock on a miss. Two workers racing on the same cold case may
    /// both compile; the cache keeps whichever inserts last — identical
    /// content, so correctness is unaffected.
    fn compiled(&self, entry: &CaseEntry) -> Result<Arc<Cached>, WireError> {
        if let Some(hit) = lock_unpoisoned(self.cache(entry.hash)).get(entry.hash) {
            return Ok(hit);
        }
        let compiled = Arc::new(Cached::from(self.compile_entry(entry)?));
        lock_unpoisoned(self.cache(entry.hash)).insert(entry.hash, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Rebuilds an entry's stored version: keyframe, then its deltas.
    fn compile_entry(&self, entry: &CaseEntry) -> Result<Incremental, WireError> {
        telemetry::with_span("plan_compile", || {
            entry.case.materialize(&mut |case| self.open_session(case))
        })
    }

    /// Opens one case's session, memoising subtrees through the global
    /// store when enabled (bit-identical to a private memo either way)
    /// and recording the recompute/reuse split in the compile counters.
    fn open_session(&self, case: Case) -> Result<Incremental, WireError> {
        let session = match &self.memo {
            Some(store) => Incremental::with_memo_traced(case, store.clone(), &TlsTracer),
            None => Incremental::new_traced(case, &TlsTracer),
        }
        .map_err(lib_error)?;
        let totals = session.totals();
        lock_unpoisoned(&self.stats).note_compile(totals.nodes_recomputed, totals.nodes_reused);
        Ok(session)
    }

    fn eval(
        &self,
        name: &str,
        at: Option<&EvalAt>,
        deadline: Option<Instant>,
    ) -> Result<Value, WireError> {
        let entry = self.lookup_at(name, at)?;
        let compiled = self.compiled(&entry)?;
        check_deadline(deadline)?;
        Ok(cached_eval_value(&entry, &compiled))
    }

    /// Dispatches a `batch` request: every item is answered in wire
    /// order, and the answers ride back as one `items` array.
    ///
    /// Formation rules (documented in DESIGN.md §14):
    ///
    /// - **Mutations are barriers.** `load`/`edit` items run alone, in
    ///   wire order, so the WAL sequence matches item order and later
    ///   items observe earlier mutations.
    /// - **Evals between barriers coalesce.** Items resolving to the
    ///   same case version share one answer; distinct cold cases with
    ///   the same plan shape run the struct-of-arrays batch kernel
    ///   ([`EvalPlan::propagate_batch`]) in one pass. Both paths are
    ///   bit-identical to dispatching each item alone.
    /// - **Deadlines are respected.** An item's `deadline_ms` caps its
    ///   own work (never past the envelope deadline); items carrying
    ///   their own deadline are dispatched individually, so a grouped
    ///   run only ever answers items sharing one deadline.
    ///
    /// Sub-items are *not* recorded individually in the op stats — the
    /// whole batch is one `batch` entry — but shed/reject accounting
    /// still happens per connection line in the server.
    fn batch(&self, items: &[BatchItem], deadline: Option<Instant>) -> Result<Value, WireError> {
        let started = Instant::now();
        let mut answers: Vec<Option<Response>> = items.iter().map(|_| None).collect();
        let mut i = 0;
        while i < items.len() {
            if let Ok(request) = &items[i].request {
                if is_mutation(request) {
                    let d = effective_deadline(started, deadline, items[i].deadline_ms);
                    answers[i] = Some(self.dispatch(request, d).into());
                    i += 1;
                    continue;
                }
            }
            // A span of consecutive non-mutating items (parse failures
            // included — they answer their stored error).
            let end = items[i..]
                .iter()
                .position(|item| matches!(&item.request, Ok(r) if is_mutation(r)))
                .map_or(items.len(), |n| i + n);
            self.batch_span(&items[i..end], &mut answers[i..end], deadline, started);
            i = end;
        }
        let rendered: Vec<Value> = telemetry::with_span("batch_assembly", || {
            answers
                .into_iter()
                .map(|a| a.expect("every batch item is answered").into_item_value())
                .collect()
        });
        Ok(Value::Object(vec![("items".to_string(), Value::Array(rendered))]))
    }

    /// Answers one barrier-free span: evals without their own deadline
    /// are deferred and coalesced, everything else dispatches in place.
    fn batch_span(
        &self,
        items: &[BatchItem],
        answers: &mut [Option<Response>],
        deadline: Option<Instant>,
        started: Instant,
    ) {
        let mut evals: Vec<usize> = Vec::new();
        for (idx, item) in items.iter().enumerate() {
            match &item.request {
                Err(e) => answers[idx] = Some(Response::Err(e.clone())),
                Ok(r) if item.deadline_ms.is_none() && matches!(**r, Request::Eval { .. }) => {
                    evals.push(idx);
                }
                Ok(r) => {
                    let d = effective_deadline(started, deadline, item.deadline_ms);
                    answers[idx] = Some(self.dispatch(r, d).into());
                }
            }
        }
        if !evals.is_empty() {
            self.batch_evals(items, &evals, answers, deadline);
        }
    }

    /// Coalesces a span's eval items. Items resolving to the same case
    /// version share one computed answer. Cache misses compile a bare
    /// [`EvalPlan`] each; distinct cold plans sharing one shape then
    /// propagate together through the struct-of-arrays kernel, and a
    /// shape on its own takes the ordinary cache-filling path.
    fn batch_evals(
        &self,
        items: &[BatchItem],
        evals: &[usize],
        answers: &mut [Option<Response>],
        deadline: Option<Instant>,
    ) {
        // Resolve every item; a failed lookup answers just that item.
        // Wanting the same (version, hash) twice dedups to one entry.
        let mut wanted: Vec<(CaseEntry, Vec<usize>)> = Vec::new();
        for &idx in evals {
            let Ok(request) = &items[idx].request else { continue };
            let Request::Eval { name, at } = &**request else { continue };
            match self.lookup_at(name, at.as_ref()) {
                Err(e) => answers[idx] = Some(Response::Err(e)),
                Ok(entry) => match wanted
                    .iter_mut()
                    .find(|(w, _)| w.hash == entry.hash && w.version == entry.version)
                {
                    Some((_, idxs)) => idxs.push(idx),
                    None => wanted.push((entry, vec![idx])),
                },
            }
        }
        // Items sharing an answer get copies; the last one takes it.
        let fill = |answers: &mut [Option<Response>], idxs: &[usize], response: Response| {
            if let Some((&last, rest)) = idxs.split_last() {
                for &i in rest {
                    answers[i] = Some(response.clone());
                }
                answers[last] = Some(response);
            }
        };
        if let Err(e) = check_deadline(deadline) {
            for (_, idxs) in &wanted {
                fill(answers, idxs, Response::Err(e.clone()));
            }
            return;
        }
        // Cache hits answer from the session's rendered text; keyframe
        // misses unpack their registry copy and queue for the wide kernel.
        let mut cold: Vec<(CaseEntry, Case, Vec<usize>, EvalPlan)> = Vec::new();
        for (entry, idxs) in wanted {
            let hit = lock_unpoisoned(self.cache(entry.hash)).get(entry.hash);
            if let Some(hit) = hit {
                fill(answers, &idxs, Response::Ok(cached_eval_value(&entry, &hit)));
            } else if let Some(unpacked) = entry.case.unpack() {
                let unpacked = unpacked.and_then(|case| {
                    EvalPlan::compile(&case).map(|plan| (case, plan)).map_err(lib_error)
                });
                match unpacked {
                    Ok((case, plan)) => cold.push((entry, case, idxs, plan)),
                    Err(err) => fill(answers, &idxs, Response::Err(err)),
                }
            } else {
                // A delta is rebuilt as a session: it answers from that.
                let session = entry.case.materialize(&mut open_plain);
                let response = session.map(|s| cached_eval_value(&entry, &s.into()));
                fill(answers, &idxs, response.into());
            }
        }
        // Group the cold plans by shape (quadratic over at most
        // MAX_BATCH_ITEMS distinct cases).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for p in 0..cold.len() {
            match groups.iter_mut().find(|g| cold[g[0]].3.same_shape(&cold[p].3)) {
                Some(g) => g.push(p),
                None => groups.push(vec![p]),
            }
        }
        for group in groups {
            if let Err(e) = check_deadline(deadline) {
                for &p in &group {
                    fill(answers, &cold[p].2, Response::Err(e.clone()));
                }
                continue;
            }
            if let [only] = group[..] {
                // A lone shape gains nothing from the batch kernel; the
                // ordinary path also warms the plan cache for follow-ups.
                let (entry, _, idxs, _) = &cold[only];
                let response = self.compiled(entry).map(|c| cached_eval_value(entry, &c)).into();
                fill(answers, idxs, response);
                continue;
            }
            let plans: Vec<&EvalPlan> = group.iter().map(|&p| &cold[p].3).collect();
            match EvalPlan::propagate_batch_traced(&plans, &TlsTracer) {
                Ok(reports) => {
                    for (&p, report) in group.iter().zip(&reports) {
                        let (entry, case, idxs, _) = &cold[p];
                        let nodes = render(case, report, None).text;
                        fill(answers, idxs, Response::Ok(eval_value(entry, report, nodes)));
                    }
                }
                Err(e) => {
                    let err = lib_error(e);
                    for &p in &group {
                        fill(answers, &cold[p].2, Response::Err(err.clone()));
                    }
                }
            }
        }
    }

    /// Answers the full version history of a named case: one row per
    /// version with its content hash and commit timestamp, oldest
    /// first — the audit trail behind time-travel `eval` and undo.
    fn history(&self, name: &str) -> Result<Value, WireError> {
        self.check_not_quarantined(name)?;
        let registry = lock_unpoisoned(self.registry(name));
        let named = registry.cases.get(name).ok_or_else(|| {
            WireError::new(ErrorCode::UnknownCase, format!("no case named `{name}` is loaded"))
        })?;
        let versions = named
            .history
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("version".to_string(), Value::U64(r.version)),
                    ("hash".to_string(), Value::Str(format_hash(r.hash))),
                    ("ts_ms".to_string(), Value::U64(r.ts_ms)),
                ])
            })
            .collect();
        Ok(Value::Object(vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("case".to_string(), Value::Str(named.current.case.title.to_string())),
            ("current_version".to_string(), Value::U64(named.current.version)),
            ("current_hash".to_string(), Value::Str(format_hash(named.current.hash))),
            ("versions".to_string(), Value::Array(versions)),
        ]))
    }

    /// Applies one mutation through the case's cached incremental
    /// session, which leaves the plan cache for the edit (cloned only
    /// when a reader holds it) and rejoins it under the new content
    /// hash; a rejected action puts it back untouched. With the version
    /// stored as a delta, an edit costs its dirty spine, a WAL append and
    /// a delta. Prior states stay evaluable, but are no longer cached:
    /// editing back to one recompiles unless a read re-cached it.
    fn edit(
        &self,
        name: &str,
        action: &EditAction,
        deadline: Option<Instant>,
    ) -> Result<Value, WireError> {
        let entry = self.lookup(name)?;
        let taken = lock_unpoisoned(self.cache(entry.hash)).take(entry.hash);
        let mut base = taken.map_or_else(
            || self.compile_entry(&entry).map(Cached::from),
            |c| Ok(Arc::unwrap_or_clone(c)),
        )?;
        let applied = check_deadline(deadline).and_then(|()| base.edit(action));
        let delta = match applied {
            Ok(delta) => delta,
            Err(e) => {
                lock_unpoisoned(self.cache(entry.hash)).insert(entry.hash, Arc::new(base));
                return Err(e);
            }
        };
        let (hash, nodes, top) = (base.case_hash(), base.case().len(), base.as_report().top());
        let packed = entry.case.edited(action, base.case());
        lock_unpoisoned(self.cache(hash)).insert(hash, Arc::new(base));
        let op = OpRef::Edit { base_hash: entry.hash, action };
        let version = self.commit_mutation(name, packed, hash, op)?;
        lock_unpoisoned(&self.stats).note_edit(delta.nodes_recomputed, delta.nodes_reused);
        let mut fields = vec![
            ("name".to_string(), Value::Str(name.to_string())),
            ("version".to_string(), Value::U64(version)),
            ("hash".to_string(), Value::Str(format_hash(hash))),
            ("nodes".to_string(), Value::U64(nodes as u64)),
        ];
        if let Some(top) = top {
            fields.push(("root_confidence".to_string(), Value::F64(top.independent)));
        }
        fields.push(("nodes_recomputed".to_string(), Value::U64(delta.nodes_recomputed)));
        fields.push(("nodes_reused".to_string(), Value::U64(delta.nodes_reused)));
        Ok(Value::Object(fields))
    }

    fn rank(&self, name: &str, deadline: Option<Instant>) -> Result<Value, WireError> {
        let entry = self.lookup(name)?;
        // Warm/consult the cache so repeated ranking of an unchanged
        // case is counted like any other cached evaluation; the
        // session's IR and values also save unpacking the registry copy
        // and propagating the case again.
        let compiled = self.compiled(&entry)?;
        check_deadline(deadline)?;
        let ranking = compiled.importance().map_err(lib_error)?;
        let rows =
            ranking.iter().map(|l| (&*l.name, [l.confidence, l.birnbaum, l.gain_if_certain]));
        let mut fields = case_header(&entry);
        let keys = ["confidence", "birnbaum", "gain_if_certain"];
        fields.push(("evidence".to_string(), named_rows(keys, rows)));
        Ok(Value::Object(fields))
    }

    /// Monte-Carlo sampling with single-flight coalescing: a request
    /// arriving while an identical run (same case version and content
    /// hash, same `samples` and `seed` — any `threads`, since chunked
    /// sampling is bit-identical across thread counts) is already
    /// in flight blocks on that run and shares its bytes instead of
    /// re-sampling. A follower whose own deadline expires first fails
    /// with `deadline_exceeded`; a follower whose *leader* ran out of
    /// budget retries with its own (possibly larger) budget.
    fn mc(
        &self,
        name: &str,
        samples: u32,
        seed: u64,
        threads: usize,
        deadline: Option<Instant>,
    ) -> Result<Value, WireError> {
        let entry = self.lookup(name)?;
        let compiled = self.compiled(&entry)?;
        let key = McKey {
            name: name.to_string(),
            version: entry.version,
            hash: entry.hash,
            samples,
            seed,
        };
        loop {
            check_deadline(deadline)?;
            let (flight, leader) = {
                let mut flights = lock_unpoisoned(&self.mc_flights);
                match flights.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f: Flight = Arc::new((Mutex::new(FlightSlot::Running), Condvar::new()));
                        flights.insert(key.clone(), Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if leader {
                let mut guard = FlightGuard {
                    flights: &self.mc_flights,
                    key: &key,
                    flight: &flight,
                    outcome: None,
                };
                let result = self.run_mc(&entry, &compiled, samples, seed, threads, deadline);
                guard.outcome = Some(result.clone());
                drop(guard);
                return result;
            }
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            match wait_for_flight(&flight, deadline) {
                Some(Ok(value)) => return Ok(value),
                // The leader exhausted *its* budget, not ours: loop and
                // run (or join) a fresh flight under our own deadline.
                Some(Err(e)) if e.code == ErrorCode::DeadlineExceeded => {}
                Some(Err(e)) => return Err(e),
                None => {
                    return Err(WireError::new(
                        ErrorCode::DeadlineExceeded,
                        "request deadline exceeded while waiting for an identical in-flight run",
                    ))
                }
            }
        }
    }

    fn run_mc(
        &self,
        entry: &CaseEntry,
        compiled: &Incremental,
        samples: u32,
        seed: u64,
        threads: usize,
        deadline: Option<Instant>,
    ) -> Result<Value, WireError> {
        check_deadline(deadline)?;
        let (runner, plan) =
            (MonteCarlo::new(samples).seed(seed).threads(mc_threads(threads)), compiled.plan());
        // With a deadline, the run polls it between sample chunks, so
        // `deadline_exceeded` arrives within one chunk of the budget
        // instead of after the full sampling time. A completed run is
        // bit-identical to the unpolled path.
        let report = match deadline {
            None => runner.run_plan_traced(plan, &TlsTracer).map_err(lib_error)?,
            Some(d) => runner
                .run_plan_until_traced(plan, &move || Instant::now() >= d, &TlsTracer)
                .map_err(lib_error)?
                .ok_or_else(|| {
                    WireError::new(
                        ErrorCode::DeadlineExceeded,
                        "request deadline exceeded mid-sampling; partial results are discarded",
                    )
                })?,
        };
        let name = |id| &*compiled.case().node(id).expect("targets are nodes of the case").name;
        let rows =
            report.rows().map(|(id, estimate, half_width)| (name(id), [estimate, half_width]));
        let mut fields = case_header(entry);
        fields.push(("samples".to_string(), Value::U64(u64::from(report.samples()))));
        fields.push(("seed".to_string(), Value::U64(seed)));
        fields.push(("estimates".to_string(), named_rows(["estimate", "half_width"], rows)));
        Ok(Value::Object(fields))
    }

    fn bands(
        &self,
        name: &str,
        pfd_bound: f64,
        mode: depcase::sil::DemandMode,
        deadline: Option<Instant>,
    ) -> Result<Value, WireError> {
        let entry = self.lookup(name)?;
        let compiled = self.compiled(&entry)?;
        check_deadline(deadline)?;
        let top = compiled.as_report().top().ok_or_else(|| {
            WireError::new(ErrorCode::Case, "case has no single root goal to band")
        })?;
        // The paper's construction: confidence c in "measure < bound"
        // is the two-point worst-case belief — mass c at the bound,
        // doubt 1 − c at failure — pushed through the band table.
        let belief = TwoPoint::worst_case(pfd_bound, 1.0 - top.independent).map_err(lib_error)?;
        let assessment = SilAssessment::new(&belief, mode);
        let at_least = assessment.confidences();
        let probabilities = assessment.band_probabilities();
        let rows = SilLevel::ALL
            .iter()
            .map(|level| {
                Value::Object(vec![
                    ("level".to_string(), Value::Str(level.to_string())),
                    ("at_least".to_string(), Value::F64(at_least[usize::from(level.index()) - 1])),
                    ("in_band".to_string(), Value::F64(probabilities.in_band(*level))),
                ])
            })
            .collect();
        let mut fields = case_header(&entry);
        fields.push(("root_confidence".to_string(), Value::F64(top.independent)));
        fields.push(("pfd_bound".to_string(), Value::F64(pfd_bound)));
        fields.push((
            "mode".to_string(),
            Value::Str(
                match mode {
                    depcase::sil::DemandMode::LowDemand => "low_demand",
                    depcase::sil::DemandMode::HighDemand => "high_demand",
                }
                .to_string(),
            ),
        ));
        fields.push(("bands".to_string(), Value::Array(rows)));
        fields.push((
            "most_probable".to_string(),
            match probabilities.most_probable() {
                Some(level) => Value::Str(level.to_string()),
                None => Value::Null,
            },
        ));
        Ok(Value::Object(fields))
    }

    /// The `scrub` op: re-reads every object in the store, verifies its
    /// bytes hash back to their content address, re-serializes corrupt
    /// ones from the intact in-memory registry copy when one is
    /// reachable, and quarantines the rest.
    ///
    /// The durability mutex is re-acquired **per object**, not held for
    /// the whole walk: a scan over a hundred thousand objects must not
    /// stall every tenant's mutations for its full duration. Mutations
    /// interleaving mid-scrub are benign — a commit only adds objects
    /// (which this pass simply does not check; the next scrub will) and
    /// content-addressed bytes never change in place, so each
    /// per-object verdict stays valid regardless of interleaving.
    fn scrub(&self) -> Result<Value, WireError> {
        let hashes = {
            let durability = lock_unpoisoned(&self.durability);
            let Some(d) = durability.as_ref() else {
                return Err(WireError::new(
                    ErrorCode::BadRequest,
                    "scrub requires a durable engine (start with --data-dir)",
                ));
            };
            d.store.object_hashes().map_err(|e| {
                WireError::new(ErrorCode::StorageError, format!("scrub: listing objects: {e}"))
            })?
        };
        let (mut corrupt_found, mut repaired, mut quarantined_now) = (0u64, 0u64, 0u64);
        let checked = hashes.len() as u64;
        for hash in hashes {
            let durability = lock_unpoisoned(&self.durability);
            let Some(d) = durability.as_ref() else { break };
            let Err(reason) = verify_object(hash, d.store.read_object_text(hash)) else {
                continue;
            };
            corrupt_found += 1;
            // The registry's stored version was verified when it entered
            // (load, edit, or checked restore): writing its document
            // back is a faithful repair. With no reachable copy the
            // damaged bytes leave the serving path for `quarantine/`.
            if self.repair_object(&d.store, hash) {
                repaired += 1;
                lock_unpoisoned(&self.corrupt).hashes.remove(&hash);
                eprintln!(
                    "depcase-service: scrub: object {} was corrupt ({reason}); \
                     repaired from memory",
                    format_hash(hash)
                );
            } else {
                quarantined_now += u64::from(d.store.quarantine_object(hash).is_ok());
                lock_unpoisoned(&self.corrupt).hashes.insert(hash);
                eprintln!(
                    "depcase-service: scrub: object {} is corrupt ({reason}); \
                     quarantined — no intact copy to repair from",
                    format_hash(hash)
                );
            }
        }
        let read_only = {
            let mut stats = lock_unpoisoned(&self.stats);
            let health = stats.storage_health_mut();
            health.scrubs += 1;
            health.objects_checked += checked;
            health.corrupt_detected += corrupt_found;
            health.repaired_from_memory += repaired;
            health.quarantined += quarantined_now;
            health.read_only
        };
        Ok(Value::Object(vec![
            ("objects_checked".to_string(), Value::U64(checked)),
            ("corrupt_detected".to_string(), Value::U64(corrupt_found)),
            ("repaired".to_string(), Value::U64(repaired)),
            ("quarantined".to_string(), Value::U64(quarantined_now)),
            ("read_only".to_string(), Value::Bool(read_only)),
        ]))
    }
}

/// Verifies that a stored object's bytes, as `read`, hash back to
/// their content address: the store-side half of the scrub pipeline,
/// and of restore, which keeps the verified text as the version's
/// packed document. The error is a human-readable reason (unreadable,
/// unparseable, or hashing to the wrong address).
fn verify_object(hash: u64, read: std::io::Result<String>) -> Result<PackedCase, String> {
    let text: Arc<str> = read.map_err(|e| e.to_string())?.into();
    let case = Case::from_json(&text).map_err(|e| e.to_string())?;
    if case.content_hash() != hash {
        return Err(format!("hashes to {}", format_hash(case.content_hash())));
    }
    Ok(PackedCase::stored(text, case.title()))
}

/// [`verify_object`] over `reads`, by hash. This thread pulls the reads,
/// so the store sees them in order, and queues them 64 at a time for up
/// to [`std::thread::available_parallelism`] − 1 scoped helpers. When
/// the short queue is full it verifies the batch itself, so the texts
/// waiting in memory stay bounded.
fn verify_all(
    mut reads: impl Iterator<Item = (u64, std::io::Result<String>)>,
) -> HashMap<u64, Result<PackedCase, String>> {
    let verify = |batch: Vec<(u64, std::io::Result<String>)>| {
        batch.into_iter().map(|(hash, read)| (hash, verify_object(hash, read)))
    };
    let threads = available_parallelism().map_or(1, NonZeroUsize::get);
    let (tx, rx) = std::sync::mpsc::sync_channel(threads);
    let rx = Mutex::new(rx);
    let help = || {
        let mut done = HashMap::new();
        loop {
            let batch = lock_unpoisoned(&rx).recv();
            let Ok(batch) = batch else { return done };
            done.extend(verify(batch));
        }
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(help)).collect();
        let mut done = HashMap::new();
        loop {
            let batch: Vec<_> = reads.by_ref().take(64).collect();
            if batch.is_empty() {
                break;
            }
            if let Err(TrySendError::Full(batch) | TrySendError::Disconnected(batch)) =
                tx.try_send(batch)
            {
                done.extend(verify(batch));
            }
        }
        drop(tx);
        done.extend(help());
        for helper in helpers {
            done.extend(helper.join().expect("object verification panicked"));
        }
        done
    })
}

/// The workers an `mc` request's `threads` buys: at most one per core
/// (0 leaves the library to pick one per core), the cores counted once
/// per process. Answers do not depend on the count, so the wire accepts
/// any number and the engine caps it.
fn mc_threads(requested: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    requested.min(*CORES.get_or_init(|| available_parallelism().map_or(1, NonZeroUsize::get)))
}

/// True for requests that commit a new case version (the batch
/// dispatcher treats these as barriers).
fn is_mutation(request: &Request) -> bool {
    matches!(request, Request::Load { .. } | Request::Edit { .. })
}

/// A batch item's own deadline: `deadline_ms` measured from the start
/// of the batch, never past the envelope deadline.
fn effective_deadline(
    started: Instant,
    envelope: Option<Instant>,
    item_ms: Option<u64>,
) -> Option<Instant> {
    let own = item_ms.and_then(|ms| started.checked_add(Duration::from_millis(ms)));
    match (envelope, own) {
        (Some(e), Some(o)) => Some(e.min(o)),
        (e, None) => e,
        (None, o) => o,
    }
}

/// The `eval` response body for one case version under one propagated
/// report, its `nodes` text spliced in. Shared by the single-request
/// path (memoised session report) and the batch path (struct-of-arrays
/// kernel report) — both report sources are bit-identical, so so is
/// the rendered value.
fn eval_value(entry: &CaseEntry, report: &ConfidenceReport, nodes: Arc<str>) -> Value {
    let mut fields = case_header(entry);
    if let Some(top) = report.top() {
        fields.push(("root_confidence".to_string(), Value::F64(top.independent)));
    }
    fields.push(("nodes".to_string(), Value::Raw(nodes)));
    Value::Object(fields)
}

/// [`eval_value`] from a cached session, rendering its text at most once.
fn cached_eval_value(entry: &CaseEntry, cached: &Cached) -> Value {
    eval_value(entry, cached.as_report(), cached.nodes())
}

/// `[{"name":…,"key":x,…},…]` for `(name, numbers)` rows, written as the
/// writer would print the tree, so a coalesced answer shares it by count.
fn named_rows<'a, const N: usize>(
    keys: [&str; N],
    rows: impl Iterator<Item = (&'a str, [f64; N])>,
) -> Value {
    let mut text = String::from("[");
    for (name, numbers) in rows {
        text.push_str(if text.len() == 1 { "{\"name\":" } else { ",{\"name\":" });
        serde_json::push_string(&mut text, name);
        for (key, x) in keys.into_iter().zip(numbers) {
            text.extend([",\"", key, "\":"]);
            serde_json::push_f64(&mut text, x);
        }
        text.push('}');
    }
    text.push(']');
    Value::Raw(text.into())
}

fn case_header(entry: &CaseEntry) -> Vec<(String, Value)> {
    vec![
        ("case".to_string(), Value::Str(entry.case.title.to_string())),
        ("version".to_string(), Value::U64(entry.version)),
        ("hash".to_string(), Value::Str(format_hash(entry.hash))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use depcase::prelude::*;

    fn demo_case_value() -> Value {
        let mut case = Case::new("demo");
        let g = case.add_goal("G", "pfd < 1e-3").unwrap();
        let s = case.add_strategy("S", "legs", Combination::AnyOf).unwrap();
        let e1 = case.add_evidence("E1", "testing", 0.95).unwrap();
        let e2 = case.add_evidence("E2", "analysis", 0.90).unwrap();
        case.support(g, s).unwrap();
        case.support(s, e1).unwrap();
        case.support(s, e2).unwrap();
        serde::Serialize::to_value(&case)
    }

    fn load_demo(engine: &Engine, name: &str) {
        engine.handle(&Request::Load { name: name.to_string(), case: demo_case_value() }).unwrap();
    }

    fn eval_current(engine: &Engine, name: &str) -> Value {
        engine.handle(&Request::Eval { name: name.to_string(), at: None }).unwrap()
    }

    fn set_confidence(engine: &Engine, name: &str, node: &str, confidence: f64) -> Value {
        engine
            .handle(&Request::Edit {
                name: name.to_string(),
                action: EditAction::SetConfidence { node: node.to_string(), confidence },
            })
            .unwrap()
    }

    /// An answer as a client reads it: rendered, then parsed back, so
    /// parts written straight to text have structure again.
    fn rendered(value: &Value) -> Value {
        serde_json::value_from_str(&serde_json::value_to_string(value)).unwrap()
    }

    fn root_bits(value: &Value) -> u64 {
        value.get("root_confidence").and_then(Value::as_f64).unwrap().to_bits()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("depcase_engine_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn load_then_eval_matches_direct_propagation() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let result = eval_current(&engine, "demo");
        let root = result.get("root_confidence").and_then(Value::as_f64).unwrap();

        let case = Case::from_value(&demo_case_value()).unwrap();
        let direct = case.propagate().unwrap().top().unwrap().independent;
        assert_eq!(root.to_bits(), direct.to_bits());
    }

    #[test]
    fn reload_bumps_version_and_unknown_case_errors() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let second =
            engine.handle(&Request::Load { name: "demo".into(), case: demo_case_value() }).unwrap();
        assert_eq!(second.get("version").and_then(Value::as_u64), Some(2));

        let err = engine.handle(&Request::Eval { name: "missing".into(), at: None }).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownCase);
    }

    #[test]
    fn second_eval_of_unchanged_case_hits_the_plan_cache() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        eval_current(&engine, "demo");
        let before = engine.cache_counters();
        eval_current(&engine, "demo");
        let after = engine.cache_counters();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn mc_through_the_engine_is_bit_identical_to_the_library() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let result = engine
            .handle(&Request::Mc { name: "demo".into(), samples: 20_000, seed: 7, threads: 2 })
            .unwrap();

        let case = Case::from_value(&demo_case_value()).unwrap();
        let direct = MonteCarlo::new(20_000).seed(7).threads(2).run(&case).unwrap();
        let g = case.node_by_name("G").unwrap();
        let wire_estimate = rendered(&result)
            .get("estimates")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some("G"))
            .and_then(|v| v.get("estimate"))
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(wire_estimate.to_bits(), direct.estimate(g).unwrap().to_bits());
    }

    #[test]
    fn mc_threads_are_capped_at_one_worker_per_core() {
        // Through the worker count alone: a request that started this
        // many threads is exactly what the cap exists to prevent.
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(mc_threads(usize::MAX), cores);
        assert_eq!(mc_threads(1 << 20), cores);
        assert_eq!(mc_threads(cores), cores);
        assert_eq!(mc_threads(1), 1);
        assert_eq!(mc_threads(0), 0, "0 still leaves the count to the library");
    }

    #[test]
    fn mc_with_an_open_deadline_is_bit_identical_to_no_deadline() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let free = engine
            .handle(&Request::Mc { name: "demo".into(), samples: 20_000, seed: 7, threads: 2 })
            .unwrap();
        let open = Instant::now() + std::time::Duration::from_secs(120);
        let budgeted = engine
            .handle_deadline(
                &Request::Mc { name: "demo".into(), samples: 20_000, seed: 7, threads: 2 },
                Some(open),
            )
            .unwrap();
        let estimate = |v: &Value| {
            rendered(v).get("estimates").and_then(Value::as_array).unwrap()[0]
                .get("estimate")
                .and_then(Value::as_f64)
                .unwrap()
                .to_bits()
        };
        assert_eq!(estimate(&free), estimate(&budgeted));
    }

    #[test]
    fn mc_deadline_fires_between_sample_chunks() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        // An enormous budget that would take far longer than the
        // deadline: the chunk-level poll must cut it short.
        let spent = Instant::now() + std::time::Duration::from_millis(1);
        let started = Instant::now();
        let err = engine
            .handle_deadline(
                &Request::Mc { name: "demo".into(), samples: 500_000_000, seed: 7, threads: 2 },
                Some(spent),
            )
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "deadline must interrupt sampling long before the full run"
        );
        assert!(engine.robustness().deadline_exceeded >= 1);
    }

    #[test]
    fn edit_set_confidence_matches_a_full_reload() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let result = set_confidence(&engine, "demo", "E1", 0.97);
        assert_eq!(result.get("version").and_then(Value::as_u64), Some(2));
        assert!(result.get("nodes_recomputed").and_then(Value::as_u64).unwrap() >= 1);

        // Bit-identical to mutating the case directly and propagating.
        let mut case = Case::from_value(&demo_case_value()).unwrap();
        let e1 = case.node_by_name("E1").unwrap();
        case.set_leaf_confidence(e1, 0.97).unwrap();
        let direct = case.propagate().unwrap().top().unwrap().independent;
        let root = result.get("root_confidence").and_then(Value::as_f64).unwrap();
        assert_eq!(root.to_bits(), direct.to_bits());

        // Follow-up ops see the edited case.
        let eval = eval_current(&engine, "demo");
        let again = eval.get("root_confidence").and_then(Value::as_f64).unwrap();
        assert_eq!(again.to_bits(), direct.to_bits());
        assert_eq!(eval.get("version").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn edit_back_restores_the_original_content_hash() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let loaded = eval_current(&engine, "demo");
        let original = loaded.get("hash").and_then(Value::as_str).unwrap().to_string();
        let edited = set_confidence(&engine, "demo", "E1", 0.97);
        assert_ne!(edited.get("hash").and_then(Value::as_str).unwrap(), original);
        let undone = set_confidence(&engine, "demo", "E1", 0.95);
        assert_eq!(undone.get("hash").and_then(Value::as_str).unwrap(), original);
        assert_eq!(undone.get("version").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn history_records_every_version_and_eval_time_travels() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let v1 = eval_current(&engine, "demo");
        set_confidence(&engine, "demo", "E1", 0.97);
        set_confidence(&engine, "demo", "E2", 0.80);

        let history = engine.handle(&Request::History { name: "demo".into() }).unwrap();
        assert_eq!(history.get("current_version").and_then(Value::as_u64), Some(3));
        let versions = history.get("versions").and_then(Value::as_array).unwrap();
        assert_eq!(versions.len(), 3);
        assert_eq!(versions[0].get("version").and_then(Value::as_u64), Some(1));
        let v1_hash = versions[0].get("hash").and_then(Value::as_str).unwrap().to_string();
        assert_eq!(v1.get("hash").and_then(Value::as_str), Some(v1_hash.as_str()));

        // Time-travel by version: bit-identical to the original answer.
        let back = engine
            .handle(&Request::Eval { name: "demo".into(), at: Some(EvalAt::Version(1)) })
            .unwrap();
        assert_eq!(root_bits(&back), root_bits(&v1));
        assert_eq!(back.get("version").and_then(Value::as_u64), Some(1));

        // Time-travel by content hash answers the same state.
        let by_hash = engine
            .handle(&Request::Eval {
                name: "demo".into(),
                at: Some(EvalAt::Hash(crate::protocol::parse_hash(&v1_hash).unwrap())),
            })
            .unwrap();
        assert_eq!(root_bits(&by_hash), root_bits(&v1));

        // The current state is untouched by historical reads.
        let current = eval_current(&engine, "demo");
        assert_eq!(current.get("version").and_then(Value::as_u64), Some(3));

        // Unknown versions and hashes answer `no_such_version`.
        let err = engine
            .handle(&Request::Eval { name: "demo".into(), at: Some(EvalAt::Version(9)) })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NoSuchVersion);
        let err = engine
            .handle(&Request::Eval { name: "demo".into(), at: Some(EvalAt::Hash(1)) })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NoSuchVersion);
        let err = engine.handle(&Request::History { name: "missing".into() }).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownCase);
    }

    #[test]
    fn eval_at_version_finds_its_record_in_a_history_with_gaps() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let at = |v| Request::Eval { name: "demo".into(), at: Some(EvalAt::Version(v)) };
        let mut answers = vec![engine.handle(&at(1)).unwrap()];
        for (i, c) in [0.97, 0.80, 0.91, 0.85].into_iter().enumerate() {
            set_confidence(&engine, "demo", if i % 2 == 0 { "E1" } else { "E2" }, c);
            answers.push(engine.handle(&at(i as u64 + 2)).unwrap());
        }
        // Versions 1 and 3 drop out, as from a history restored with gaps:
        // every later version sits nearer the front than its number says.
        let versions: Vec<u64> = {
            let mut registry = lock_unpoisoned(engine.registry("demo"));
            let history = &mut registry.cases.get_mut("demo").unwrap().history;
            history.retain(|r| r.version != 1 && r.version != 3);
            history.iter().map(|r| r.version).collect()
        };
        assert_eq!(versions, [2, 4, 5]);
        for v in 1..=6u64 {
            match engine.handle(&at(v)) {
                Ok(answer) => {
                    assert!(versions.contains(&v), "version {v} answered");
                    assert_eq!(answer, answers[v as usize - 1], "version {v}");
                }
                Err(e) => {
                    assert!(!versions.contains(&v), "version {v}: {e:?}");
                    assert_eq!(e.code, ErrorCode::NoSuchVersion);
                }
            }
        }
    }

    #[test]
    fn durable_engine_recovers_acked_mutations_bit_identically() {
        let dir = tmp_dir("recover");
        let config = DurabilityConfig::new(&dir);
        let (v1_bits, v3_bits, v3_hash) = {
            let engine = Engine::open(8, &config).unwrap();
            assert!(engine.is_durable());
            load_demo(&engine, "demo");
            let v1 = eval_current(&engine, "demo");
            set_confidence(&engine, "demo", "E1", 0.97);
            set_confidence(&engine, "demo", "E2", 0.80);
            let v3 = eval_current(&engine, "demo");
            let counters = engine.durability_counters();
            assert_eq!(counters.records_appended, 3);
            assert_eq!(counters.records_replayed, 0);
            (
                root_bits(&v1),
                root_bits(&v3),
                v3.get("hash").and_then(Value::as_str).unwrap().to_string(),
            )
            // Dropped without any drain/flush: recovery must work from
            // the unsynced WAL alone (single-write appends land in the
            // page cache even when the process dies).
        };

        let engine = Engine::open(8, &config).unwrap();
        let counters = engine.durability_counters();
        assert_eq!(counters.records_replayed, 3);
        assert_eq!(counters.torn_tail_recoveries, 0);
        let current = eval_current(&engine, "demo");
        assert_eq!(current.get("version").and_then(Value::as_u64), Some(3));
        assert_eq!(current.get("hash").and_then(Value::as_str), Some(v3_hash.as_str()));
        assert_eq!(root_bits(&current), v3_bits);
        // History — including timestamps — survives, and time travel
        // still answers the original bits.
        let history = engine.handle(&Request::History { name: "demo".into() }).unwrap();
        assert_eq!(history.get("versions").and_then(Value::as_array).unwrap().len(), 3);
        let back = engine
            .handle(&Request::Eval { name: "demo".into(), at: Some(EvalAt::Version(1)) })
            .unwrap();
        assert_eq!(root_bits(&back), v1_bits);
        // Mutations keep appending after recovery.
        set_confidence(&engine, "demo", "E1", 0.99);
        assert_eq!(eval_current(&engine, "demo").get("version").and_then(Value::as_u64), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_truncate_the_wal_and_dedupe_objects() {
        let dir = tmp_dir("snapshot");
        let config = DurabilityConfig {
            data_dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            snapshot_every: 2,
        };
        {
            let engine = Engine::open(8, &config).unwrap();
            load_demo(&engine, "demo");
            set_confidence(&engine, "demo", "E1", 0.97);
            // 2 mutations → snapshot fired, WAL truncated.
            assert_eq!(engine.durability_counters().snapshots_written, 1);
            // Editing back re-reaches version 1's content hash: the
            // object store must not grow a duplicate for it.
            set_confidence(&engine, "demo", "E1", 0.95);
            set_confidence(&engine, "demo", "E1", 0.97);
            assert_eq!(engine.durability_counters().snapshots_written, 2);
        }
        // Only two distinct contents ever existed → two objects on disk.
        let objects = std::fs::read_dir(dir.join("objects"))
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|ext| ext == "json"))
            .count();
        assert_eq!(objects, 2, "content-addressed store must deduplicate");

        // Restart: everything lives in the snapshot, nothing in the WAL.
        let engine = Engine::open(8, &config).unwrap();
        assert_eq!(engine.durability_counters().records_replayed, 0);
        let history = engine.handle(&Request::History { name: "demo".into() }).unwrap();
        assert_eq!(history.get("versions").and_then(Value::as_array).unwrap().len(), 4);
        assert_eq!(eval_current(&engine, "demo").get("version").and_then(Value::as_u64), Some(4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edit_add_leaf_and_retarget_reshape_the_case() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let grown = engine
            .handle(&Request::Edit {
                name: "demo".into(),
                action: EditAction::AddLeaf {
                    parent: "G".into(),
                    node: "E3".into(),
                    statement: Some("field data".into()),
                    kind: crate::protocol::WireLeafKind::Evidence,
                    confidence: 0.85,
                },
            })
            .unwrap();
        assert_eq!(grown.get("nodes").and_then(Value::as_u64), Some(5));

        let retargeted = engine
            .handle(&Request::Edit {
                name: "demo".into(),
                action: EditAction::Retarget {
                    parent: "S".into(),
                    from: "E2".into(),
                    to: "E3".into(),
                },
            })
            .unwrap();
        assert_eq!(retargeted.get("version").and_then(Value::as_u64), Some(3));

        // The service's answer matches rebuilding the same case by hand.
        let mut case = Case::from_value(&demo_case_value()).unwrap();
        let g = case.node_by_name("G").unwrap();
        let s = case.node_by_name("S").unwrap();
        let e3 = case.add_evidence("E3", "field data", 0.85).unwrap();
        case.support(g, e3).unwrap();
        let e2 = case.node_by_name("E2").unwrap();
        case.retarget_support(s, e2, e3).unwrap();
        let direct = case.propagate().unwrap().top().unwrap().independent;
        let root = retargeted.get("root_confidence").and_then(Value::as_f64).unwrap();
        assert_eq!(root.to_bits(), direct.to_bits());
    }

    #[test]
    fn structural_edits_replay_bit_identically_through_the_wal() {
        let dir = tmp_dir("structural");
        let config = DurabilityConfig::new(&dir);
        let expected = {
            let engine = Engine::open(8, &config).unwrap();
            load_demo(&engine, "demo");
            engine
                .handle(&Request::Edit {
                    name: "demo".into(),
                    action: EditAction::AddLeaf {
                        parent: "G".into(),
                        node: "E3".into(),
                        statement: Some("field data".into()),
                        kind: crate::protocol::WireLeafKind::Evidence,
                        confidence: 0.85,
                    },
                })
                .unwrap();
            engine
                .handle(&Request::Edit {
                    name: "demo".into(),
                    action: EditAction::Retarget {
                        parent: "S".into(),
                        from: "E2".into(),
                        to: "E3".into(),
                    },
                })
                .unwrap();
            root_bits(&eval_current(&engine, "demo"))
        };
        let engine = Engine::open(8, &config).unwrap();
        assert_eq!(engine.durability_counters().records_replayed, 3);
        assert_eq!(root_bits(&eval_current(&engine, "demo")), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edits_on_unknown_nodes_fail_without_side_effects() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let err = engine
            .handle(&Request::Edit {
                name: "demo".into(),
                action: EditAction::SetConfidence { node: "nope".into(), confidence: 0.5 },
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Case);
        // Setting a non-leaf's confidence is rejected by the library.
        let err = engine
            .handle(&Request::Edit {
                name: "demo".into(),
                action: EditAction::SetConfidence { node: "G".into(), confidence: 0.5 },
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::Case);
        // The registry still holds version 1 of the unedited case.
        let eval = eval_current(&engine, "demo");
        assert_eq!(eval.get("version").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn edit_counters_surface_in_stats() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        set_confidence(&engine, "demo", "E1", 0.97);
        let stats = engine.handle(&Request::Stats).unwrap();
        let edit_ops = stats.get("ops").and_then(|o| o.get("edit")).unwrap();
        assert_eq!(edit_ops.get("requests").and_then(Value::as_u64), Some(1));
        let inc = stats.get("incremental").unwrap();
        assert_eq!(inc.get("edits").and_then(Value::as_u64), Some(1));
        assert!(inc.get("nodes_recomputed").and_then(Value::as_u64).unwrap() >= 1);
        assert!(inc.get("nodes_reused").is_some());
        // The durability block is always present (zeros when in-memory).
        let durability = stats.get("durability").unwrap();
        assert_eq!(durability.get("records_appended").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn bands_reports_the_papers_two_point_construction() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let result = engine
            .handle(&Request::Bands {
                name: "demo".into(),
                pfd_bound: 1e-3,
                mode: crate::protocol::WireDemandMode::LowDemand,
            })
            .unwrap();

        let case = Case::from_value(&demo_case_value()).unwrap();
        let c = case.propagate().unwrap().top().unwrap().independent;
        let belief = TwoPoint::worst_case(1e-3, 1.0 - c).unwrap();
        let direct =
            SilAssessment::new(&belief, DemandMode::LowDemand).confidence_at_least(SilLevel::Sil2);
        let wire = result
            .get("bands")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .find(|v| v.get("level").and_then(Value::as_str) == Some("SIL2"))
            .and_then(|v| v.get("at_least"))
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(wire.to_bits(), direct.to_bits());
        assert!(result.get("most_probable").is_some());
    }

    #[test]
    fn expired_deadlines_fail_between_stages_and_are_counted() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let spent = Instant::now() - std::time::Duration::from_millis(1);
        let err = engine
            .handle_deadline(&Request::Eval { name: "demo".into(), at: None }, Some(spent))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert_eq!(engine.robustness().deadline_exceeded, 1);
        // An open budget changes nothing about the answer.
        let open = Instant::now() + std::time::Duration::from_secs(60);
        let result = engine
            .handle_deadline(&Request::Eval { name: "demo".into(), at: None }, Some(open))
            .unwrap();
        assert!(result.get("root_confidence").is_some());
    }

    #[test]
    fn malformed_case_documents_are_rejected_as_bad_case() {
        let engine = Engine::new(8);
        let err = engine
            .handle(&Request::Load { name: "x".into(), case: Value::Str("nope".into()) })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadCase);
    }

    #[test]
    fn stats_reflect_handled_requests() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        eval_current(&engine, "demo");
        let _ = engine.handle(&Request::Eval { name: "missing".into(), at: None });
        let stats = engine.handle(&Request::Stats).unwrap();
        let evals = stats.get("ops").and_then(|o| o.get("eval")).unwrap();
        assert_eq!(evals.get("requests").and_then(Value::as_u64), Some(2));
        assert_eq!(evals.get("errors").and_then(Value::as_u64), Some(1));
        let cache = stats.get("plan_cache").unwrap();
        assert!(cache.get("hits").and_then(Value::as_u64).unwrap() >= 1);
    }

    fn item(request: Request) -> BatchItem {
        BatchItem { deadline_ms: None, request: Ok(Box::new(request)) }
    }

    fn batch_of(items: Vec<BatchItem>) -> Request {
        Request::Batch { items }
    }

    fn items_of(value: &Value) -> &[Value] {
        value.get("items").and_then(Value::as_array).unwrap()
    }

    fn demo_with(e1: f64, e2: f64) -> Value {
        let mut case = Case::new("demo");
        let g = case.add_goal("G", "pfd < 1e-3").unwrap();
        let s = case.add_strategy("S", "legs", Combination::AnyOf).unwrap();
        let a = case.add_evidence("E1", "testing", e1).unwrap();
        let b = case.add_evidence("E2", "analysis", e2).unwrap();
        case.support(g, s).unwrap();
        case.support(s, a).unwrap();
        case.support(s, b).unwrap();
        serde::Serialize::to_value(&case)
    }

    #[test]
    fn batch_answers_match_individual_dispatch_bit_for_bit() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let eval = eval_current(&engine, "demo");
        let mc = engine
            .handle(&Request::Mc { name: "demo".into(), samples: 2_000, seed: 3, threads: 1 })
            .unwrap();
        let rank = engine.handle(&Request::Rank { name: "demo".into() }).unwrap();

        let result = engine
            .handle(&batch_of(vec![
                item(Request::Eval { name: "demo".into(), at: None }),
                item(Request::Mc { name: "demo".into(), samples: 2_000, seed: 3, threads: 1 }),
                item(Request::Rank { name: "demo".into() }),
            ]))
            .unwrap();
        let items = items_of(&result);
        assert_eq!(items.len(), 3);
        for (got, want) in items.iter().zip([&eval, &mc, &rank]) {
            assert_eq!(got.get("ok"), Some(&Value::Bool(true)));
            assert_eq!(got.get("result"), Some(want));
        }
    }

    #[test]
    fn batch_mutations_are_barriers_and_later_items_observe_them() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let result = engine
            .handle(&batch_of(vec![
                item(Request::Eval { name: "demo".into(), at: None }),
                item(Request::Edit {
                    name: "demo".into(),
                    action: EditAction::SetConfidence { node: "E1".into(), confidence: 0.5 },
                }),
                item(Request::Eval { name: "demo".into(), at: None }),
            ]))
            .unwrap();
        let items = items_of(&result);
        let version = |i: usize| {
            items[i].get("result").and_then(|r| r.get("version")).and_then(Value::as_u64)
        };
        assert_eq!(version(0), Some(1));
        assert_eq!(version(1), Some(2));
        assert_eq!(version(2), Some(2));
        assert_ne!(
            root_bits(items[0].get("result").unwrap()),
            root_bits(items[2].get("result").unwrap()),
        );
    }

    #[test]
    fn identical_eval_items_coalesce_to_one_cache_consultation() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        eval_current(&engine, "demo");
        let before = engine.cache_counters();
        let result = engine
            .handle(&batch_of(vec![
                item(Request::Eval { name: "demo".into(), at: None }),
                item(Request::Eval { name: "demo".into(), at: None }),
                item(Request::Eval { name: "demo".into(), at: None }),
            ]))
            .unwrap();
        let after = engine.cache_counters();
        assert_eq!(after.hits, before.hits + 1, "three identical items, one lookup");
        let items = items_of(&result);
        assert_eq!(items[0], items[1]);
        assert_eq!(items[1], items[2]);
    }

    #[test]
    fn cold_same_shape_evals_run_the_batch_kernel_bit_identically() {
        // Capacity-one cache: loading `c` evicts `a` and `b`, so the
        // batch sees two cold same-shape cases and takes the
        // struct-of-arrays path.
        let engine = Engine::new(1);
        engine.handle(&Request::Load { name: "a".into(), case: demo_with(0.95, 0.90) }).unwrap();
        engine.handle(&Request::Load { name: "b".into(), case: demo_with(0.61, 0.42) }).unwrap();
        engine.handle(&Request::Load { name: "c".into(), case: demo_with(0.11, 0.99) }).unwrap();
        let result = engine
            .handle(&batch_of(vec![
                item(Request::Eval { name: "a".into(), at: None }),
                item(Request::Eval { name: "b".into(), at: None }),
            ]))
            .unwrap();
        let items = items_of(&result);
        // The singles below recompile through the ordinary session path;
        // equal values prove the batch kernel is bit-identical to it.
        assert_eq!(items[0].get("result"), Some(&eval_current(&engine, "a")));
        assert_eq!(items[1].get("result"), Some(&eval_current(&engine, "b")));
    }

    #[test]
    fn batch_item_deadlines_fail_alone_without_poisoning_siblings() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let result = engine
            .handle(&batch_of(vec![
                BatchItem {
                    deadline_ms: Some(0),
                    request: Ok(Box::new(Request::Eval { name: "demo".into(), at: None })),
                },
                item(Request::Eval { name: "demo".into(), at: None }),
            ]))
            .unwrap();
        let items = items_of(&result);
        assert_eq!(items[0].get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            items[0].get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
            Some("deadline_exceeded"),
        );
        assert_eq!(items[1].get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn batch_parse_failures_answer_their_item_and_spare_the_rest() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        let result = engine
            .handle(&batch_of(vec![
                BatchItem {
                    deadline_ms: None,
                    request: Err(WireError::new(ErrorCode::UnknownOp, "no such op")),
                },
                item(Request::Eval { name: "demo".into(), at: None }),
            ]))
            .unwrap();
        let items = items_of(&result);
        assert_eq!(
            items[0].get("error").and_then(|e| e.get("code")).and_then(Value::as_str),
            Some("unknown_op"),
        );
        assert_eq!(items[1].get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn a_follower_joins_an_in_flight_identical_mc_run() {
        let engine = Arc::new(Engine::new(8));
        load_demo(&engine, "demo");
        let entry = engine.lookup("demo").unwrap();
        let key = McKey {
            name: "demo".into(),
            version: entry.version,
            hash: entry.hash,
            samples: 5_000,
            seed: 9,
        };
        // Park a running flight under the exact key the request will
        // compute, so the request becomes a follower no matter how the
        // threads interleave. The key is never removed, so even a late
        // arrival reads the published sentinel rather than re-sampling.
        let flight: Flight = Arc::new((Mutex::new(FlightSlot::Running), Condvar::new()));
        lock_unpoisoned(&engine.mc_flights).insert(key, Arc::clone(&flight));
        let sentinel = Value::Str("sentinel: shared, not re-sampled".into());
        let worker = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.handle(&Request::Mc {
                    name: "demo".into(),
                    samples: 5_000,
                    seed: 9,
                    threads: 1,
                })
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        {
            let (slot, signal) = &*flight;
            *lock_unpoisoned(slot) = FlightSlot::Done(Ok(sentinel.clone()));
            signal.notify_all();
        }
        assert_eq!(worker.join().unwrap().unwrap(), sentinel);
        assert_eq!(engine.coalesced_joins(), 1);
    }

    #[test]
    fn a_followers_leader_running_out_of_budget_triggers_a_retry() {
        let engine = Arc::new(Engine::new(8));
        load_demo(&engine, "demo");
        let entry = engine.lookup("demo").unwrap();
        let key = McKey {
            name: "demo".into(),
            version: entry.version,
            hash: entry.hash,
            samples: 4_000,
            seed: 11,
        };
        let flight: Flight = Arc::new((Mutex::new(FlightSlot::Running), Condvar::new()));
        lock_unpoisoned(&engine.mc_flights).insert(key.clone(), Arc::clone(&flight));
        let worker = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.handle(&Request::Mc {
                    name: "demo".into(),
                    samples: 4_000,
                    seed: 11,
                    threads: 1,
                })
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        // The parked leader "fails" on its own deadline and leaves; the
        // follower must retry under its own (absent) deadline and
        // produce the real, deterministic answer.
        lock_unpoisoned(&engine.mc_flights).remove(&key);
        {
            let (slot, signal) = &*flight;
            *lock_unpoisoned(slot) = FlightSlot::Done(Err(WireError::new(
                ErrorCode::DeadlineExceeded,
                "leader ran out of budget",
            )));
            signal.notify_all();
        }
        let got = worker.join().unwrap().unwrap();
        let fresh = engine
            .handle(&Request::Mc { name: "demo".into(), samples: 4_000, seed: 11, threads: 1 })
            .unwrap();
        assert_eq!(got, fresh);
    }

    #[test]
    fn shard_count_is_clamped_to_the_cache_capacity() {
        assert_eq!(Engine::new(1).shard_count(), 1);
        assert_eq!(Engine::new(8).shard_count(), DEFAULT_SHARDS);
        let wide =
            Engine::with_config(&EngineConfig { cache_capacity: 4, shards: 64, memo_entries: 0 });
        assert_eq!(wide.shard_count(), 4);
        assert!(wide.memo_stats().is_none());
    }

    #[test]
    fn sharded_engine_answers_bit_identically_to_one_shard_without_memo() {
        let sharded = Engine::new(8);
        let plain =
            Engine::with_config(&EngineConfig { cache_capacity: 8, shards: 1, memo_entries: 0 });
        for i in 0..16 {
            let name = format!("tenant-{i}");
            let doc = demo_with(0.5 + f64::from(i) * 0.02, 0.9);
            sharded.handle(&Request::Load { name: name.clone(), case: doc.clone() }).unwrap();
            plain.handle(&Request::Load { name: name.clone(), case: doc }).unwrap();
            let a = sharded.handle(&Request::Eval { name: name.clone(), at: None }).unwrap();
            let b = plain.handle(&Request::Eval { name, at: None }).unwrap();
            assert_eq!(a, b, "sharding and the global memo must not change a bit");
        }
        assert!(
            sharded.memo_stats().unwrap().hits > 0,
            "identically-shaped tenants must share subtrees through the global store"
        );
    }

    #[test]
    fn compile_counters_expose_the_cross_tenant_dedup_ratio() {
        let engine = Engine::new(64);
        // 20 stamped variants of one template: each compile should
        // reuse most of the shared structure from the global store.
        for i in 0..20u64 {
            let name = format!("variant-{i}");
            engine
                .handle(&Request::Load {
                    name,
                    case: serde::Serialize::to_value(&depcase::assurance::templates::stamp(3, i)),
                })
                .unwrap();
        }
        let compile = engine.compile_counters();
        assert_eq!(compile.compiles, 20);
        assert!(compile.dedup_ratio() > 2.0, "20 sibling variants must dedup well: {compile:?}");
        // Memo disabled: every compile pays full price, ratio 1.0.
        let cold =
            Engine::with_config(&EngineConfig { cache_capacity: 64, shards: 8, memo_entries: 0 });
        for i in 0..20u64 {
            let name = format!("variant-{i}");
            cold.handle(&Request::Load {
                name,
                case: serde::Serialize::to_value(&depcase::assurance::templates::stamp(3, i)),
            })
            .unwrap();
        }
        // A private memo can still catch duplicate subtrees *within*
        // one case, but never across compiles — the shared store must
        // clearly beat it.
        let ratio = cold.compile_counters().dedup_ratio();
        assert!(
            ratio < compile.dedup_ratio() && ratio < 1.5,
            "private memos must not share across compiles: {ratio} vs {}",
            compile.dedup_ratio()
        );
    }

    #[test]
    fn stats_carry_shard_and_memo_store_blocks() {
        let engine = Engine::new(8);
        load_demo(&engine, "demo");
        eval_current(&engine, "demo");
        let stats = engine.handle(&Request::Stats).unwrap();
        let shards = stats.get("shards").unwrap();
        assert_eq!(shards.get("count").and_then(Value::as_u64), Some(DEFAULT_SHARDS as u64));
        let per_shard = shards.get("per_shard").and_then(Value::as_array).unwrap();
        assert_eq!(per_shard.len(), DEFAULT_SHARDS);
        let total_cases: u64 =
            per_shard.iter().map(|s| s.get("cases").and_then(Value::as_u64).unwrap()).sum();
        assert_eq!(total_cases, 1);
        let memo = stats.get("memo_store").unwrap();
        assert_eq!(memo.get("enabled"), Some(&Value::Bool(true)));
        assert!(memo.get("capacity").and_then(Value::as_u64).unwrap() > 0);
        let compile = stats.get("compile").unwrap();
        assert_eq!(compile.get("compiles").and_then(Value::as_u64), Some(1));
        assert!(compile.get("subtree_dedup_ratio").is_some());
    }

    #[test]
    fn durable_sharded_engine_recovers_across_a_different_shard_count() {
        let dir = tmp_dir("reshard");
        let durability = DurabilityConfig::new(&dir);
        let bits = {
            let engine = Engine::open_config(
                &EngineConfig { cache_capacity: 16, shards: 8, memo_entries: 1024 },
                &durability,
            )
            .unwrap();
            for i in 0..6 {
                let name = format!("tenant-{i}");
                engine
                    .handle(&Request::Load { name: name.clone(), case: demo_case_value() })
                    .unwrap();
                set_confidence(&engine, &name, "E1", 0.5 + f64::from(i) * 0.05);
            }
            (0..6)
                .map(|i| root_bits(&eval_current(&engine, &format!("tenant-{i}"))))
                .collect::<Vec<_>>()
        };
        // The shard map is derived, not persisted: reopening with a
        // different count must re-route every name correctly.
        let engine = Engine::open_config(
            &EngineConfig { cache_capacity: 16, shards: 3, memo_entries: 1024 },
            &durability,
        )
        .unwrap();
        assert_eq!(engine.shard_count(), 3);
        for (i, want) in bits.iter().enumerate() {
            let name = format!("tenant-{i}");
            let eval = eval_current(&engine, &name);
            assert_eq!(eval.get("version").and_then(Value::as_u64), Some(2));
            assert_eq!(root_bits(&eval), *want);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn effective_deadlines_never_outlive_the_envelope() {
        let started = Instant::now();
        let envelope = started + Duration::from_millis(10);
        assert_eq!(effective_deadline(started, None, None), None);
        assert_eq!(effective_deadline(started, Some(envelope), None), Some(envelope));
        assert_eq!(
            effective_deadline(started, Some(envelope), Some(1_000)),
            Some(envelope),
            "a generous item deadline is capped by the envelope"
        );
        assert_eq!(
            effective_deadline(started, Some(envelope), Some(1)),
            Some(started + Duration::from_millis(1)),
        );
        assert_eq!(
            effective_deadline(started, None, Some(5)),
            Some(started + Duration::from_millis(5)),
        );
    }
}
