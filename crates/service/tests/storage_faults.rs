//! Fault-injection integration tests for the self-healing storage
//! stack, over the deterministic [`FaultyIo`] decorator and the
//! in-memory [`SimIo`] disk:
//!
//! - **Disk full** (`ENOSPC`): the server stays up, refuses mutations
//!   with `read_only` + `retry_after_ms`, keeps serving evals
//!   bit-identically, and resumes mutations — continuing the version
//!   sequence — once space comes back.
//! - **Retry discipline**: a [`RetryingClient`] rides out the window
//!   without the caller seeing the outage.
//! - **Bit-rot**: scrub detects 100% of injected flips, repairs every
//!   object with a reachable in-memory copy, quarantines the rest, and
//!   never serves a corrupt object silently (`data_corrupted`).
//! - **WAL healing**: an object quarantined at restore is rewritten
//!   from a replayed WAL record (`repaired_from_wal`).

use depcase::prelude::*;
use depcase_service::protocol::{Json, Request};
use depcase_service::{
    Client, DurabilityConfig, EditAction, Engine, EvalAt, FaultyIo, FsyncPolicy, RetryPolicy,
    RetryingClient, Server, ServerConfig, SimIo, StorageIo, WireError,
};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn demo_case() -> Case {
    let mut case = Case::new("protection system");
    let g = case.add_goal("G", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S", "independent legs", Combination::AnyOf).unwrap();
    let e1 = case.add_evidence("E1", "statistical testing", 0.95).unwrap();
    let e2 = case.add_evidence("E2", "static analysis", 0.90).unwrap();
    case.support(g, s).unwrap();
    case.support(s, e1).unwrap();
    case.support(s, e2).unwrap();
    case
}

fn config(snapshot_every: u64) -> DurabilityConfig {
    DurabilityConfig { data_dir: PathBuf::from("/sim"), fsync: FsyncPolicy::Always, snapshot_every }
}

fn load(engine: &Engine, name: &str, case: &Case) -> Value {
    engine
        .handle(&Request::Load { name: name.to_string(), case: Serialize::to_value(case) })
        .unwrap()
}

fn edit(
    engine: &Engine,
    name: &str,
    node: &str,
    confidence: f64,
) -> std::result::Result<Value, WireError> {
    engine.handle(&Request::Edit {
        name: name.to_string(),
        action: EditAction::SetConfidence { node: node.to_string(), confidence },
    })
}

fn eval_at(engine: &Engine, name: &str, version: u64) -> std::result::Result<Value, WireError> {
    engine.handle(&Request::Eval { name: name.to_string(), at: Some(EvalAt::Version(version)) })
}

fn root_bits(value: &Value) -> u64 {
    value.get("root_confidence").and_then(Value::as_f64).unwrap().to_bits()
}

fn object_path(hash_hex: &str) -> PathBuf {
    Path::new("/sim/objects").join(format!("{hash_hex}.json"))
}

/// Object files currently in the store, via the same [`StorageIo`]
/// surface the engine uses.
fn object_files(sim: &SimIo) -> Vec<PathBuf> {
    let mut files = sim.list_dir(Path::new("/sim/objects")).unwrap();
    files.retain(|p| p.extension().is_some_and(|e| e == "json"));
    files.sort();
    files
}

fn parse(line: &str) -> Value {
    let Json(value) = serde_json::from_str::<Json>(line).unwrap();
    value
}

fn load_line(name: &str, case: &Case) -> String {
    let body = Value::Object(vec![
        ("op".to_string(), Value::Str("load".to_string())),
        ("name".to_string(), Value::Str(name.to_string())),
        ("case".to_string(), Serialize::to_value(case)),
    ]);
    serde_json::to_string(&Json(body)).unwrap()
}

fn edit_line(name: &str, node: &str, confidence: f64) -> String {
    format!(
        r#"{{"op":"edit","name":"{name}","action":"set_confidence","node":"{node}","confidence":{confidence}}}"#
    )
}

/// One acked wire mutation: what must survive the read-only window.
struct Acked {
    version: u64,
    hash: String,
    root_bits: Option<u64>,
}

fn acked_from(result: &Value) -> Acked {
    Acked {
        version: result.get("version").and_then(Value::as_u64).unwrap(),
        hash: result.get("hash").and_then(Value::as_str).unwrap().to_string(),
        root_bits: result.get("root_confidence").and_then(Value::as_f64).map(f64::to_bits),
    }
}

/// Disk full mid-storm: mutations answer `read_only` with a retry
/// hint, evals keep serving bit-identically, space restore resumes the
/// version sequence, and a post-mortem reopen of the disk holds exactly
/// the acked mutations.
#[test]
fn disk_full_degrades_to_read_only_and_recovers() {
    let sim = SimIo::new();
    let faulty = Arc::new(FaultyIo::parse(Arc::new(sim.clone()), "seed=1").unwrap());
    let engine = Arc::new(
        Engine::open_with_io(32, &config(1000), Arc::clone(&faulty) as Arc<dyn StorageIo>).unwrap(),
    );
    let server = Server::start(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut acked =
        vec![acked_from(&client.round_trip_value(&load_line("alpha", &demo_case())).unwrap())];
    for i in 0..3u32 {
        let c = 0.55 + 0.1 * f64::from(i);
        acked.push(acked_from(&client.round_trip_value(&edit_line("alpha", "E1", c)).unwrap()));
    }
    let eval_before = client.round_trip_value(r#"{"op":"eval","name":"alpha"}"#).unwrap();

    // The disk fills. Every mutation now answers `read_only` with a
    // retry hint; none may burn a version.
    faulty.exhaust_space();
    for _ in 0..2 {
        let refused = parse(&client.round_trip(&edit_line("alpha", "E2", 0.42)).unwrap());
        assert_eq!(refused.get("ok").and_then(Value::as_bool), Some(false));
        let error = refused.get("error").unwrap();
        assert_eq!(error.get("code").and_then(Value::as_str), Some("read_only"));
        assert!(
            error.get("retry_after_ms").and_then(Value::as_u64).is_some(),
            "read_only must carry a retry hint"
        );
    }
    assert!(engine.read_only(), "engine must flag read-only");
    let health = engine.storage_health();
    assert!(health.read_only && health.read_only_entered >= 1 && health.append_failures >= 2);

    // Reads keep serving, bit-identical to before the outage.
    let eval_during = client.round_trip_value(r#"{"op":"eval","name":"alpha"}"#).unwrap();
    assert_eq!(root_bits(&eval_during), root_bits(&eval_before));

    // Space comes back: mutations resume, continuing the version
    // sequence exactly where the last *acked* mutation left it.
    faulty.restore_space();
    let resumed = client.round_trip_value(&edit_line("alpha", "E1", 0.91)).unwrap();
    assert_eq!(
        resumed.get("version").and_then(Value::as_u64),
        Some(acked.last().unwrap().version + 1),
        "refused mutations must not burn versions"
    );
    acked.push(acked_from(&resumed));
    assert!(!engine.read_only());
    assert!(engine.storage_health().read_only_exited >= 1);

    server.shutdown();
    drop(engine);

    // Post-mortem: a fresh engine on the surviving bytes holds the
    // acked mutations — and nothing else — bit-identically.
    let reopened =
        Engine::open_with_io(32, &config(1000), Arc::new(sim) as Arc<dyn StorageIo>).unwrap();
    for a in &acked {
        let eval = eval_at(&reopened, "alpha", a.version).unwrap();
        assert_eq!(eval.get("hash").and_then(Value::as_str), Some(a.hash.as_str()));
        if let Some(bits) = a.root_bits {
            assert_eq!(root_bits(&eval), bits, "v{} drifted", a.version);
        }
    }
    let history = reopened.handle(&Request::History { name: "alpha".to_string() }).unwrap();
    assert_eq!(
        history.get("current_version").and_then(Value::as_u64),
        Some(acked.last().unwrap().version),
        "the refused edits must leave no trace"
    );
}

/// A [`RetryingClient`] rides out the read-only window: the caller sees
/// one successful mutation, with `read_only` in the retried-code log.
#[test]
fn a_retrying_client_rides_out_the_disk_full_window() {
    let sim = SimIo::new();
    let faulty = Arc::new(FaultyIo::parse(Arc::new(sim.clone()), "seed=2").unwrap());
    let engine = Arc::new(
        Engine::open_with_io(32, &config(1000), Arc::clone(&faulty) as Arc<dyn StorageIo>).unwrap(),
    );
    let server = Server::start(
        Arc::clone(&engine),
        ("127.0.0.1", 0),
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let mut plain = Client::connect(server.local_addr()).unwrap();
    plain.round_trip_value(&load_line("alpha", &demo_case())).unwrap();

    faulty.exhaust_space();
    let restorer = {
        let faulty = Arc::clone(&faulty);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            faulty.restore_space();
        })
    };

    let policy =
        RetryPolicy { max_attempts: 30, base_ms: 10, cap_ms: 50, ..RetryPolicy::default() };
    let mut retrying = RetryingClient::connect(server.local_addr(), policy).unwrap();
    let response = parse(&retrying.round_trip(&edit_line("alpha", "E1", 0.7)).unwrap());
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert!(
        retrying.retried_codes().iter().any(|c| c == "read_only"),
        "the window must have been visible as retried read_only codes, got {:?}",
        retrying.retried_codes()
    );
    restorer.join().unwrap();
    server.shutdown();
}

/// True while the stored bytes still honor the store's integrity
/// contract: they parse, and the parsed case hashes back to the
/// object's content address. The address covers evaluation-relevant
/// state (kinds, confidences, structure) — a flip that only rewords a
/// label *parses into the same case identity* and is inside the
/// contract, so rot below is driven until each object breaks it.
fn object_is_clean(sim: &SimIo, path: &Path, address: u64) -> bool {
    let Ok(bytes) = sim.read_file(path) else { return false };
    let Ok(text) = String::from_utf8(bytes) else { return false };
    let Ok(Json(doc)) = serde_json::from_str::<Json>(&text) else { return false };
    let Ok(case) = Case::from_value(&doc) else { return false };
    case.content_hash() == address
}

fn address_of(path: &Path) -> u64 {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap();
    depcase_service::protocol::parse_hash(stem).unwrap()
}

/// Scrub detects **every** rotted object and repairs **every** one,
/// because the live registry parks an intact copy of each; a second
/// scrub confirms the store is clean, and time-travel evals of the
/// repaired versions stay bit-identical.
#[test]
fn scrub_detects_and_repairs_every_rotted_object() {
    let sim = SimIo::new();
    let engine =
        Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>).unwrap();
    load(&engine, "alpha", &demo_case());
    for c in [0.60, 0.70, 0.80] {
        edit(&engine, "alpha", "E1", c).unwrap();
    }
    let files = object_files(&sim);
    assert_eq!(files.len(), 4, "snapshot_every=2 must have persisted all four versions");
    let bits_before: Vec<u64> =
        (1..=4).map(|v| root_bits(&eval_at(&engine, "alpha", v).unwrap())).collect();

    // Media decay: every read through the rotting IO flips one bit and
    // persists it, exactly what a slowly dying disk does. Decay
    // accumulates until every object violates its content address.
    let rotting = FaultyIo::parse(Arc::new(sim.clone()), "seed=9,bitrot=1").unwrap();
    for path in &files {
        while object_is_clean(&sim, path, address_of(path)) {
            rotting.read_file(path).unwrap();
        }
    }
    assert!(rotting.injected().bitrot as usize >= files.len());

    let report = engine.handle(&Request::Scrub).unwrap();
    assert_eq!(report.get("objects_checked").and_then(Value::as_u64), Some(4));
    assert_eq!(
        report.get("corrupt_detected").and_then(Value::as_u64),
        Some(4),
        "scrub must detect 100% of the injected bit-rot"
    );
    assert_eq!(report.get("repaired").and_then(Value::as_u64), Some(4));
    assert_eq!(report.get("quarantined").and_then(Value::as_u64), Some(0));

    let clean = engine.handle(&Request::Scrub).unwrap();
    assert_eq!(clean.get("corrupt_detected").and_then(Value::as_u64), Some(0));
    let health = engine.storage_health();
    assert_eq!(health.scrubs, 2);
    assert_eq!(health.repaired_from_memory, 4);

    for (i, bits) in bits_before.iter().enumerate() {
        let eval = eval_at(&engine, "alpha", i as u64 + 1).unwrap();
        assert_eq!(root_bits(&eval), *bits, "v{} drifted across rot + repair", i + 1);
    }
}

/// An object nothing in memory can rebuild is quarantined, not
/// repaired: the damaged bytes move to `quarantine/` for forensics and
/// leave the serving path.
#[test]
fn scrub_quarantines_objects_with_no_intact_copy() {
    let sim = SimIo::new();
    let engine =
        Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>).unwrap();
    load(&engine, "alpha", &demo_case());
    edit(&engine, "alpha", "E1", 0.6).unwrap();

    // A stray object under a valid content address, with garbage bytes
    // and no registry copy to repair from.
    let stray = object_path("deadbeefdeadbeef");
    sim.corrupt(&stray, b"not an object".to_vec());

    let report = engine.handle(&Request::Scrub).unwrap();
    assert_eq!(report.get("corrupt_detected").and_then(Value::as_u64), Some(1));
    assert_eq!(report.get("repaired").and_then(Value::as_u64), Some(0));
    assert_eq!(report.get("quarantined").and_then(Value::as_u64), Some(1));
    assert!(!sim.exists(&stray), "the damaged bytes must leave the objects dir");
    assert!(
        sim.exists(Path::new("/sim/quarantine/deadbeefdeadbeef.json")),
        "the damaged bytes must be kept for forensics"
    );
    assert_eq!(engine.storage_health().quarantined, 1);
}

/// Corruption found at restore: a damaged **historical** object answers
/// `data_corrupted` only for that version; a damaged **current** object
/// poisons the whole name (an older version is never silently served as
/// current) until a fresh load re-establishes it.
#[test]
fn restore_time_corruption_is_never_served_silently() {
    let sim = SimIo::new();
    let hashes: Vec<String> = {
        let engine =
            Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>)
                .unwrap();
        let v1 = load(&engine, "alpha", &demo_case());
        let v2 = edit(&engine, "alpha", "E1", 0.6).unwrap();
        // snapshot_every=2 fired exactly at v2: both objects are on
        // disk and the WAL is empty, so nothing replays over the damage.
        vec![
            v1.get("hash").and_then(Value::as_str).unwrap().to_string(),
            v2.get("hash").and_then(Value::as_str).unwrap().to_string(),
        ]
    };

    // Damage the historical object: only v1 is lost.
    let v1_path = object_path(&hashes[0]);
    let v1_bytes = sim.live_bytes(&v1_path).unwrap();
    let mut rotted = v1_bytes.clone();
    rotted[v1_bytes.len() / 2] ^= 0x01;
    sim.corrupt(&v1_path, rotted);
    {
        let engine =
            Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>)
                .unwrap();
        let lost = eval_at(&engine, "alpha", 1).unwrap_err();
        assert_eq!(lost.code.as_str(), "data_corrupted");
        assert!(eval_at(&engine, "alpha", 2).is_ok(), "the intact current version must serve");
        assert_eq!(engine.storage_health().quarantined, 1);
    }

    // Damage the *current* object on a fresh disk: the whole name
    // answers `data_corrupted` — serving v1 as current would silently
    // roll back acked state — until a fresh load lifts the quarantine.
    let sim = SimIo::new();
    {
        let engine =
            Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>)
                .unwrap();
        load(&engine, "alpha", &demo_case());
        edit(&engine, "alpha", "E1", 0.6).unwrap();
    }
    let v2_path = object_path(&hashes[1]);
    let v2_bytes = sim.live_bytes(&v2_path).unwrap();
    let mut rotted = v2_bytes.clone();
    rotted[v2_bytes.len() / 2] ^= 0x01;
    sim.corrupt(&v2_path, rotted);
    let engine =
        Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>).unwrap();
    for version in [1, 2] {
        let lost = eval_at(&engine, "alpha", version).unwrap_err();
        assert_eq!(lost.code.as_str(), "data_corrupted", "v{version} must not serve");
    }
    let current =
        engine.handle(&Request::Eval { name: "alpha".to_string(), at: None }).unwrap_err();
    assert_eq!(current.code.as_str(), "data_corrupted");

    // A fresh load under the name re-establishes serving.
    load(&engine, "alpha", &demo_case());
    assert!(engine.handle(&Request::Eval { name: "alpha".to_string(), at: None }).is_ok());
}

/// An object quarantined at restore but reconstructable from a replayed
/// WAL record is healed during open: `repaired_from_wal` ticks, the
/// version serves again, and scrub finds a clean store.
#[test]
fn wal_replay_heals_a_quarantined_object() {
    let sim = SimIo::new();
    let (v1_hash, v1_bits) = {
        let engine =
            Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>)
                .unwrap();
        let v1 = load(&engine, "alpha", &demo_case());
        // v2 lands the snapshot (objects for v1+v2, WAL truncated);
        // v3 sets E1 back to its original confidence, so its content
        // hash *is* v1's — replaying its WAL record re-parks the doc.
        edit(&engine, "alpha", "E1", 0.6).unwrap();
        let v3 = edit(&engine, "alpha", "E1", 0.95).unwrap();
        let v1_hash = v1.get("hash").and_then(Value::as_str).unwrap().to_string();
        assert_eq!(
            v3.get("hash").and_then(Value::as_str),
            Some(v1_hash.as_str()),
            "v3 must dedup onto v1's content address for this test's setup"
        );
        (v1_hash, root_bits(&eval_at(&engine, "alpha", 1).unwrap()))
    };

    let path = object_path(&v1_hash);
    let bytes = sim.live_bytes(&path).unwrap();
    let mut rotted = bytes.clone();
    rotted[bytes.len() / 2] ^= 0x01;
    sim.corrupt(&path, rotted);

    let engine =
        Engine::open_with_io(32, &config(2), Arc::new(sim.clone()) as Arc<dyn StorageIo>).unwrap();
    let health = engine.storage_health();
    assert_eq!(health.repaired_from_wal, 1, "the replayed v3 doc must heal the object");
    let eval = eval_at(&engine, "alpha", 1).unwrap();
    assert_eq!(root_bits(&eval), v1_bits, "the healed v1 must be bit-identical");
    let report = engine.handle(&Request::Scrub).unwrap();
    assert_eq!(report.get("corrupt_detected").and_then(Value::as_u64), Some(0));
}
