//! Byte-identity pins for the service's direct JSON writers.
//!
//! Wire responses, `manifest.json` and snapshot objects are written as
//! text straight from borrowed parts, never by building a `Value` tree
//! and serializing a copy of it. Each property below writes random
//! inputs both ways — the direct writer, and the `Value` tree a
//! tree-building writer would make, serialized through [`Json`] — and
//! requires the same bytes. The last test pins the one job every
//! snapshot still does over the whole registry: an object file deleted
//! behind a live engine is written back by the next periodic snapshot.

use depcase::prelude::*;
use depcase_service::protocol::{Json, ProtocolVersion, Response};
use depcase_service::snapshot::{Manifest, ManifestCase, Store, VersionRecord};
use depcase_service::{
    DurabilityConfig, Engine, ErrorCode, FsyncPolicy, Request, SimIo, StorageIo, WireError,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Characters covering every escaping rule: quotes, backslashes, the
/// named and the numeric control escapes, DEL, and multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}',
    '\u{7f}', 'é', '😀', '\u{2028}',
];

fn arb_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect()
}

fn arb_number(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4u8) {
        0 => Value::I64(rng.gen()),
        1 => Value::U64(rng.gen()),
        // Any bit pattern: NaN and the infinities print as `null`.
        2 => Value::F64(f64::from_bits(rng.gen())),
        _ => Value::F64(rng.gen()),
    }
}

fn arb_value(rng: &mut StdRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => arb_number(rng),
        3 | 4 => Value::Str(arb_string(rng)),
        5 => Value::Array((0..rng.gen_range(0..5)).map(|_| arb_value(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.gen_range(0..5))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A response line as a tree-building writer renders it: the envelope
/// assembled as a `Value` object around a copy of the result.
fn tree_render(response: &Response, version: ProtocolVersion, id: &Option<Value>) -> String {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(("id".to_string(), id.clone()));
    }
    if version == ProtocolVersion::V2 {
        fields.push(("v".to_string(), Value::U64(2)));
    }
    match response {
        Response::Ok(result) => {
            fields.push(("ok".to_string(), Value::Bool(true)));
            fields.push(("result".to_string(), result.clone()));
        }
        Response::Err(err) => {
            let mut error = vec![
                ("code".to_string(), Value::Str(err.code.as_str().to_string())),
                ("message".to_string(), Value::Str(err.message.clone())),
            ];
            if let Some(ms) = err.retry_after_ms {
                error.push(("retry_after_ms".to_string(), Value::U64(ms)));
            }
            fields.push(("ok".to_string(), Value::Bool(false)));
            fields.push(("error".to_string(), Value::Object(error)));
        }
    }
    serde_json::to_string(&Json(Value::Object(fields))).unwrap()
}

/// `manifest.json` as a tree-building writer renders it.
fn tree_manifest(manifest: &Manifest) -> String {
    let cases = manifest
        .cases
        .iter()
        .map(|c| {
            let history = c
                .history
                .iter()
                .map(|v| {
                    Value::Object(vec![
                        ("version".to_string(), Value::U64(v.version)),
                        ("hash".to_string(), Value::Str(format!("{:016x}", v.hash))),
                        ("ts_ms".to_string(), Value::U64(v.ts_ms)),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("name".to_string(), Value::Str(c.name.clone())),
                ("history".to_string(), Value::Array(history)),
            ])
        })
        .collect();
    let tree = Value::Object(vec![
        ("seq".to_string(), Value::U64(manifest.seq)),
        ("cases".to_string(), Value::Array(cases)),
    ]);
    serde_json::to_string(&Json(tree)).unwrap()
}

/// A random evaluable case whose title, names and statements all need
/// escaping: a goal over a strategy over one to four evidence leaves.
fn arb_case(rng: &mut StdRng) -> Case {
    let mut case = Case::new(arb_string(rng));
    let g = case.add_goal(format!("0:{}", arb_string(rng)), arb_string(rng)).unwrap();
    let combination = if rng.gen() { Combination::AnyOf } else { Combination::AllOf };
    let s = case.add_strategy(format!("1:{}", arb_string(rng)), arb_string(rng), combination);
    let s = s.unwrap();
    case.support(g, s).unwrap();
    for i in 2..rng.gen_range(3..7) {
        let name = format!("{i}:{}", arb_string(rng));
        let e = case.add_evidence(name, arb_string(rng), rng.gen()).unwrap();
        case.support(s, e).unwrap();
    }
    case
}

fn sim_store() -> (SimIo, Arc<dyn StorageIo>) {
    let sim = SimIo::new();
    let io: Arc<dyn StorageIo> = Arc::new(sim.clone());
    (sim, io)
}

fn text_at(sim: &SimIo, path: &str) -> String {
    String::from_utf8(sim.live_bytes(Path::new(path)).expect("file written")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Response::render` writes the envelope around the borrowed
    /// result: v1 and v2, ok and err, and an id that is absent, a
    /// number, or a string needing escapes.
    #[test]
    fn response_render_matches_the_value_envelope(
        seed in any::<u64>(),
        v2 in any::<bool>(),
        ok in any::<bool>(),
        id_kind in 0u8..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let id = match id_kind {
            0 => None,
            1 => Some(arb_number(&mut rng)),
            _ => Some(Value::Str(arb_string(&mut rng))),
        };
        let version = if v2 { ProtocolVersion::V2 } else { ProtocolVersion::V1 };
        let response = if ok {
            Response::Ok(arb_value(&mut rng, 3))
        } else {
            let code = ErrorCode::ALL[rng.gen_range(0..ErrorCode::ALL.len())];
            let err = WireError::new(code, arb_string(&mut rng));
            Response::Err(if rng.gen() { err.with_retry_after(rng.gen()) } else { err })
        };
        prop_assert_eq!(response.render(version, &id), tree_render(&response, version, &id));
    }

    /// `Store::write_manifest` writes the manifest text directly; it
    /// equals the serialized tree and reads back to the same manifest.
    #[test]
    fn manifest_text_matches_the_value_tree(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cases = Vec::new();
        for _ in 0..rng.gen_range(0..6) {
            let name = arb_string(&mut rng);
            let history = (0..rng.gen_range(1..5))
                .map(|_| VersionRecord { version: rng.gen(), hash: rng.gen(), ts_ms: rng.gen() })
                .collect();
            cases.push(ManifestCase { name, history });
        }
        let manifest = Manifest { seq: rng.gen(), cases };
        let (sim, io) = sim_store();
        let store = Store::open_with_io("/sim", io).unwrap();
        store.write_manifest(&manifest).unwrap();
        prop_assert_eq!(text_at(&sim, "/sim/manifest.json"), tree_manifest(&manifest));
        prop_assert_eq!(store.load_manifest().unwrap(), Some(manifest));
    }

    /// Snapshot objects are the engine's packed case bytes, written as
    /// they are: the same bytes as parsing them and serializing the
    /// parsed tree again.
    #[test]
    fn snapshot_objects_match_the_reparsed_document(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let case = arb_case(&mut rng);
        let (sim, io) = sim_store();
        let config = DurabilityConfig {
            data_dir: PathBuf::from("/sim"),
            fsync: FsyncPolicy::Never,
            snapshot_every: 1,
        };
        let engine = Engine::open_with_io(8, &config, io).unwrap();
        let name = arb_string(&mut rng);
        let loaded =
            engine.handle(&Request::Load { name, case: Serialize::to_value(&case) }).unwrap();
        let hash = loaded.get("hash").and_then(Value::as_str).unwrap();
        let written = text_at(&sim, &format!("/sim/objects/{hash}.json"));
        // The engine packs the case it rebuilt from the request.
        let rebuilt = Case::from_value(&Serialize::to_value(&case)).unwrap();
        let packed = serde_json::to_string(&rebuilt).unwrap();
        let Json(reparsed) = serde_json::from_str::<Json>(&packed).unwrap();
        prop_assert_eq!(&written, &serde_json::to_string(&Json(reparsed)).unwrap());
        prop_assert_eq!(&written, &packed);
    }
}

fn two_leaf_case(title: &str, confidence: f64) -> Case {
    let mut case = Case::new(title);
    let g = case.add_goal("G", "pfd < 1e-3").unwrap();
    let s = case.add_strategy("S", "legs", Combination::AnyOf).unwrap();
    let e1 = case.add_evidence("E1", "testing", confidence).unwrap();
    let e2 = case.add_evidence("E2", "analysis", 0.9).unwrap();
    case.support(g, s).unwrap();
    case.support(s, e1).unwrap();
    case.support(s, e2).unwrap();
    case
}

/// The periodic snapshot's `has_object` sweep over every registry
/// object is what re-writes an object file lost behind the server's
/// back; a snapshot that only wrote what changed since the last one
/// would leave it missing until a restart found the hole.
#[test]
fn an_object_deleted_behind_a_live_engine_is_rewritten_by_the_next_snapshot() {
    let dir = std::env::temp_dir().join(format!("depcase_heal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        DurabilityConfig { data_dir: dir.clone(), fsync: FsyncPolicy::Never, snapshot_every: 2 };
    let engine = Engine::open(8, &config).unwrap();
    let load = |name: &str, case: &Case| {
        let request = Request::Load { name: name.to_string(), case: Serialize::to_value(case) };
        engine.handle(&request).unwrap()
    };
    let loaded = load("kept", &two_leaf_case("kept", 0.95));
    let hash = loaded.get("hash").and_then(Value::as_str).unwrap().to_string();
    load("busy", &two_leaf_case("busy", 0.5));
    assert_eq!(engine.durability_counters().snapshots_written, 1);

    let object = dir.join("objects").join(format!("{hash}.json"));
    let original = std::fs::read(&object).unwrap();
    std::fs::remove_file(&object).unwrap();

    // Two mutations that never touch `kept`: only the sweep restores it.
    for confidence in [0.6, 0.7] {
        let edit = Request::Edit {
            name: "busy".into(),
            action: depcase_service::EditAction::SetConfidence { node: "E1".into(), confidence },
        };
        engine.handle(&edit).unwrap();
    }
    assert_eq!(engine.durability_counters().snapshots_written, 2);
    assert_eq!(std::fs::read(&object).unwrap(), original, "re-written byte for byte");

    // A restart restores `kept` from that object, healthy.
    drop(engine);
    let engine = Engine::open(8, &config).unwrap();
    assert_eq!(engine.storage_health().corrupt_detected, 0);
    let eval = engine.handle(&Request::Eval { name: "kept".into(), at: None }).unwrap();
    assert_eq!(eval.get("hash").and_then(Value::as_str), Some(hash.as_str()));
    std::fs::remove_dir_all(&dir).unwrap();
}
