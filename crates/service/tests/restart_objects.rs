//! A restart that restores from snapshot objects answers byte for byte
//! what the engine answered before it.
//!
//! Two cases with every node kind and labels that need escapes (quotes,
//! backslashes, control characters, non-ASCII) are edited past a
//! keyframe with all three actions under a small `snapshot_every`, so
//! most versions reach `objects/` and come back through the packed-case
//! decoder, keyframes and deltas alike. Every `eval` at a version and
//! every `history` is rendered before and after the reopen, through a
//! one-entry plan cache so each historical read rebuilds its version
//! from the store, and a scrub of the reopened store finds nothing
//! corrupt.

use depcase::prelude::*;
use depcase_service::protocol::{ProtocolVersion, Response};
use depcase_service::{
    DurabilityConfig, EditAction, Engine, EvalAt, FsyncPolicy, Request, WireLeafKind,
};
use serde::{Serialize, Value};

/// Every node kind; every label spells at least one escape or a
/// multi-byte character. `k` varies the names and confidences.
fn labelled_case(k: usize) -> Case {
    let mut case = Case::new(format!("fleet \"{k}\" \\ réseau\t😀\u{1}"));
    let g = case.add_goal(format!("G\"{k}\""), "pfd < 1e-3\nper demand").unwrap();
    let s1 = case.add_strategy("S/any\\", "legs \u{1f} any", Combination::AnyOf).unwrap();
    let s2 = case.add_strategy("S\tall", "all «of»", Combination::AllOf).unwrap();
    let e1 = case.add_evidence("É1", "testing \"statistical\"", 0.95 - 0.01 * k as f64).unwrap();
    let e2 = case.add_evidence("E2\u{7f}", "analysis\r\n", 0.9).unwrap();
    let e3 = case.add_evidence("E3 😀", "", 0.123_456_789_012_345_68).unwrap();
    let a = case.add_assumption("A\\1", "environment \u{2028}", 0.98).unwrap();
    case.add_context("C\u{8}", "operating profile \u{c}").unwrap();
    case.support(g, s1).unwrap();
    case.support(g, a).unwrap();
    case.support(s1, e1).unwrap();
    case.support(s1, s2).unwrap();
    case.support(s2, e2).unwrap();
    case.support(s2, e3).unwrap();
    case
}

/// The `i`th edit of case `k`: a mix of all three actions, each valid
/// against what the edits before it built. Confidences differ between
/// the cases, so no two versions share content (and so an object).
fn edit(i: usize, k: usize) -> EditAction {
    let confidence = 0.5 + i as f64 / 97.0 + k as f64 / 1000.0;
    let kind = if i.is_multiple_of(2) { WireLeafKind::Assumption } else { WireLeafKind::Evidence };
    match i % 3 {
        0 => EditAction::SetConfidence { node: "É1".into(), confidence },
        1 => EditAction::AddLeaf {
            parent: "S\tall".into(),
            node: format!("X\"{i}\" ü"),
            statement: Some(format!("added \\ {i}\n")),
            kind,
            confidence,
        },
        // S/any\'s first supporter becomes the leaf just added.
        _ => EditAction::Retarget {
            parent: "S/any\\".into(),
            from: if i == 2 { "É1".into() } else { format!("X\"{}\" ü", i - 4) },
            to: format!("X\"{}\" ü", i - 1),
        },
    }
}

fn answer(engine: &Engine, request: &Request) -> String {
    Response::from(engine.handle(request)).render(ProtocolVersion::V1, &None)
}

/// `history` and `eval` at every version of every name, rendered.
fn transcript(engine: &Engine, names: &[String], versions: u64) -> Vec<String> {
    let mut out = Vec::new();
    for name in names {
        out.push(answer(engine, &Request::History { name: name.clone() }));
        for v in 1..=versions {
            let at = Some(EvalAt::Version(v));
            out.push(answer(engine, &Request::Eval { name: name.clone(), at }));
        }
    }
    out
}

fn config(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig { data_dir: dir.to_path_buf(), fsync: FsyncPolicy::Never, snapshot_every: 3 }
}

#[test]
fn a_restart_through_snapshot_objects_answers_byte_identically() {
    let dir = std::env::temp_dir().join(format!("depcase_restart_objects_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names: Vec<String> = (0..2).map(|k| format!("case \"{k}\" é")).collect();
    let edits = 20;
    let before = {
        let engine = Engine::open(1, &config(&dir)).unwrap();
        for (k, name) in names.iter().enumerate() {
            let case = Serialize::to_value(&labelled_case(k));
            let loaded = answer(&engine, &Request::Load { name: name.clone(), case });
            assert!(loaded.contains("\"ok\":true"), "{loaded}");
        }
        for i in 0..edits {
            for (k, name) in names.iter().enumerate() {
                let request = Request::Edit { name: name.clone(), action: edit(i, k) };
                let edited = answer(&engine, &request);
                assert!(edited.contains("\"ok\":true"), "edit {i}: {edited}");
            }
        }
        transcript(&engine, &names, edits as u64 + 1)
    };
    let objects = std::fs::read_dir(dir.join("objects")).unwrap().count();
    assert_eq!(objects, 42, "every version of both names is a snapshot object");

    let engine = Engine::open(1, &config(&dir)).unwrap();
    let stats = engine.stats_value();
    let replayed = stats.get("durability").and_then(|d| d.get("records_replayed"));
    assert!(
        replayed.and_then(Value::as_u64).is_some_and(|r| r < 3),
        "the snapshot, not the WAL, restores the versions: {replayed:?}"
    );
    let after = transcript(&engine, &names, edits as u64 + 1);
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(&after) {
        assert_eq!(b, a);
    }
    assert!(before.iter().all(|line| line.contains("\"ok\":true")), "{before:?}");
    // Labels came back escaped exactly as they went in.
    assert!(before.iter().any(|line| line.contains(r#""name":"X\"19\" ü""#)), "{before:?}");

    let scrub = answer(&engine, &Request::Scrub);
    assert!(scrub.contains("\"corrupt_detected\":0"), "{scrub}");
    assert!(scrub.contains(&format!("\"objects_checked\":{objects}")), "{scrub}");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restore large enough to verify its objects in several batches, on
/// as many threads as the host has, parks every version where reading
/// them one by one would: intact versions answer as before, a damaged
/// historical object fails only its own version, a damaged current
/// object poisons only its own name, and each is quarantined once.
#[test]
fn a_restore_verified_in_batches_keeps_every_answer_and_each_quarantine() {
    let dir = std::env::temp_dir().join(format!("depcase_restart_batches_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names: Vec<String> = (0..12).map(|k| format!("case \"{k}\" é")).collect();
    let edits = 20;
    let versions = edits as u64 + 1;
    let (before, damaged) = {
        let engine = Engine::open(1, &config(&dir)).unwrap();
        for (k, name) in names.iter().enumerate() {
            let case = Serialize::to_value(&labelled_case(k));
            let loaded = answer(&engine, &Request::Load { name: name.clone(), case });
            assert!(loaded.contains("\"ok\":true"), "{loaded}");
        }
        for i in 0..edits {
            for (k, name) in names.iter().enumerate() {
                let request = Request::Edit { name: name.clone(), action: edit(i, k) };
                let edited = answer(&engine, &request);
                assert!(edited.contains("\"ok\":true"), "edit {i}: {edited}");
            }
        }
        let hash = |name: &String, version| {
            let request = Request::Eval { name: name.clone(), at: Some(EvalAt::Version(version)) };
            let eval = engine.handle(&request).unwrap();
            eval.get("hash").and_then(Value::as_str).unwrap().to_string()
        };
        // Name 3's fifth version and name 7's current one.
        let damaged = [hash(&names[3], 5), hash(&names[7], versions)];
        (transcript(&engine, &names, versions), damaged)
    };
    let objects = std::fs::read_dir(dir.join("objects")).unwrap().count();
    assert_eq!(objects, names.len() * (edits + 1), "one object per version, several batches");
    for hash in &damaged {
        let path = dir.join("objects").join(format!("{hash}.json"));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }

    let engine = Engine::open(1, &config(&dir)).unwrap();
    let health = engine.storage_health();
    assert_eq!((health.corrupt_detected, health.quarantined), (2, 2), "{health:?}");
    assert_eq!(std::fs::read_dir(dir.join("quarantine")).unwrap().count(), 2);
    let after = transcript(&engine, &names, versions);
    assert_eq!(before.len(), after.len());
    // Each name's lines: its history, then `eval` at versions 1, 2, ….
    let per_name = edits + 2;
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        let (name, line) = (i / per_name, i % per_name);
        if name == 7 || (name == 3 && line == 5) {
            assert!(a.contains("\"data_corrupted\""), "name {name} line {line}: {a}");
        } else {
            assert_eq!(b, a, "name {name} line {line}");
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}
