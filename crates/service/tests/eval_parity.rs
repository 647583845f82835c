//! Byte-parity oracles for the `eval` answer path. The engine writes an
//! answer's `nodes` array straight to text and keeps that text with the
//! plan-cache session, so two things must hold:
//!
//! - **The encoder prints the tree it replaced.** Over generated cases
//!   (all five node kinds, shared supporters, names that need escapes
//!   or are not ASCII, confidences of −0.0, subnormals and 17
//!   significant digits), every `eval` answer — first read, cached
//!   read, `batch` item, cold batch-kernel item — equals, byte for
//!   byte, the printed `Value` tree the answer used to be built as.
//! - **A warm cache changes no byte.** An engine with a warm plan cache
//!   answers `eval`, `eval` at a version and v2 `batch`es byte-identically
//!   to an engine with a one-entry cache, whose reads are cold:
//!   duplicate items, unknown names, same-shape cold groups and versions
//!   stored as deltas included.

use depcase::assurance::templates::stamp;
use depcase::prelude::*;
use depcase_service::protocol::{format_hash, parse_request, Response};
use depcase_service::Engine;
use proptest::prelude::*;
use serde::Value;

/// The `eval` answer as the engine built it before it printed `nodes`
/// itself: the reference every answer's text must equal.
fn reference_answer(case: &Case, version: u64) -> Value {
    let report = case.propagate().unwrap();
    let mut nodes = Vec::new();
    for (id, node) in case.iter() {
        if let Some(c) = report.confidence(id) {
            let kind = match node.kind {
                NodeKind::Goal => "goal",
                NodeKind::Strategy(_) => "strategy",
                NodeKind::Evidence { .. } => "evidence",
                NodeKind::Assumption { .. } => "assumption",
                NodeKind::Context => "context",
            };
            nodes.push(Value::Object(vec![
                ("name".to_string(), Value::Str(node.name.clone())),
                ("kind".to_string(), Value::Str(kind.to_string())),
                ("confidence".to_string(), Value::F64(c.independent)),
                ("worst_case".to_string(), Value::F64(c.worst_case)),
                ("best_case".to_string(), Value::F64(c.best_case)),
            ]));
        }
    }
    let mut fields = vec![
        ("case".to_string(), Value::Str(case.title().to_string())),
        ("version".to_string(), Value::U64(version)),
        ("hash".to_string(), Value::Str(format_hash(case.content_hash()))),
    ];
    if let Some(top) = report.top() {
        fields.push(("root_confidence".to_string(), Value::F64(top.independent)));
    }
    fields.push(("nodes".to_string(), Value::Array(nodes)));
    Value::Object(fields)
}

/// Answers one wire line and renders the answer as the server would.
fn answer(engine: &Engine, line: &str) -> String {
    let envelope = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
    Response::from(engine.handle(&envelope.request)).render(envelope.version, &envelope.id)
}

fn load_line(name: &str, case: &Case) -> String {
    let doc = serde_json::to_string(case).unwrap();
    format!(r#"{{"op":"load","name":"{name}","case":{doc}}}"#)
}

const NAMES: [&str; 9] = [
    "G",
    "quo\"te",
    "back\\slash",
    "new\nline",
    "tab\t",
    "ctl\u{1}\u{1f}",
    "é",
    "😀 smile",
    "del\u{7f}",
];

/// −0.0, zero, one, two subnormals, and 17-significant-digit values;
/// picks past the end draw a uniform confidence instead.
const CONFIDENCES: [f64; 9] = [
    -0.0,
    0.0,
    1.0,
    5e-324,
    2.225_073_858_507_201e-308,
    0.300_000_000_000_000_04,
    0.999_999_999_999_999_9,
    0.123_456_789_012_345_68,
    1e-300,
];

/// Builds a valid case from generated `(kind, name, confidence, bits)`
/// rows: each node hangs under an earlier goal or strategy, and one in
/// three is shared with a second one. Edges only run from earlier to
/// later nodes, so the graph is acyclic; a goal or strategy left
/// without support gets one evidence leaf.
fn build(spec: &[(u8, usize, usize, u64)]) -> Case {
    let mut case = Case::new(format!("{} title", NAMES[spec.len() % NAMES.len()]));
    let mut parents = vec![case.add_goal("G\"root\"", "claim").unwrap()];
    for (i, &(kind, name, confidence, bits)) in spec.iter().enumerate() {
        let name = format!("{}{i}", NAMES[name % NAMES.len()]);
        let c = CONFIDENCES
            .get(confidence)
            .copied()
            .unwrap_or((bits >> 11) as f64 / (1u64 << 53) as f64);
        let rule = if bits & 1 == 0 { Combination::AnyOf } else { Combination::AllOf };
        let id = match kind {
            0 => case.add_goal(name, "claim"),
            1 => case.add_strategy(name, "argument", rule),
            2 => case.add_evidence(name, "evidence", c),
            3 => case.add_assumption(name, "assumption", c),
            _ => {
                case.add_context(name, "context").unwrap();
                continue;
            }
        }
        .unwrap();
        let parent = parents[(bits >> 1) as usize % parents.len()];
        case.support(parent, id).unwrap();
        let second = parents[(bits >> 8) as usize % parents.len()];
        if (bits >> 16) % 3 == 0 && second != parent {
            case.support(second, id).unwrap();
        }
        if kind < 2 {
            parents.push(id);
        }
    }
    for (k, &p) in parents.iter().enumerate() {
        if case.supporters(p).unwrap().is_empty() {
            let leaf = case.add_evidence(format!("leaf {k}"), "evidence", 0.5).unwrap();
            case.support(p, leaf).unwrap();
        }
    }
    case
}

/// `case` with its first leaf's confidence moved: the same plan shape
/// under a different content hash.
fn same_shape_twin(case: &Case) -> Case {
    let (leaf, confidence) = case
        .iter()
        .find_map(|(id, node)| match node.kind {
            NodeKind::Evidence { confidence } | NodeKind::Assumption { confidence } => {
                Some((id, confidence))
            }
            _ => None,
        })
        .unwrap();
    let mut twin = case.clone();
    twin.set_leaf_confidence(leaf, if confidence == 0.25 { 0.75 } else { 0.25 }).unwrap();
    twin
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_eval_path_prints_the_reference_tree_byte_for_byte(
        spec in proptest::collection::vec((0u8..5, 0usize..9, 0usize..14, any::<u64>()), 0..40)
    ) {
        let case = build(&spec);
        let twin = same_shape_twin(&case);
        let want = serde_json::value_to_string(&reference_answer(&case, 1));
        let twin_want = serde_json::value_to_string(&reference_answer(&twin, 1));
        let ok = |result: &str| format!(r#"{{"ok":true,"result":{result}}}"#);
        // A one-entry cache: loading a third case leaves both cold.
        let engine = Engine::new(1);
        for (name, case) in [("a", &case), ("b", &twin), ("other", &stamp(0, 0))] {
            let loaded = answer(&engine, &load_line(name, case));
            prop_assert!(loaded.contains(r#""ok":true"#), "{loaded}");
        }
        // Two cold items of one shape run the batch kernel; a duplicate
        // shares its answer.
        let batch = r#"{"v":2,"op":"batch","items":[{"op":"eval","name":"a"},{"op":"eval","name":"b"},{"op":"eval","name":"a"}]}"#;
        let items = [ok(&want), ok(&twin_want), ok(&want)].join(",");
        prop_assert_eq!(answer(&engine, batch), format!(r#"{{"v":2,"ok":true,"result":{{"items":[{items}]}}}}"#));
        // The first read renders into the cache, the second splices the
        // cached text, and a time-travel read answers the same version.
        for line in [r#"{"op":"eval","name":"a"}"#, r#"{"op":"eval","name":"a"}"#, r#"{"op":"eval","name":"a","version":1}"#] {
            prop_assert_eq!(answer(&engine, line), format!(r#"{{"ok":true,"result":{want}}}"#));
        }
        let batch = r#"{"v":2,"op":"batch","items":[{"op":"eval","name":"a"},{"op":"eval","name":"a","version":1}]}"#;
        let items = [ok(&want), ok(&want)].join(",");
        prop_assert_eq!(answer(&engine, batch), format!(r#"{{"v":2,"ok":true,"result":{{"items":[{items}]}}}}"#));
    }
}

/// The request stream the cache-parity test replays: stamped loads of
/// three templates, then rounds of reads — `eval`, `eval` at a version,
/// v2 batches with duplicate and unknown items and whole same-shape
/// families — around 40 edits of one tenant, so its history crosses
/// keyframes and most of its versions are stored as deltas.
fn parity_stream() -> Vec<String> {
    let mut lines = Vec::new();
    let names: Vec<String> =
        (0..3).flat_map(|t| (0..8).map(move |v| format!("t{t}-v{v}"))).collect();
    for (i, name) in names.iter().enumerate() {
        lines.push(load_line(name, &stamp(i / 8, (i % 8) as u64)));
    }
    let eval = |name: &str| format!(r#"{{"op":"eval","name":"{name}"}}"#);
    let batch = |items: Vec<String>| {
        format!(r#"{{"id":7,"v":2,"op":"batch","items":[{}]}}"#, items.join(","))
    };
    let at = |name: &str, v: u64| format!(r#"{{"op":"eval","name":"{name}","version":{v}}}"#);
    for _ in 0..2 {
        lines.extend(names.iter().map(|n| eval(n)));
        lines.push(eval("nope"));
        for family in names.chunks(8) {
            let mut items: Vec<String> = family.iter().map(|n| eval(n)).collect();
            items.extend([eval(&family[0]), eval(&family[3]), eval("nope"), at(&family[1], 1)]);
            lines.push(batch(items));
        }
    }
    for i in 1..=40u64 {
        lines.push(format!(
            r#"{{"op":"edit","name":"t0-v0","action":"set_confidence","node":"E0_0","confidence":{}}}"#,
            0.5 + i as f64 / 128.0
        ));
        if i % 4 == 0 {
            lines.push(eval("t0-v0"));
            lines.push(at("t0-v0", i / 2));
            let versions = [1, 2, i / 2, i, i, 17, 18, 33, 99];
            lines.push(batch(versions.iter().map(|&v| at("t0-v0", v)).collect()));
        }
    }
    lines.extend(names.iter().map(|n| eval(n)));
    lines.push(batch((1..=41).step_by(3).map(|v| at("t0-v0", v)).collect()));
    lines.push(batch(names.iter().map(|n| eval(n)).collect()));
    lines
}

#[test]
fn a_warm_cache_answers_byte_identically_to_cold_reads() {
    let (warm, cold) = (Engine::new(64), Engine::new(1));
    let stream = parity_stream();
    let mut oks = 0;
    for line in &stream {
        let (w, c) = (answer(&warm, line), answer(&cold, line));
        assert_eq!(w, c, "{line}");
        oks += usize::from(w.contains(r#""ok":true"#));
    }
    assert!(oks + 4 >= stream.len(), "only {oks} of {} lines answered ok", stream.len());
    // The warm engine read its answers from the cache; the cold one
    // mostly could not.
    let (w, c) = (warm.cache_counters(), cold.cache_counters());
    assert!(w.hits > 4 * c.hits && c.misses > 4 * w.misses, "warm {w:?}, cold {c:?}");
}
