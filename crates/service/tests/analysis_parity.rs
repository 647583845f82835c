//! Byte-parity oracle for the `rank` and `mc` answers. The engine ranks
//! leaves over its cached session's own values and writes `rank`'s rows
//! straight to text, and it builds `mc`'s rows from the report in target
//! order. After a load and edits of every kind on a deep case, on a warm
//! cache and on a one-entry cache whose reads are cold, both answers
//! must equal, byte for byte, the library's results for the same case —
//! `birnbaum_importance` and `MonteCarlo::run` — printed through the
//! `Value` tree the answers used to be built as.

use depcase::assurance::birnbaum_importance;
use depcase::prelude::*;
use depcase_service::protocol::{format_hash, parse_request, Response};
use depcase_service::Engine;
use serde::Value;

/// Answers one wire line and renders the answer as the server would.
fn answer(engine: &Engine, line: &str) -> String {
    let envelope = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
    Response::from(engine.handle(&envelope.request)).render(envelope.version, &envelope.id)
}

/// A request line from its fields.
fn line(fields: Vec<(&str, Value)>) -> String {
    let fields = fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    serde_json::value_to_string(&Value::Object(fields))
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Names that need escapes, or are not ASCII.
const NAMES: [&str; 5] = ["quo\"te", "back\\slash", "tab\t", "é", "plain"];

/// A seeded argument tree of about 600 nodes and depth at most 6, in the
/// mould of the benchmark's `deep_analysis` cases: AnyOf and AllOf
/// strategies and sub-goals inside, evidence and assumptions at the
/// leaves, some of them shared by two parents.
fn deep_case() -> Case {
    let mut state = 0xa11_ce5_u64;
    let mut case = Case::new("deep \"analysis\"");
    let root = case.add_goal("G", "top").unwrap();
    let mut frontier: Vec<(NodeId, usize)> = vec![(root, 0)];
    let (mut next, mut count) = (0, 1);
    while next < frontier.len() {
        let (parent, depth) = frontier[next];
        next += 1;
        let fan = if count >= 600 { 1 } else { 2 + splitmix(&mut state) % 9 };
        for k in 0..fan {
            let name = format!("{}{count}", NAMES[count % NAMES.len()]);
            count += 1;
            let roll = splitmix(&mut state);
            let id = if count > 600 || depth + 1 == 6 || (depth > 0 && roll.is_multiple_of(3)) {
                let confidence = (roll >> 11) as f64 / (1u64 << 53) as f64;
                if k > 0 && roll.is_multiple_of(5) {
                    case.add_assumption(name, "a", confidence).unwrap()
                } else {
                    case.add_evidence(name, "e", confidence).unwrap()
                }
            } else {
                let id = if roll.is_multiple_of(2) {
                    let rule = if roll.is_multiple_of(4) {
                        Combination::AnyOf
                    } else {
                        Combination::AllOf
                    };
                    case.add_strategy(name, "s", rule).unwrap()
                } else {
                    case.add_goal(name, "g").unwrap()
                };
                frontier.push((id, depth + 1));
                id
            };
            case.support(parent, id).unwrap();
            // Now and then a leaf also supports the parent before this one.
            if roll.is_multiple_of(11) && next >= 2 && confidence(&case, id).is_some() {
                let other = frontier[next - 2].0;
                if !case.supporters(other).unwrap().contains(&id) {
                    case.support(other, id).unwrap();
                }
            }
        }
    }
    case
}

/// A leaf's confidence; `None` for goals, strategies and context.
fn confidence(case: &Case, id: NodeId) -> Option<f64> {
    match case.node(id).unwrap().kind {
        NodeKind::Evidence { confidence } | NodeKind::Assumption { confidence } => Some(confidence),
        _ => None,
    }
}

fn header(case: &Case, version: u64) -> Vec<(String, Value)> {
    vec![
        ("case".to_string(), s(case.title())),
        ("version".to_string(), Value::U64(version)),
        ("hash".to_string(), Value::Str(format_hash(case.content_hash()))),
    ]
}

fn ok(fields: Vec<(String, Value)>) -> String {
    format!(r#"{{"ok":true,"result":{}}}"#, serde_json::value_to_string(&Value::Object(fields)))
}

/// The `rank` answer as the engine built it from `birnbaum_importance`.
fn rank_reference(case: &Case, version: u64) -> String {
    let rows = birnbaum_importance(case)
        .unwrap()
        .into_iter()
        .map(|li| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(li.name)),
                ("confidence".to_string(), Value::F64(li.confidence)),
                ("birnbaum".to_string(), Value::F64(li.birnbaum)),
                ("gain_if_certain".to_string(), Value::F64(li.gain_if_certain)),
            ])
        })
        .collect();
    let mut fields = header(case, version);
    fields.push(("evidence".to_string(), Value::Array(rows)));
    ok(fields)
}

/// The ~95 % Wilson-score half-width every `mc` row reports, written out
/// here so the answer's formula is pinned too, not only its path.
fn wilson(p: f64, samples: u32) -> f64 {
    let (n, z) = (f64::from(samples), 1.96_f64);
    let z2 = z * z;
    z * ((p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt() / (1.0 + z2 / n)
}

/// The `mc` answer as the engine built it: one row per node with an
/// estimate, in node order.
fn mc_reference(case: &Case, version: u64, samples: u32, seed: u64) -> String {
    let report = MonteCarlo::new(samples).seed(seed).threads(1).run(case).unwrap();
    let mut estimates = Vec::new();
    for (id, node) in case.iter() {
        if let Some(estimate) = report.estimate(id) {
            estimates.push(Value::Object(vec![
                ("name".to_string(), Value::Str(node.name.clone())),
                ("estimate".to_string(), Value::F64(estimate)),
                ("half_width".to_string(), Value::F64(wilson(estimate, samples))),
            ]));
        }
    }
    let mut fields = header(case, version);
    fields.push(("samples".to_string(), Value::U64(u64::from(samples))));
    fields.push(("seed".to_string(), Value::U64(seed)));
    fields.push(("estimates".to_string(), Value::Array(estimates)));
    ok(fields)
}

/// Every engine's `rank` and `mc` answers equal the references.
fn check(engines: &[Engine], case: &Case, version: u64) {
    let rank = line(vec![("op", s("rank")), ("name", s("deep"))]);
    let want = rank_reference(case, version);
    for engine in engines {
        for _ in 0..2 {
            assert_eq!(answer(engine, &rank), want, "rank at version {version}");
        }
    }
    for (samples, seed) in [(1u32, 3u64), (4_095, 5), (4_097, 7), (13_522, 9)] {
        let want = mc_reference(case, version, samples, seed);
        for (engine, threads) in engines.iter().zip([1u64, 2]) {
            let mc = line(vec![
                ("op", s("mc")),
                ("name", s("deep")),
                ("samples", Value::U64(u64::from(samples))),
                ("seed", Value::U64(seed)),
                ("threads", Value::U64(threads)),
            ]);
            assert_eq!(answer(engine, &mc), want, "mc at version {version}, {samples} samples");
        }
    }
}

fn leaves(case: &Case) -> Vec<(NodeId, String)> {
    case.iter()
        .filter(|&(id, _)| confidence(case, id).is_some())
        .map(|(id, node)| (id, node.name.clone()))
        .collect()
}

#[test]
fn rank_and_mc_answers_print_the_library_results_byte_for_byte() {
    let mut case = deep_case();
    assert!(case.len() >= 600, "{} nodes", case.len());
    // A warm cache, and a one-entry cache that loading `other` empties.
    let engines = [Engine::new(64), Engine::new(1)];
    let load = |name: &str, case: &Case| {
        let doc = serde_json::to_string(case).unwrap();
        format!(r#"{{"op":"load","name":"{name}","case":{doc}}}"#)
    };
    let other = load("other", &depcase::assurance::templates::template(3));
    for engine in &engines {
        assert!(answer(engine, &load("deep", &case)).contains(r#""ok":true"#));
    }
    check(&engines, &case, 1);

    let mut version = 1;
    let mut edit = |case: &Case, fields: Vec<(&str, Value)>| {
        let mut request = vec![("op", s("edit")), ("name", s("deep"))];
        request.extend(fields);
        for engine in &engines {
            let answered = answer(engine, &line(request.clone()));
            assert!(answered.contains(r#""ok":true"#), "{answered}");
        }
        answer(&engines[1], &other);
        version += 1;
        check(&engines, case, version);
    };
    // Deep confidence edits, one back to where it was.
    let all = leaves(&case);
    let mut state = 0xed17_u64;
    for round in 0..6 {
        let (id, name) = &all[splitmix(&mut state) as usize % all.len()];
        let before = confidence(&case, *id).unwrap();
        let confidence =
            if round == 5 { before } else { (splitmix(&mut state) % 1000) as f64 / 999.0 };
        case.set_leaf_confidence(*id, confidence).unwrap();
        edit(
            &case,
            vec![
                ("action", s("set_confidence")),
                ("node", s(name)),
                ("confidence", Value::F64(confidence)),
            ],
        );
    }
    // A new leaf under the root, then a retarget of a deep parent's
    // first leaf onto it.
    let root = case.node_by_name("G").unwrap();
    let added = case.add_evidence("new \"leaf\"", "added", 0.625).unwrap();
    case.support(root, added).unwrap();
    edit(
        &case,
        vec![
            ("action", s("add_leaf")),
            ("parent", s("G")),
            ("node", s("new \"leaf\"")),
            ("statement", s("added")),
            ("confidence", Value::F64(0.625)),
        ],
    );
    let (parent, from) = case
        .iter()
        .filter(|&(id, _)| confidence(&case, id).is_none() && id != root)
        .find_map(|(id, _)| {
            let leaves = case.supporters(id).ok()?;
            Some((id, leaves.into_iter().find(|&c| confidence(&case, c).is_some())?))
        })
        .unwrap();
    let name = |id| case.node(id).unwrap().name.clone();
    let (parent_name, from_name) = (name(parent), name(from));
    case.retarget_support(parent, from, added).unwrap();
    edit(
        &case,
        vec![
            ("action", s("retarget")),
            ("parent", s(&parent_name)),
            ("from", s(&from_name)),
            ("to", s("new \"leaf\"")),
        ],
    );
}
