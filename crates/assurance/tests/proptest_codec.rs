//! Differential test for the packed-case codec.
//!
//! `Case::to_json` must print the bytes `serde_json::to_string` prints,
//! and `Case::from_json` must accept exactly the texts the `Value` path
//! (`value_from_str`, then `Case::from_value`) accepts, building the
//! same case with every confidence `to_bits`-equal. Inputs:
//!
//! - random cases of every node kind, the empty case included, with
//!   shared supporters, labels that need escapes or are non-ASCII, and
//!   confidences of −0.0, subnormals and 17-significant-digit values;
//! - their documents mutated: integer and out-of-range numbers, `null`,
//!   reordered, unknown and duplicate keys, the legacy `by_name` form,
//!   other schema stamps, duplicate names, bad child indices;
//! - every strict prefix of a document, which both must reject.

use depcase_assurance::{Case, Combination, NodeId, NodeKind};
use proptest::prelude::*;
use serde::{Deserialize, Value};

/// SplitMix64: a case is a pure function of its seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (next(state) % n as u64) as usize
}

fn pick<'a, T>(state: &mut u64, items: &'a [T]) -> &'a T {
    &items[below(state, items.len())]
}

/// Label fragments: escapes the writer must spell, bytes it must not,
/// and multi-byte characters.
const LABELS: &[&str] = &[
    "",
    "G",
    "plain claim",
    "quote \" and backslash \\",
    "line\nbreak\r\ttab",
    "\u{8}\u{c}\u{1}\u{1f}\u{7f}",
    "slash / stays",
    "é ü ß",
    "😀 \u{10FFFF}",
    "\u{2028}\u{2029}",
];

/// Confidences whose text is easy to get wrong.
fn confidence(state: &mut u64) -> f64 {
    let pool = [
        -0.0,
        0.0,
        1.0,
        f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE,
        0.1,
        0.300_000_000_000_000_04,
        0.123_456_789_012_345_68,
        0.999_1,
        1.0 - f64::EPSILON,
    ];
    match below(state, pool.len() + 2) {
        i if i < pool.len() => pool[i],
        // A uniform draw: almost always 16–17 significant digits.
        _ => (next(state) >> 11) as f64 / (1u64 << 53) as f64,
    }
}

/// A random case of `size` nodes of every kind. Edges only point from
/// a lower index to a higher one, so the graph is acyclic; a node may
/// gain several parents. Edges the library refuses (support of a leaf,
/// support by a context node) are simply skipped.
fn random_case(seed: u64, size: usize) -> Case {
    let mut rng = seed;
    let title = format!("{}{}", pick(&mut rng, LABELS), pick(&mut rng, LABELS));
    let mut case = Case::new(title);
    let mut ids: Vec<NodeId> = Vec::with_capacity(size);
    for i in 0..size {
        let name = format!("{}{i}", pick(&mut rng, LABELS));
        let statement = pick(&mut rng, LABELS).repeat(below(&mut rng, 3));
        let id = match below(&mut rng, 6) {
            0 => case.add_goal(name, statement),
            1 => case.add_strategy(name, statement, Combination::AllOf),
            2 => case.add_strategy(name, statement, Combination::AnyOf),
            3 => case.add_evidence(name, statement, confidence(&mut rng)),
            4 => case.add_assumption(name, statement, confidence(&mut rng)),
            _ => case.add_context(name, statement),
        };
        ids.push(id.unwrap());
    }
    for p in 0..size {
        for _ in 0..below(&mut rng, 4) {
            if p + 1 < size {
                let c = p + 1 + below(&mut rng, size - p - 1);
                let _ = case.support(ids[p], ids[c]);
            }
        }
    }
    case
}

/// Decodes `text` both ways. Both must accept or both reject; an
/// accepted case must agree in structure, labels and confidence bits.
fn decode_both(text: &str) -> Option<Case> {
    let value_path = serde_json::value_from_str(text)
        .map_err(|e| e.to_string())
        .and_then(|v| Case::from_value(&v).map_err(|e| e.to_string()));
    match (value_path, Case::from_json(text)) {
        (Ok(want), Ok(got)) => {
            assert_eq!(want, got, "{text}");
            let bits = |case: &Case| -> Vec<u64> {
                case.iter()
                    .filter_map(|(_, n)| match n.kind {
                        NodeKind::Evidence { confidence } | NodeKind::Assumption { confidence } => {
                            Some(confidence.to_bits())
                        }
                        _ => None,
                    })
                    .collect()
            };
            assert_eq!(bits(&want), bits(&got), "{text}");
            assert_eq!(want.to_json(), got.to_json(), "{text}");
            Some(got)
        }
        (Err(_), Err(_)) => None,
        (want, got) => panic!("decoders disagree on {text:?}: value path {want:?}, codec {got:?}"),
    }
}

/// The `n`th `"confidence":<number>` in `doc` respelled as `token`.
fn respell_confidence(doc: &str, n: usize, token: &str) -> Option<String> {
    let key = "\"confidence\":";
    let start = doc.match_indices(key).nth(n)?.0 + key.len();
    let len = doc[start..].find(['}', ',']).unwrap_or(doc.len() - start);
    Some(format!("{}{token}{}", &doc[..start], &doc[start + len..]))
}

/// Applies `edit` to every object in `v`, outermost first.
fn each_object(v: &mut Value, edit: &mut impl FnMut(&mut Vec<(String, Value)>)) {
    match v {
        Value::Object(entries) => {
            edit(entries);
            for (_, x) in entries.iter_mut() {
                each_object(x, edit);
            }
        }
        Value::Array(items) => items.iter_mut().for_each(|x| each_object(x, edit)),
        _ => {}
    }
}

/// Re-prints `doc` after `edit` ran on every object of its tree.
fn reshaped(doc: &str, mut edit: impl FnMut(&mut Vec<(String, Value)>)) -> String {
    let mut v = serde_json::value_from_str(doc).unwrap();
    each_object(&mut v, &mut edit);
    serde_json::value_to_string(&v)
}

/// The document with its top-level field `key` replaced by `value`.
fn with_field(doc: &str, key: &str, value: Value) -> String {
    let mut v = serde_json::value_from_str(doc).unwrap();
    let Value::Object(entries) = &mut v else { unreachable!() };
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = value,
        None => entries.insert(0, (key.to_string(), value)),
    }
    serde_json::value_to_string(&v)
}

/// Mutations of one case's document, each a plausible way a stored
/// document could differ from the canonical text.
fn mutations(case: &Case, rng: &mut u64) -> Vec<String> {
    let doc = serde_json::to_string(case).unwrap();
    let leaves = doc.matches("\"confidence\":").count();
    let mut out = Vec::new();
    // Numbers: integer spellings, under- and overflow, null, non-numbers.
    for token in
        ["1", "0", "-0", "1e-400", "1e400", "-1e400", "null", "0.5e0", "2", "\"0.5\"", "[]"]
    {
        if leaves > 0 {
            out.extend(respell_confidence(&doc, below(rng, leaves), token));
        }
    }
    // Keys in another order, everywhere; whitespace between tokens.
    out.push(reshaped(&doc, |e| e.reverse()));
    out.push(reshaped(&doc, |e| {
        if !e.is_empty() {
            e.rotate_left(1);
        }
    }));
    out.push(doc.replace(',', " ,\n\t").replace(':', " : "));
    // Unknown keys at every level.
    out.push(reshaped(&doc, |e| e.push(("extra".into(), Value::Array(vec![Value::Null])))));
    // Duplicate keys: the first one wins and later ones are only
    // parsed, except in a data variant, which holds exactly one entry.
    out.push(reshaped(&doc, |e| {
        if e.len() > 1 {
            let copies: Vec<_> = e.iter().map(|(k, _)| (k.clone(), Value::Bool(true))).collect();
            e.extend(copies);
        }
    }));
    out.push(reshaped(&doc, |e| {
        if e.first().is_some_and(|(k, _)| k == "schema") {
            e.insert(1, ("title".into(), Value::Str("first wins".into())));
        }
    }));
    out.push(reshaped(&doc, |e| {
        if let Some(first) = e.first().cloned() {
            e.push(first);
        }
    }));
    out.push(reshaped(&doc, |e| {
        if e.first().is_some_and(|(k, _)| k == "confidence") {
            e.push(("confidence".into(), Value::F64(0.25)));
        }
    }));
    // Whitespace, and anything else, after the document.
    for tail in [" ", "\n\t", " x", "}", "{}", ",", "0"] {
        out.push(format!("{doc}{tail}"));
    }
    // The legacy form: no schema stamp, the name index stored.
    let by_name: Vec<(String, Value)> =
        case.iter().enumerate().map(|(i, (_, n))| (n.name.clone(), Value::U64(i as u64))).collect();
    out.push(reshaped(&doc, |e| {
        if e.first().is_some_and(|(k, _)| k == "schema") {
            e.remove(0);
            e.push(("by_name".into(), Value::Object(by_name.clone())));
        }
    }));
    // Schema stamps, good and bad.
    for schema in [
        Value::U64(0),
        Value::U64(2),
        Value::F64(1.0),
        Value::I64(-1),
        Value::Str("1".into()),
        Value::Null,
    ] {
        out.push(with_field(&doc, "schema", schema));
    }
    // Wrong types for whole fields, and missing ones.
    out.push(with_field(&doc, "title", Value::U64(7)));
    out.push(with_field(&doc, "nodes", Value::Object(Vec::new())));
    out.push(with_field(&doc, "children", Value::Array(Vec::new())));
    for key in ["title", "nodes", "children"] {
        out.push(reshaped(&doc, |e| e.retain(|(k, _)| k != key)));
    }
    if case.len() >= 2 {
        // A duplicate name, and child indices out of range or oddly spelled.
        let names: Vec<String> = case.iter().map(|(_, n)| n.name.clone()).collect();
        let (a, b) = (below(rng, names.len()), below(rng, names.len()));
        let twin = serde_json::to_string(&names[a]).unwrap();
        out.push(doc.replacen(
            &format!("\"name\":{}", serde_json::to_string(&names[b]).unwrap()),
            &format!("\"name\":{twin}"),
            1,
        ));
        let n = case.len();
        for index in [n.to_string(), (n + 5).to_string(), "-1".into(), "1.0".into(), "0.5".into()] {
            let row = format!("[{index}]");
            out.push(with_field(
                &doc,
                "children",
                value_of(&format!("[{}]", vec![row; n].join(","))),
            ));
        }
    }
    out
}

fn value_of(text: &str) -> Value {
    serde_json::value_from_str(text).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encoding prints `to_string`'s bytes, and decoding them gives
    /// back the case through both decoders.
    #[test]
    fn generated_cases_encode_and_decode_like_the_value_path(seed in any::<u64>(), size in 0usize..24) {
        let case = random_case(seed, if seed.is_multiple_of(8) { 0 } else { size });
        let text = case.to_json();
        prop_assert_eq!(&text, &serde_json::to_string(&case).unwrap());
        let back = decode_both(&text).expect("a packed document decodes");
        prop_assert_eq!(back.to_json(), text);
        prop_assert_eq!(back.content_hash(), case.content_hash());
    }

    /// Every mutation is accepted by both decoders into the same case,
    /// or rejected by both.
    #[test]
    fn mutated_documents_decode_like_the_value_path(seed in any::<u64>(), size in 0usize..12) {
        let case = random_case(seed, size);
        let mut rng = seed ^ 0x5eed;
        for text in mutations(&case, &mut rng) {
            decode_both(&text);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A strict prefix of a document is never a document.
    #[test]
    fn every_strict_prefix_is_rejected_by_both_decoders(seed in any::<u64>(), size in 0usize..8) {
        let text = random_case(seed, size).to_json();
        for (end, _) in text.char_indices() {
            prop_assert!(decode_both(&text[..end]).is_none(), "prefix {:?} decoded", &text[..end]);
        }
    }
}

#[test]
fn number_spellings_read_as_the_json_reader_reads_them() {
    let doc = |c: &str| {
        format!(
            r#"{{"schema":1,"title":"t","nodes":[{{"name":"G","statement":"","kind":"Goal"}},{{"name":"E","statement":"","kind":{{"Evidence":{{"confidence":{c}}}}}}}],"children":[[1],[]]}}"#
        )
    };
    let leaf = |case: &Case| match case.node(case.node_by_name("E").unwrap()).unwrap().kind {
        NodeKind::Evidence { confidence } => confidence.to_bits(),
        _ => unreachable!(),
    };
    // `-0` is the integer zero; `-0.0` keeps its sign.
    for (text, want) in [("1", 1.0f64), ("0", 0.0), ("-0", 0.0), ("-0.0", -0.0), ("1e-400", 0.0)] {
        let case = decode_both(&doc(text)).unwrap_or_else(|| panic!("{text} rejected"));
        assert_eq!(leaf(&case), want.to_bits(), "{text}");
    }
    for text in ["1e400", "null", "1.5", "-1", "true", "\"0.5\""] {
        assert!(decode_both(&doc(text)).is_none(), "{text} accepted");
    }
}

#[test]
fn the_legacy_form_and_the_empty_case_decode() {
    let legacy = r#"{"title":"t","nodes":[{"name":"G1","statement":"top claim","kind":"Goal"},{"name":"E1","statement":"testing","kind":{"Evidence":{"confidence":0.9}}}],"children":[[1],[]],"by_name":{"E1":1,"G1":0}}"#;
    let case = decode_both(legacy).unwrap();
    assert_eq!(case.to_json(), serde_json::to_string(&case).unwrap());
    assert!(case.to_json().starts_with(r#"{"schema":1,"title":"t","#));
    let empty = Case::new("");
    assert_eq!(empty.to_json(), r#"{"schema":1,"title":"","nodes":[],"children":[]}"#);
    assert_eq!(decode_both(&empty.to_json()), Some(empty));
    // A cyclic document loads (only evaluation refuses it).
    let cyclic = r#"{"schema":1,"title":"t","nodes":[{"name":"G1","statement":"a","kind":"Goal"},{"name":"G2","statement":"b","kind":"Goal"}],"children":[[1],[0]]}"#;
    assert!(decode_both(cyclic).is_some());
}

#[test]
fn every_template_round_trips_through_the_codec() {
    use depcase_assurance::templates::{stamp, template, TEMPLATE_COUNT};
    for id in 0..TEMPLATE_COUNT {
        for case in [template(id), stamp(id, 7)] {
            let text = case.to_json();
            assert_eq!(text, serde_json::to_string(&case).unwrap());
            assert_eq!(decode_both(&text), Some(case));
        }
    }
}
