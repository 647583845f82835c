//! The version store, sharded by name. A version is kept as its WAL
//! record says: a `load` (or restored object) as its full document, an
//! `edit` as a delta — base version plus [`EditAction`] — with every
//! [`KEYFRAME_INTERVAL`]th version of a chain packed in full, and a
//! confidence-only `load` as a patch of a stored document ([`Bases`]).
//! Deltas are materialised through [`apply_action`], as live edits run
//! it, only where a whole document is needed (DESIGN.md §13).

use crate::lock_unpoisoned;
use crate::protocol::{lib_error, EditAction, ErrorCode, WireError};
use crate::snapshot::VersionRecord;
use crate::telemetry::TlsTracer;
use depcase::assurance::{Case, EditStats, Incremental, NodeId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// A chain stores one full keyframe per this many versions.
pub(crate) const KEYFRAME_INTERVAL: u32 = 16;

/// One stored case version, plus the title response headers need
/// (edits never change it). Clones share the stored form.
#[derive(Debug, Clone)]
pub(crate) struct PackedCase {
    form: Arc<Form>,
    pub(crate) title: Arc<str>,
}

#[derive(Debug)]
enum Form {
    /// The serialized document (the snapshot object form): canonical
    /// when packed here, as read when restored from the store.
    Full(Arc<str>),
    /// `base`'s document with the number at each `(start, end)` byte
    /// range replaced by the text beside it.
    Patch { base: PackedCase, numbers: Box<[(usize, usize, Box<str>)]> },
    /// `action` applied to `base`, `depth` deltas past the keyframe.
    Delta { base: PackedCase, action: EditAction, depth: u32 },
}

/// Full documents by a hash of their text outside the numbers after
/// `"confidence":` keys: the bases a confidence-only `load` is stored
/// as a patch of. One per engine, as variants land in other shards.
pub(crate) type Bases = Mutex<HashMap<u64, PackedCase>>;

/// Opens a live session over a rebuilt keyframe case.
pub(crate) type Opener<'a> = dyn FnMut(Case) -> Result<Incremental, WireError> + 'a;

impl PackedCase {
    /// Packs a live case into its canonical serialized form.
    pub(crate) fn pack(case: &Case) -> PackedCase {
        let doc = case.to_json().into();
        PackedCase { form: Arc::new(Form::Full(doc)), title: case.title().into() }
    }

    /// A stored object's text, already decoded once to check it: kept
    /// as read rather than re-encoded.
    pub(crate) fn stored(doc: Arc<str>, title: &str) -> PackedCase {
        PackedCase { form: Arc::new(Form::Full(doc)), title: title.into() }
    }

    /// Packs a loaded case as a patch of a stored full document whose
    /// text equals its canonical text byte for byte outside those
    /// numbers — labels, title, structure and statements included — or
    /// else in full, as a base for later loads.
    pub(crate) fn pack_load(case: &Case, bases: &Bases) -> PackedCase {
        let doc = case.to_json();
        let (outside, numbers) = split(&doc);
        let key = BuildHasherDefault::<DefaultHasher>::default().hash_one(&outside);
        let base = lock_unpoisoned(bases).get(&key).cloned();
        if let Some(base) = base {
            let Form::Full(text) = &*base.form else { unreachable!("bases are full") };
            let (base_outside, base_numbers) = split(text);
            if base_outside == outside {
                let numbers = base_numbers.into_iter().zip(numbers);
                let changed = numbers.filter(|(old, new)| text[old.clone()] != doc[new.clone()]);
                let numbers = changed.map(|(old, new)| (old.start, old.end, doc[new].into()));
                let (numbers, title) = (numbers.collect(), Arc::clone(&base.title));
                return PackedCase { form: Arc::new(Form::Patch { base, numbers }), title };
            }
        }
        let packed = PackedCase::stored(doc.into(), case.title());
        lock_unpoisoned(bases).entry(key).or_insert_with(|| packed.clone());
        packed
    }

    /// The version `action` made of this one, given the edited case: a
    /// delta, or a fresh keyframe when the chain is due one.
    pub(crate) fn edited(&self, action: &EditAction, edited: &Case) -> PackedCase {
        let depth = if let Form::Delta { depth, .. } = *self.form { depth + 1 } else { 1 };
        if depth == KEYFRAME_INTERVAL {
            return PackedCase::pack(edited);
        }
        let form = Arc::new(Form::Delta { base: self.clone(), action: action.clone(), depth });
        PackedCase { form, title: Arc::clone(&self.title) }
    }

    /// A keyframe's document, a patch spliced into its base's; `None`
    /// for a delta.
    fn document(&self) -> Option<Cow<'_, str>> {
        match &*self.form {
            Form::Full(doc) => Some(Cow::Borrowed(doc)),
            Form::Patch { base, numbers } => {
                let base = base.document()?;
                let mut out = String::with_capacity(base.len() + 16 * numbers.len());
                let copied = numbers.iter().fold(0, |copied, (start, end, text)| {
                    out.extend([&base[copied..*start], text]);
                    *end
                });
                out.push_str(&base[copied..]);
                Some(Cow::Owned(out))
            }
            Form::Delta { .. } => None,
        }
    }

    /// A keyframe's case, decoded from its document; `None` for a delta,
    /// which only [`PackedCase::materialize`] rebuilds.
    pub(crate) fn unpack(&self) -> Option<Result<Case, WireError>> {
        let doc = self.document()?;
        // The engine packed or verified these bytes itself: failing to
        // read them back is an internal invariant break, not bad input.
        let broken = |e| format!("packed case document failed to decode: {e}");
        Some(Case::from_json(&doc).map_err(|e| WireError::new(ErrorCode::InternalError, broken(e))))
    }

    /// Rebuilds this version as a live session: `open` compiles the
    /// chain's keyframe, then every delta's action applies, oldest first.
    pub(crate) fn materialize(&self, open: &mut Opener<'_>) -> Result<Incremental, WireError> {
        let Form::Delta { base, action, .. } = &*self.form else {
            return open(self.unpack().expect("a keyframe has a document")?);
        };
        let mut session = base.materialize(open)?;
        apply_action(&mut session, action)?;
        Ok(session)
    }
}

/// Hands each version's serialized document to `write`, carrying the
/// case forward: a delta on the version just before it (history order)
/// applies one action to that session instead of replaying its chain.
pub(crate) fn write_documents(
    versions: Vec<(u64, PackedCase)>,
    mut write: impl FnMut(u64, &str) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut carried: Option<(PackedCase, Incremental)> = None;
    for (hash, version) in versions {
        if let Some(doc) = version.document() {
            write(hash, &doc)?;
            carried = None;
            continue;
        }
        let session = match (&*version.form, carried.take()) {
            (Form::Delta { base, action, .. }, Some((last, mut session)))
                if Arc::ptr_eq(&base.form, &last.form) =>
            {
                apply_action(&mut session, action).map(|_| session)
            }
            _ => version.materialize(&mut open_plain),
        }
        .map_err(|e| std::io::Error::other(e.message))?;
        write(hash, &session.case().to_json())?;
        carried = Some((version, session));
    }
    Ok(())
}

/// `doc`'s text outside the numbers after `"confidence":` keys, and
/// those numbers' byte ranges. Keys are the only place the pattern
/// occurs: inside a string its quotes would be escaped.
fn split(doc: &str) -> (Vec<&str>, Vec<Range<usize>>) {
    const KEY: &str = "\"confidence\":";
    let (mut outside, mut numbers, mut at) = (Vec::new(), Vec::new(), 0);
    // A one-byte search for the key's `f`, rare in a case document, is
    // faster than a substring search.
    let keys = doc.match_indices('f').filter_map(|(f, _)| f.checked_sub("\"con".len()));
    for found in keys.filter(|&k| doc.as_bytes()[k..].starts_with(KEY.as_bytes())) {
        let start = found + KEY.len();
        outside.push(&doc[at..start]);
        at = start + doc[start..].find([',', '}']).unwrap_or(doc.len() - start);
        numbers.push(start..at);
    }
    outside.push(&doc[at..]);
    (outside, numbers)
}

/// A session with a private memo, for rebuilds that only need the case.
pub(crate) fn open_plain(case: Case) -> Result<Incremental, WireError> {
    Incremental::new(case).map_err(lib_error)
}

/// Applies one wire edit action to an incremental session: the live
/// `edit` path, WAL replay and delta materialisation all run it, so a
/// stored edit re-executes exactly the code that produced the acked
/// response. A rejected action leaves the session untouched.
pub(crate) fn apply_action(
    session: &mut Incremental,
    action: &EditAction,
) -> Result<EditStats, WireError> {
    match action {
        EditAction::SetConfidence { node, confidence } => {
            let id = resolve(session.case(), node)?;
            session.set_confidence_traced(id, *confidence, &TlsTracer).map_err(lib_error)
        }
        EditAction::AddLeaf { parent, node, statement, kind, confidence } => {
            let p = resolve(session.case(), parent)?;
            session
                .add_leaf_traced(
                    p,
                    node.clone(),
                    statement.clone().unwrap_or_default(),
                    kind.to_lib(),
                    *confidence,
                    &TlsTracer,
                )
                .map(|(_, delta)| delta)
                .map_err(lib_error)
        }
        EditAction::Retarget { parent, from, to } => {
            let p = resolve(session.case(), parent)?;
            let f = resolve(session.case(), from)?;
            let t = resolve(session.case(), to)?;
            session.retarget_traced(p, f, t, &TlsTracer).map_err(lib_error)
        }
    }
}

/// Resolves a wire node name against a case, answering the library's
/// `case` error code for unknown names.
fn resolve(case: &Case, name: &str) -> Result<NodeId, WireError> {
    case.node_by_name(name).ok_or_else(|| {
        WireError::new(ErrorCode::Case, format!("no node named `{name}` in the case"))
    })
}

/// A registered case at one version: the stored form plus registry
/// metadata.
#[derive(Debug, Clone)]
pub(crate) struct CaseEntry {
    pub(crate) case: PackedCase,
    /// 1-based, bumped by every `load`/`edit` under this name.
    pub(crate) version: u64,
    /// Content hash of this version (plan-cache and object-store key).
    pub(crate) hash: u64,
}

/// A registry name: its current version plus the full version history.
#[derive(Debug)]
pub(crate) struct NamedCase {
    pub(crate) current: CaseEntry,
    /// Every version ever recorded, oldest first (the last record
    /// mirrors `current`).
    pub(crate) history: Vec<VersionRecord>,
}

/// One registry shard.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    pub(crate) cases: HashMap<String, NamedCase>,
    /// Every case version ever committed, keyed by content hash —
    /// identical content is stored once no matter how many names or
    /// versions reference it.
    pub(crate) objects: HashMap<u64, PackedCase>,
}

impl Registry {
    /// Commits one mutation: stores the version, replaces the name's
    /// current entry, and appends to its history.
    pub(crate) fn commit(&mut self, name: &str, case: PackedCase, record: VersionRecord) {
        self.objects.entry(record.hash).or_insert_with(|| case.clone());
        let entry = CaseEntry { case, version: record.version, hash: record.hash };
        match self.cases.get_mut(name) {
            Some(named) => {
                named.current = entry;
                named.history.push(record);
            }
            None => {
                self.cases
                    .insert(name.to_string(), NamedCase { current: entry, history: vec![record] });
            }
        }
    }
}

/// FNV-1a over a case name: the shard router. Deliberately *not*
/// persisted — recovery re-routes every name by hashing it again, so
/// the shard map is a pure function of the name and the shard count,
/// and restarting with a different `--shards` is always safe.
pub(crate) fn shard_of(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    usize::try_from(h % shards as u64).expect("shard index fits usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::protocol::{EvalAt, Request, WireLeafKind};
    use depcase::assurance::{templates, NodeKind};
    use serde::Value;
    use std::collections::HashSet;

    /// The `i`th edit of a deterministic mix of all three actions, each
    /// valid against `mirror` — which it is applied to as well, through
    /// the library's own `Case` calls rather than [`apply_action`].
    fn next_edit(i: usize, mirror: &mut Case) -> EditAction {
        let named = |case: &Case, id| case.node(id).unwrap().name.clone();
        match i % 3 {
            0 => {
                let leaves: Vec<NodeId> = mirror
                    .iter()
                    .filter(|(_, n)| matches!(n.kind, NodeKind::Evidence { .. }))
                    .map(|(id, _)| id)
                    .collect();
                let leaf = leaves[i % leaves.len()];
                let confidence = 0.5 + (i % 40) as f64 / 100.0 + 1e-3;
                mirror.set_leaf_confidence(leaf, confidence).unwrap();
                EditAction::SetConfidence { node: named(mirror, leaf), confidence }
            }
            1 => {
                let node = format!("X{i}");
                let g = mirror.node_by_name("G").unwrap();
                let leaf = mirror.add_evidence(node.as_str(), "", 0.8).unwrap();
                mirror.support(g, leaf).unwrap();
                let (parent, statement) = ("G".into(), None);
                let kind = WireLeafKind::Evidence;
                EditAction::AddLeaf { parent, node, statement, kind, confidence: 0.8 }
            }
            _ => {
                // Point S0's first supporter at the leaf just added
                // under G, which then has two parents.
                let s0 = mirror.node_by_name("S0").unwrap();
                let from = mirror.supporters(s0).unwrap()[0];
                let to = mirror.node_by_name(&format!("X{}", i - 1)).unwrap();
                mirror.retarget_support(s0, from, to).unwrap();
                let (from, to) = (named(mirror, from), named(mirror, to));
                EditAction::Retarget { parent: "S0".into(), from, to }
            }
        }
    }

    /// Commits `edits` mixed edits on template 0 to a fresh registry the
    /// way the engine does, returning it with the mirror case of every
    /// version, oldest first.
    fn chain(edits: usize) -> (Registry, Vec<Case>) {
        let mut mirror = templates::template(0);
        let mut registry = Registry::default();
        let mut session = Incremental::new(mirror.clone()).unwrap();
        let mut packed = PackedCase::pack(session.case());
        let mut mirrors = vec![mirror.clone()];
        let mut record = VersionRecord { version: 1, hash: session.case_hash(), ts_ms: 0 };
        registry.commit("t", packed.clone(), record);
        for i in 0..edits {
            let action = next_edit(i, &mut mirror);
            apply_action(&mut session, &action).unwrap();
            packed = packed.edited(&action, session.case());
            record = VersionRecord { version: i as u64 + 2, hash: session.case_hash(), ts_ms: 0 };
            registry.commit("t", packed.clone(), record);
            mirrors.push(mirror.clone());
        }
        (registry, mirrors)
    }

    fn documents(versions: Vec<(u64, PackedCase)>) -> Vec<String> {
        let mut out = Vec::new();
        write_documents(versions, |_, doc| {
            out.push(doc.to_string());
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn every_version_of_a_mixed_chain_materialises_to_the_text_head_packed() {
        let (registry, mirrors) = chain(40);
        let history = &registry.cases["t"].history;
        let fulls = history
            .iter()
            .filter(|r| matches!(*registry.objects[&r.hash].form, Form::Full(_)))
            .count();
        assert_eq!(fulls, 3, "the load plus keyframes at edits 16 and 32");
        let versions: Vec<_> =
            history.iter().map(|r| (r.hash, registry.objects[&r.hash].clone())).collect();
        let want: Vec<String> = mirrors.iter().map(|m| serde_json::to_string(m).unwrap()).collect();
        // Carried forward in history order, and each version alone.
        assert_eq!(documents(versions.clone()), want);
        for (version, want) in versions.into_iter().zip(&want) {
            assert_eq!(&documents(vec![version])[0], want);
        }
    }

    #[test]
    fn eval_at_every_version_of_a_mixed_chain_matches_propagating_the_mirror() {
        // A one-entry plan cache, so each historical read rebuilds its
        // version from the chain.
        let engine = Engine::new(1);
        let (_, mirrors) = chain(40);
        let load =
            Request::Load { name: "t".into(), case: serde::Serialize::to_value(&mirrors[0]) };
        engine.handle(&load).unwrap();
        let mut mirror = mirrors[0].clone();
        for i in 0..40 {
            let action = next_edit(i, &mut mirror);
            engine.handle(&Request::Edit { name: "t".into(), action }).unwrap();
        }
        for (v, mirror) in mirrors.iter().enumerate() {
            let at = Some(EvalAt::Version(v as u64 + 1));
            let eval = engine.handle(&Request::Eval { name: "t".into(), at }).unwrap();
            let report = mirror.propagate().unwrap();
            // `nodes` is spliced in as rendered text: read it back as the
            // wire would.
            let nodes = serde_json::value_to_string(eval.get("nodes").unwrap());
            let wire: Vec<u64> = serde_json::value_from_str(&nodes)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|n| n.get("confidence").and_then(Value::as_f64).unwrap().to_bits())
                .collect();
            let direct: Vec<u64> = mirror
                .iter()
                .filter_map(|(id, _)| report.confidence(id))
                .map(|c| c.independent.to_bits())
                .collect();
            assert_eq!(wire, direct, "version {}", v + 1);
            let root = eval.get("root_confidence").and_then(Value::as_f64).unwrap();
            assert_eq!(root.to_bits(), report.top().unwrap().independent.to_bits());
        }
    }

    #[test]
    fn an_edit_storm_stores_one_full_document_per_keyframe_interval() {
        let mut session = Incremental::new(templates::template(3)).unwrap();
        let leaf = session.case().node_by_name("E0_0").unwrap();
        let mut registry = Registry::default();
        let mut packed = PackedCase::pack(session.case());
        registry.commit("t", packed.clone(), VersionRecord { version: 1, hash: 1, ts_ms: 0 });
        let mut hashes = HashSet::new();
        for i in 0..1000u32 {
            let confidence = 0.5 + f64::from(i) * 1e-4;
            let action = EditAction::SetConfidence { node: "E0_0".into(), confidence };
            session.set_confidence(leaf, confidence).unwrap();
            packed = packed.edited(&action, session.case());
            let hash = session.case_hash();
            assert!(hashes.insert(hash), "every storm version is distinct content");
            let record = VersionRecord { version: u64::from(i) + 2, hash, ts_ms: 0 };
            registry.commit("t", packed.clone(), record);
        }
        let fulls = registry.objects.values().filter(|v| matches!(*v.form, Form::Full(_))).count();
        assert_eq!(registry.objects.len(), 1001);
        assert!(fulls <= 1000 / 16 + 1, "{fulls} full documents for 1000 edits");
    }

    /// Every leaf's confidence bits, by name.
    fn confidence_bits(case: &Case) -> Vec<(String, u64)> {
        let leaf = |kind: &NodeKind| match *kind {
            NodeKind::Evidence { confidence } | NodeKind::Assumption { confidence } => {
                Some(confidence.to_bits())
            }
            _ => None,
        };
        case.iter().filter_map(|(_, n)| Some((n.name.clone(), leaf(&n.kind)?))).collect()
    }

    #[test]
    fn a_confidence_only_load_is_a_patch_that_unpacks_and_writes_the_full_bytes() {
        for id in 0..templates::TEMPLATE_COUNT {
            let bases = Bases::default();
            let base = PackedCase::pack_load(&templates::template(id), &bases);
            assert!(matches!(*base.form, Form::Full(_)), "template {id}");
            for v in 0..16 {
                let variant = templates::stamp(id, v);
                let packed = PackedCase::pack_load(&variant, &bases);
                let Form::Patch { numbers, .. } = &*packed.form else {
                    panic!("template {id} variant {v} was not stored as a patch")
                };
                assert!(numbers.len() <= 3, "only re-elicited numbers are kept");
                // The bytes the full form wrote, and the same case back.
                assert_eq!(documents(vec![(0, packed.clone())]), [variant.to_json()]);
                let unpacked = packed.unpack().unwrap().unwrap();
                assert_eq!(confidence_bits(&unpacked), confidence_bits(&variant));
                assert_eq!(unpacked.content_hash(), variant.content_hash());
                assert_eq!(&*packed.title, variant.title());
            }
        }
    }

    #[test]
    fn a_load_that_differs_outside_confidence_numbers_is_stored_full() {
        let template = templates::template(3);
        let text = template.to_json();
        let mut retargeted = template.clone();
        let (s0, s1) =
            (retargeted.node_by_name("S0").unwrap(), retargeted.node_by_name("S1").unwrap());
        let (from, to) =
            (retargeted.supporters(s0).unwrap()[0], retargeted.supporters(s1).unwrap()[0]);
        retargeted.retarget_support(s0, from, to).unwrap();
        // The root's children, `[1,…]`, in another order: numbers, but
        // not confidences.
        let at = text.find("\"children\":[[").unwrap() + "\"children\":[".len();
        let root_children = &text[at..=at + text[at..].find(']').unwrap()];
        let mut swapped: Vec<&str> = root_children[1..root_children.len() - 1].split(',').collect();
        swapped.swap(0, 1);
        let edits = [
            ("\"title\":\"template-3\"", "\"title\":\"template-4\"".to_string()),
            ("\"name\":\"E0_1\"", "\"name\":\"E0_9\"".to_string()),
            ("\"statement\":\"sub-claim\"", "\"statement\":\"sub-claims\"".to_string()),
            ("{\"Evidence\":{\"confidence\"", "{\"Assumption\":{\"confidence\"".to_string()),
            ("\"AnyOf\"", "\"AllOf\"".to_string()),
            (root_children, format!("[{}]", swapped.join(","))),
        ];
        let mut others: Vec<Case> = edits
            .iter()
            .map(|(from, to)| {
                assert!(text.contains(from), "{from} is not in the template's text");
                Case::from_json(&text.replacen(from, to, 1)).unwrap()
            })
            .collect();
        others.push(retargeted);
        for other in others {
            let bases = Bases::default();
            PackedCase::pack_load(&template, &bases);
            let packed = PackedCase::pack_load(&other, &bases);
            assert!(matches!(*packed.form, Form::Full(_)), "{}", other.to_json());
            assert_eq!(documents(vec![(0, packed)]), [other.to_json()]);
            // A hash collision: the index offers the template under this
            // load's own key, and the text comparison still refuses it.
            let bases = Bases::default();
            PackedCase::pack_load(&other, &bases);
            lock_unpoisoned(&bases).values_mut().for_each(|v| *v = PackedCase::pack(&template));
            let packed = PackedCase::pack_load(&other, &bases);
            assert!(matches!(*packed.form, Form::Full(_)), "{}", other.to_json());
        }
        // The key pattern inside an escaped string is text, not a number.
        let quoted = |n: &str| {
            let to = format!("\"statement\":\"environment\\\"confidence\\\":{n}\"");
            Case::from_json(&text.replacen("\"statement\":\"environment\"", &to, 1)).unwrap()
        };
        let bases = Bases::default();
        PackedCase::pack_load(&quoted("0.5"), &bases);
        assert!(matches!(*PackedCase::pack_load(&quoted("0.6"), &bases).form, Form::Full(_)));
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 8, 31] {
            for name in ["demo", "tenant-0/case", "", "a", "zzzz"] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "routing must be deterministic");
            }
        }
        // FNV actually spreads names: 64 names over 8 shards must not
        // all collapse into one.
        let hit: HashSet<usize> = (0..64).map(|i| shard_of(&format!("case-{i}"), 8)).collect();
        assert!(hit.len() > 1);
    }
}
