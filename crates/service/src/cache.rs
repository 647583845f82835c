//! LRU cache of compiled evaluation artefacts, keyed by case content.
//!
//! Compiling a [`Case`](depcase::assurance::Case) into an
//! [`EvalPlan`](depcase::assurance::EvalPlan) and propagating the
//! analytic confidences both walk the whole graph; a long-running
//! service answering repeated `eval`/`mc`/`rank`/`bands` requests
//! against the same handful of cases should pay that walk once. The key
//! is [`Case::content_hash`](depcase::assurance::Case::content_hash) —
//! a hash of exactly the evaluation-relevant state — so a reloaded but
//! unchanged case still hits, while any edit to structure or confidence
//! misses and recompiles.
//!
//! Each entry is a live [`Incremental`] session: its report serves
//! `eval` and `bands`, its plan serves `mc`, and its subtree-hash memo
//! makes the `edit` op O(depth). An edit [takes](PlanCache::take) the
//! session out, applies the mutation, and inserts the result under the
//! new content hash.
//!
//! Internals: a hash map from content hash to entry, with recency
//! tracked by an intrusive doubly-linked list threaded *through* the
//! map — each entry stores the hashes of its recency neighbours, so
//! every operation (hit, insert, evict) is O(1) map work with no
//! per-operation allocation and no linear scans. The earlier `Vec`
//! implementation paid an O(n) scan per lookup and an O(n) shift per
//! eviction (`Vec::remove(0)`), which turned churn-heavy workloads
//! quadratic once capacities grew past a handful of cases.

use crate::protocol::{EditAction, WireError};
use crate::registry::apply_action;
use depcase::assurance::{Case, ConfidenceReport, EditStats, Incremental, NodeKind};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Counter snapshot for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a compiled entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
}

/// One cached case version: its session, which it derefs to, and the
/// `nodes` text of its `eval` answer, only ever rendered from it.
#[derive(Debug, Clone)]
pub struct Cached {
    session: Incremental,
    nodes: OnceLock<Nodes>,
}

/// An `eval` answer's `nodes` text, and the byte offset where each
/// node's entry ends in it (a context node's entry is empty).
#[derive(Debug, Clone)]
pub(crate) struct Nodes {
    pub(crate) text: Arc<str>,
    ends: Vec<usize>,
}

impl Cached {
    /// The `nodes` text, rendered from the session on the first call and
    /// shared by every later one.
    pub fn nodes(&self) -> Arc<str> {
        let nodes = self.nodes.get_or_init(|| render(self.case(), self.as_report(), None));
        Arc::clone(&nodes.text)
    }

    /// Applies one edit action to the session (see [`apply_action`]). A
    /// confidence edit keeps a rendered `nodes` text, rendering only its
    /// dirty spine's entries again; a structural edit drops it; a
    /// rejected action changes nothing.
    pub(crate) fn edit(&mut self, action: &EditAction) -> Result<EditStats, WireError> {
        let stats = apply_action(&mut self.session, action)?;
        if let (Some(prior), EditAction::SetConfidence { .. }) = (self.nodes.take(), action) {
            let mut dirty = self.session.spine().to_vec();
            dirty.sort_unstable();
            let session = &self.session;
            let nodes = render(session.case(), session.as_report(), Some((&prior, &dirty)));
            self.nodes = OnceLock::from(nodes);
        }
        Ok(stats)
    }
}

/// An `eval` answer's `nodes` array, written straight to text with the
/// JSON writer's own printers, so the bytes are those of a `Value` tree.
/// With a `prior` text and the sorted nodes whose values changed since,
/// every other entry is copied from it instead.
pub(crate) fn render(
    case: &Case,
    report: &ConfidenceReport,
    prior: Option<(&Nodes, &[u32])>,
) -> Nodes {
    let capacity = prior.map_or(96 * case.len(), |(old, _)| old.text.len() + 64);
    let (mut out, mut ends) = (String::with_capacity(capacity + 2), Vec::with_capacity(case.len()));
    out.push('[');
    let (mut copied, mut dirty) = (1, prior.map_or(&[][..], |(_, dirty)| dirty).iter().peekable());
    for (i, (id, node)) in case.iter().enumerate() {
        if let Some((old, _)) = prior {
            if dirty.next_if(|&&d| d as usize == i).is_none() {
                ends.push(old.ends[i] + out.len() - copied);
                continue;
            }
            out.push_str(&old.text[copied..i.checked_sub(1).map_or(1, |p| old.ends[p])]);
            copied = old.ends[i];
        }
        if let Some(c) = report.confidence(id) {
            out.push_str(if out.len() == 1 { "{\"name\":" } else { ",{\"name\":" });
            serde_json::push_string(&mut out, &node.name);
            out.push_str(",\"kind\":\"");
            out.push_str(kind_name(&node.kind));
            out.push_str("\",\"confidence\":");
            serde_json::push_f64(&mut out, c.independent);
            out.push_str(",\"worst_case\":");
            serde_json::push_f64(&mut out, c.worst_case);
            out.push_str(",\"best_case\":");
            serde_json::push_f64(&mut out, c.best_case);
            out.push('}');
        }
        ends.push(out.len());
    }
    if let Some((old, _)) = prior {
        out.push_str(&old.text[copied..old.text.len() - 1]);
    }
    out.push(']');
    Nodes { text: out.into(), ends }
}

fn kind_name(kind: &NodeKind) -> &'static str {
    match kind {
        NodeKind::Goal => "goal",
        NodeKind::Strategy(_) => "strategy",
        NodeKind::Evidence { .. } => "evidence",
        NodeKind::Assumption { .. } => "assumption",
        NodeKind::Context => "context",
    }
}

impl From<Incremental> for Cached {
    fn from(session: Incremental) -> Self {
        Cached { session, nodes: OnceLock::new() }
    }
}

impl std::ops::Deref for Cached {
    type Target = Incremental;
    fn deref(&self) -> &Incremental {
        &self.session
    }
}

/// One cached entry plus its links in the recency list. `prev` points
/// toward the least-recently-used end, `next` toward the most recent;
/// `None` marks the ends.
#[derive(Debug)]
struct Node {
    compiled: Arc<Cached>,
    prev: Option<u64>,
    next: Option<u64>,
}

/// A least-recently-used map from content hash to [`Cached`] session, with
/// O(1) lookup, insertion, and eviction.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<u64, Node>,
    /// Least recently used entry (the eviction candidate).
    lru: Option<u64>,
    /// Most recently used entry.
    mru: Option<u64>,
    counters: CacheCounters,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` compiled cases
    /// (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        PlanCache {
            capacity,
            entries: HashMap::with_capacity(capacity + 1),
            lru: None,
            mru: None,
            counters: CacheCounters::default(),
        }
    }

    /// Looks a compiled case up, refreshing its recency on hit.
    pub fn get(&mut self, hash: u64) -> Option<Arc<Cached>> {
        if !self.entries.contains_key(&hash) {
            self.counters.misses += 1;
            return None;
        }
        self.counters.hits += 1;
        self.unlink(hash);
        self.link_mru(hash);
        Some(Arc::clone(&self.entries[&hash].compiled))
    }

    /// Removes a compiled case for its owner to mutate, counting the
    /// lookup like [`PlanCache::get`].
    pub fn take(&mut self, hash: u64) -> Option<Arc<Cached>> {
        self.get(hash)?;
        self.unlink(hash);
        self.entries.remove(&hash).map(|node| node.compiled)
    }

    /// Inserts a freshly compiled case, evicting the least recently used
    /// entry if the cache is full. Re-inserting an existing hash just
    /// refreshes the entry.
    pub fn insert(&mut self, hash: u64, compiled: Arc<Cached>) {
        if let Some(node) = self.entries.get_mut(&hash) {
            node.compiled = compiled;
            self.unlink(hash);
            self.link_mru(hash);
            return;
        }
        if self.entries.len() >= self.capacity {
            let victim = self.lru.expect("a full cache has an LRU entry");
            self.unlink(victim);
            self.entries.remove(&victim);
            self.counters.evictions += 1;
        }
        self.entries.insert(hash, Node { compiled, prev: None, next: None });
        self.link_mru(hash);
    }

    /// Detaches `hash` from the recency list (it must be present),
    /// leaving its own links stale for `link_mru` to overwrite.
    fn unlink(&mut self, hash: u64) {
        let (prev, next) = {
            let node = &self.entries[&hash];
            (node.prev, node.next)
        };
        match prev {
            Some(p) => self.entries.get_mut(&p).expect("linked neighbour exists").next = next,
            None => self.lru = next,
        }
        match next {
            Some(n) => self.entries.get_mut(&n).expect("linked neighbour exists").prev = prev,
            None => self.mru = prev,
        }
    }

    /// Appends `hash` (already in the map, currently detached) at the
    /// most-recently-used end.
    fn link_mru(&mut self, hash: u64) {
        let old_mru = self.mru;
        {
            let node = self.entries.get_mut(&hash).expect("entry was just inserted or unlinked");
            node.prev = old_mru;
            node.next = None;
        }
        match old_mru {
            Some(m) => self.entries.get_mut(&m).expect("old MRU exists").next = Some(hash),
            None => self.lru = Some(hash),
        }
        self.mru = Some(hash);
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WireLeafKind;
    use depcase::assurance::{templates, Combination};

    fn compiled(confidence: f64) -> Arc<Cached> {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "claim").unwrap();
        let e = case.add_evidence("E", "evidence", confidence).unwrap();
        case.support(g, e).unwrap();
        Arc::new(Incremental::new(case).unwrap().into())
    }

    /// A case whose labels need escaping — quotes, backslashes, control
    /// characters, non-ASCII — with a diamond leaf and a context node.
    fn escaped_case() -> Case {
        let mut case = Case::new("t\"\\\n");
        let g = case.add_goal("G \"root\"", "top\\").unwrap();
        let s = case.add_strategy("S\t1", "legs", Combination::AnyOf).unwrap();
        let e1 = case.add_evidence("E\u{1}é", "a\"b", 0.9).unwrap();
        let e2 = case.add_evidence("E\"2\"", "</script>", 0.7).unwrap();
        let a = case.add_assumption("A\\", "env", 0.95).unwrap();
        case.add_context("C\u{7f}", "context").unwrap();
        for (parent, child) in [(g, s), (s, e1), (s, e2), (g, e2), (g, a)] {
            case.support(parent, child).unwrap();
        }
        case
    }

    fn name_of(case: &Case, wanted: impl Fn(&NodeKind) -> bool) -> String {
        case.iter().find(|(_, n)| wanted(&n.kind)).unwrap().1.name.clone()
    }

    #[test]
    fn spliced_nodes_text_equals_a_fresh_render() {
        let mut cases: Vec<Case> =
            (0..templates::TEMPLATE_COUNT).map(templates::template).collect();
        cases.push(escaped_case());
        let mut state = 0x5eed_u64;
        for case in cases {
            let leaves: Vec<String> = case
                .iter()
                .filter(|(_, n)| {
                    matches!(n.kind, NodeKind::Evidence { .. } | NodeKind::Assumption { .. })
                })
                .map(|(_, n)| n.name.clone())
                .collect();
            let mut cached = Cached::from(Incremental::new(case).unwrap());
            cached.nodes();
            for _ in 0..40 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let node = leaves[(state % leaves.len() as u64) as usize].clone();
                let confidence = ((state >> 32) % 1001) as f64 / 1000.0;
                cached.edit(&EditAction::SetConfidence { node, confidence }).unwrap();
                let fresh = render(cached.case(), cached.as_report(), None);
                let spliced = cached.nodes.get().expect("a confidence edit keeps the text");
                assert_eq!(spliced.text, fresh.text);
                assert_eq!(spliced.ends, fresh.ends);
            }
            // A rejected edit keeps the text; structural edits drop it,
            // and the next read renders the edited case afresh.
            let node = "no such node".to_string();
            assert!(cached.edit(&EditAction::SetConfidence { node, confidence: 0.5 }).is_err());
            assert!(cached.nodes.get().is_some());
            let parent = name_of(cached.case(), |k| matches!(k, NodeKind::Strategy(_)));
            let (node, kind) = ("X".to_string(), WireLeafKind::Evidence);
            let add = EditAction::AddLeaf {
                parent: name_of(cached.case(), |k| *k == NodeKind::Goal),
                node,
                statement: None,
                kind,
                confidence: 0.5,
            };
            cached.edit(&add).unwrap();
            assert!(cached.nodes.get().is_none());
            assert_eq!(cached.nodes(), render(cached.case(), cached.as_report(), None).text);
            let case = cached.case();
            let first = case.supporters(case.node_by_name(&parent).unwrap()).unwrap()[0];
            let from = case.node(first).unwrap().name.clone();
            cached.edit(&EditAction::Retarget { parent, from, to: "X".into() }).unwrap();
            assert!(cached.nodes.get().is_none());
            assert_eq!(cached.nodes(), render(cached.case(), cached.as_report(), None).text);
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache = PlanCache::new(4);
        assert!(cache.get(1).is_none());
        cache.insert(1, compiled(0.9));
        assert!(cache.get(1).is_some());
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn least_recently_used_entry_is_evicted_first() {
        let mut cache = PlanCache::new(2);
        cache.insert(1, compiled(0.9));
        cache.insert(2, compiled(0.8));
        assert!(cache.get(1).is_some()); // 2 is now least recent
        cache.insert(3, compiled(0.7)); // evicts 2
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let mut cache = PlanCache::new(2);
        cache.insert(1, compiled(0.9));
        cache.insert(2, compiled(0.8));
        cache.insert(1, compiled(0.9));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 0);
        // 2 is now the LRU entry despite being inserted after 1.
        cache.insert(3, compiled(0.7));
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
    }

    #[test]
    fn churn_matches_a_reference_recency_model() {
        // Drive the linked-list implementation against a brute-force
        // recency Vec through a deterministic mixed workload; counters
        // and membership must agree at every step.
        let mut cache = PlanCache::new(4);
        let mut model: Vec<u64> = Vec::new(); // most recent last
        let mut model_counters = CacheCounters::default();
        let mut state = 0x1234_5678_u64;
        let entry = compiled(0.9);
        for _ in 0..2000 {
            // xorshift: cheap deterministic op/key stream.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 11;
            if state & 1 == 0 {
                let got = cache.get(key);
                if let Some(pos) = model.iter().position(|&k| k == key) {
                    model_counters.hits += 1;
                    let k = model.remove(pos);
                    model.push(k);
                    assert!(got.is_some(), "model has {key}, cache does not");
                } else {
                    model_counters.misses += 1;
                    assert!(got.is_none(), "cache has {key}, model does not");
                }
            } else {
                cache.insert(key, Arc::clone(&entry));
                if let Some(pos) = model.iter().position(|&k| k == key) {
                    model.remove(pos);
                } else if model.len() >= 4 {
                    model.remove(0);
                    model_counters.evictions += 1;
                }
                model.push(key);
            }
            assert_eq!(cache.len(), model.len());
        }
        assert_eq!(cache.counters(), model_counters);
        // Final membership matches exactly.
        for key in 0..11 {
            assert_eq!(cache.entries.contains_key(&key), model.contains(&key), "key {key}");
        }
    }
}
