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

use depcase::assurance::Incremental;
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
    nodes: OnceLock<Arc<str>>,
}

impl Cached {
    /// The `nodes` text, rendered from the session by `render` on the
    /// first call and shared by every later one.
    pub fn nodes(&self, render: impl FnOnce(&Incremental) -> Arc<str>) -> Arc<str> {
        Arc::clone(self.nodes.get_or_init(|| render(&self.session)))
    }
}

impl From<Incremental> for Cached {
    fn from(session: Incremental) -> Self {
        Cached { session, nodes: OnceLock::new() }
    }
}

/// The session alone, for an edit to mutate; the text is dropped.
impl From<Cached> for Incremental {
    fn from(cached: Cached) -> Self {
        cached.session
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
    use depcase::prelude::*;

    fn compiled(confidence: f64) -> Arc<Cached> {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "claim").unwrap();
        let e = case.add_evidence("E", "evidence", confidence).unwrap();
        case.support(g, e).unwrap();
        Arc::new(Incremental::new(case).unwrap().into())
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
