//! Arena-based intermediate representation of a case.
//!
//! [`CaseIr`] is the single lowered form every evaluation pass consumes:
//! dense indices, CSR child *and* parent adjacency, a topological order
//! computed once, and a Merkle-style subtree hash per node. The name-keyed
//! [`Case`] stays the authoring surface; the IR is what plan compilation
//! ([`crate::plan`]), analytic propagation ([`crate::propagation`]),
//! importance analysis, DOT export and the incremental engine
//! ([`crate::incremental`]) actually walk.
//!
//! # Subtree hashes
//!
//! Every node carries an FNV-1a hash over its evaluation-relevant payload
//! (kind tag, confidence bits for leaves, combination rule for
//! strategies) plus, for each child **in combination order**, the child's
//! arena index and subtree hash. Including the child *index* — not just
//! the child hash — is deliberate: cases are DAGs, and two structures
//! whose children are equal-by-hash but distinct-by-identity (one shared
//! leaf vs. two equal leaves) must hash differently, because Monte-Carlo
//! samples a shared leaf once and two equal leaves independently.
//!
//! [`CaseIr::case_hash`] folds **all** per-node hashes in index order
//! (not just the root's): the Monte-Carlo RNG stream draws one variate
//! per leaf in slot order, so even a leaf unreachable from the root
//! shifts every subsequent draw and is evaluation-relevant.

use crate::error::{CaseError, Result};
use crate::graph::{Case, Combination, NodeKind, CASE_SCHEMA_VERSION};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Minimal FNV-1a accumulator shared by the subtree and case hashes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Evaluation-relevant payload of one IR node. Names, statements and
/// titles are deliberately absent: they never change an answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IrKind {
    /// A claim; combines its support conjunctively.
    Goal,
    /// A reasoning step with an explicit combination rule.
    Strategy(Combination),
    /// Evidence leaf carrying elicited confidence.
    Evidence(f64),
    /// Assumption leaf; conjoins at its parent.
    Assumption(f64),
    /// Contextual information; excluded from evaluation.
    Context,
}

impl IrKind {
    fn of(kind: &NodeKind) -> Self {
        match *kind {
            NodeKind::Goal => IrKind::Goal,
            NodeKind::Strategy(c) => IrKind::Strategy(c),
            NodeKind::Evidence { confidence } => IrKind::Evidence(confidence),
            NodeKind::Assumption { confidence } => IrKind::Assumption(confidence),
            NodeKind::Context => IrKind::Context,
        }
    }

    /// The elicited confidence, for leaves that carry one.
    #[must_use]
    pub fn confidence(&self) -> Option<f64> {
        match *self {
            IrKind::Evidence(c) | IrKind::Assumption(c) => Some(c),
            _ => None,
        }
    }

    /// True for evidence and assumption leaves.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self, IrKind::Evidence(_) | IrKind::Assumption(_))
    }

    /// Stable discriminant used by both hash flavours (matches the
    /// pre-IR `content_hash` tags).
    pub(crate) fn tag(&self) -> u8 {
        match self {
            IrKind::Goal => 0,
            IrKind::Strategy(Combination::AllOf) => 1,
            IrKind::Strategy(Combination::AnyOf) => 2,
            IrKind::Evidence(_) => 3,
            IrKind::Assumption(_) => 4,
            IrKind::Context => 5,
        }
    }
}

/// The lowered case: dense arena indices, CSR adjacency both ways, one
/// precomputed topological order, and per-node subtree hashes.
///
/// Arena index `i` of the IR is exactly insertion index `i` of the
/// source [`Case`], so slot buffers, plans and reports all share the
/// same indexing.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseIr {
    kinds: Vec<IrKind>,
    /// CSR offsets into `child_list`; length `n + 1`.
    child_start: Vec<u32>,
    /// Children (supporters) in combination order.
    child_list: Vec<u32>,
    /// CSR offsets into `parent_list`; length `n + 1`.
    parent_start: Vec<u32>,
    /// Parents (supported nodes), grouped per node.
    parent_list: Vec<u32>,
    /// Node indices, children strictly before parents.
    topo: Vec<u32>,
    /// `pos[i]` = position of node `i` in `topo`.
    pos: Vec<u32>,
    /// Merkle-style subtree hash per node.
    hashes: Vec<u64>,
    /// Root goals (no parents), in index order.
    roots: Vec<u32>,
}

impl CaseIr {
    /// Lowers a case into the arena form.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidStructure`] when the support graph contains a
    /// cycle. API-built cases are acyclic by construction
    /// ([`Case::support`] rejects closing edges); a cycle can only come
    /// from a hand-edited save file, and lowering is where it is caught
    /// instead of overflowing the stack later.
    pub fn build(case: &Case) -> Result<Self> {
        let n = case.len();
        let mut kinds = Vec::with_capacity(n);
        for (_, node) in case.iter() {
            kinds.push(IrKind::of(&node.kind));
        }

        // Child CSR, preserving combination order. Every buffer is sized
        // up front: lowering allocates a fixed count at any size.
        let edges = (0..n).map(|i| case.children_of(i).len()).sum();
        let mut child_start = Vec::with_capacity(n + 1);
        let mut child_list = Vec::with_capacity(edges);
        child_start.push(0u32);
        for i in 0..n {
            for &c in case.children_of(i) {
                child_list.push(c as u32);
            }
            child_start.push(child_list.len() as u32);
        }

        // Parent CSR via counting sort.
        let mut parent_count = vec![0u32; n];
        for &c in &child_list {
            parent_count[c as usize] += 1;
        }
        let mut parent_start = Vec::with_capacity(n + 1);
        parent_start.push(0u32);
        for i in 0..n {
            parent_start.push(parent_start[i] + parent_count[i]);
        }
        let mut fill: Vec<u32> = parent_start[..n].to_vec();
        let mut parent_list = vec![0u32; child_list.len()];
        for p in 0..n {
            for &c in case.children_of(p) {
                parent_list[fill[c] as usize] = p as u32;
                fill[c] += 1;
            }
        }

        // Topological order: iterative post-order DFS from every node in
        // index order — the same walk plan compilation always used, so
        // step order (and therefore every sampled bit) is unchanged.
        let mut topo: Vec<u32> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        for root in 0..n {
            if visited[root] {
                continue;
            }
            stack.push((root, 0));
            visited[root] = true;
            while let Some(&(node, pos)) = stack.last() {
                let children = case.children_of(node);
                if pos < children.len() {
                    stack.last_mut().expect("nonempty").1 += 1;
                    let c = children[pos];
                    if !visited[c] {
                        visited[c] = true;
                        stack.push((c, 0));
                    }
                } else {
                    topo.push(node as u32);
                    stack.pop();
                }
            }
        }
        let mut pos = vec![0u32; n];
        for (p, &i) in topo.iter().enumerate() {
            pos[i as usize] = p as u32;
        }
        // A DFS post-order is a valid topological order iff the graph is
        // acyclic; verify every edge points backwards in `topo`.
        for i in 0..n {
            let lo = child_start[i] as usize;
            let hi = child_start[i + 1] as usize;
            for &c in &child_list[lo..hi] {
                if pos[c as usize] >= pos[i] {
                    return Err(CaseError::InvalidStructure(
                        "support graph contains a cycle".into(),
                    ));
                }
            }
        }

        let roots = (0..n)
            .filter(|&i| matches!(kinds[i], IrKind::Goal) && parent_start[i] == parent_start[i + 1])
            .map(|i| i as u32)
            .collect();

        let mut ir = CaseIr {
            kinds,
            child_start,
            child_list,
            parent_start,
            parent_list,
            topo,
            pos,
            hashes: vec![0; n],
            roots,
        };
        for t in 0..ir.topo.len() {
            let i = ir.topo[t] as usize;
            ir.hashes[i] = ir.node_hash(i);
        }
        Ok(ir)
    }

    /// Number of nodes in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the arena holds no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The evaluation-relevant payload of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn kind(&self, i: usize) -> IrKind {
        self.kinds[i]
    }

    /// The supporters of node `i`, in combination order.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn children(&self, i: usize) -> &[u32] {
        &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// The nodes that node `i` supports.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn parents(&self, i: usize) -> &[u32] {
        &self.parent_list[self.parent_start[i] as usize..self.parent_start[i + 1] as usize]
    }

    /// The precomputed topological order: children strictly before
    /// parents.
    #[must_use]
    pub fn topo(&self) -> &[u32] {
        &self.topo
    }

    /// Root goals (goal nodes nothing supports), in index order.
    #[must_use]
    pub fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// The Merkle-style subtree hash of node `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn subtree_hash(&self, i: usize) -> u64 {
        self.hashes[i]
    }

    /// The subtree hash of the single root, when there is exactly one.
    #[must_use]
    pub fn root_hash(&self) -> Option<u64> {
        match self.roots.as_slice() {
            [r] => Some(self.hashes[*r as usize]),
            _ => None,
        }
    }

    /// The whole-case content hash: schema version, node count, and
    /// every subtree hash in index order. This is what
    /// [`Case::content_hash`] returns for acyclic cases.
    #[must_use]
    pub fn case_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(CASE_SCHEMA_VERSION);
        h.write_u64(self.kinds.len() as u64);
        for &sh in &self.hashes {
            h.write_u64(sh);
        }
        h.0
    }

    /// Recomputes one node's subtree hash from its current payload and
    /// its children's (already correct) hashes.
    fn node_hash(&self, i: usize) -> u64 {
        let mut h = Fnv::new();
        let kind = self.kinds[i];
        h.write(&[kind.tag()]);
        if let Some(c) = kind.confidence() {
            h.write_u64(c.to_bits());
        }
        let children = self.children(i);
        h.write_u64(children.len() as u64);
        for &c in children {
            h.write_u64(u64::from(c));
            h.write_u64(self.hashes[c as usize]);
        }
        h.0
    }

    /// Overwrites the confidence payload of leaf `i`. The caller must
    /// have validated that `i` is an evidence or assumption node and
    /// must follow up with [`CaseIr::recompute_hashes`] on the dirty
    /// spine.
    pub(crate) fn set_leaf_confidence(&mut self, i: usize, confidence: f64) {
        match &mut self.kinds[i] {
            IrKind::Evidence(c) | IrKind::Assumption(c) => *c = confidence,
            _ => unreachable!("caller validated that node {i} is a confidence-carrying leaf"),
        }
    }

    /// The dirty spine of node `i`: the node itself plus every ancestor,
    /// sorted children-before-parents (topological position). This is
    /// exactly the set whose values and hashes a point edit at `i`
    /// invalidates. A min-heap of topological positions yields it in
    /// O(spine · log spine): a node reached along several paths pops
    /// its copies back to back and is kept once, with no visited array.
    pub(crate) fn dirty_spine<'s>(&self, i: usize, scratch: &'s mut Spine) -> &'s [u32] {
        let Spine { frontier, nodes } = scratch;
        nodes.clear();
        frontier.push(Reverse(self.pos[i]));
        while let Some(Reverse(p)) = frontier.pop() {
            let n = self.topo[p as usize];
            if nodes.last() != Some(&n) {
                nodes.push(n);
                let parents = self.parents(n as usize).iter();
                frontier.extend(parents.map(|&q| Reverse(self.pos[q as usize])));
            }
        }
        nodes
    }

    /// Recomputes subtree hashes for `dirty`, which must be sorted
    /// children-before-parents (as [`CaseIr::dirty_spine`] returns).
    pub(crate) fn recompute_hashes(&mut self, dirty: &[u32]) {
        for &i in dirty {
            self.hashes[i as usize] = self.node_hash(i as usize);
        }
    }
}

/// Reusable buffers for [`CaseIr::dirty_spine`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Spine {
    frontier: BinaryHeap<Reverse<u32>>,
    /// The spine the last walk found.
    pub(crate) nodes: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Case;

    fn demo() -> Case {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let s = case.add_strategy("S", "legs", Combination::AnyOf).unwrap();
        let e1 = case.add_evidence("E1", "a", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.7).unwrap();
        let a = case.add_assumption("A", "env", 0.95).unwrap();
        case.support(g, s).unwrap();
        case.support(s, e1).unwrap();
        case.support(s, e2).unwrap();
        case.support(g, a).unwrap();
        case
    }

    #[test]
    fn topo_puts_children_before_parents() {
        let ir = CaseIr::build(&demo()).unwrap();
        let pos: Vec<usize> = (0..ir.len())
            .map(|i| ir.topo().iter().position(|&t| t as usize == i).unwrap())
            .collect();
        for i in 0..ir.len() {
            for &c in ir.children(i) {
                assert!(pos[c as usize] < pos[i], "child {c} after parent {i}");
            }
        }
    }

    #[test]
    fn parent_adjacency_inverts_child_adjacency() {
        let ir = CaseIr::build(&demo()).unwrap();
        for i in 0..ir.len() {
            for &c in ir.children(i) {
                assert!(ir.parents(c as usize).contains(&(i as u32)));
            }
            for &p in ir.parents(i) {
                assert!(ir.children(p as usize).contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn roots_match_case_roots() {
        let case = demo();
        let ir = CaseIr::build(&case).unwrap();
        let expect: Vec<u32> =
            case.roots().iter().map(|&r| case.index(r).unwrap() as u32).collect();
        assert_eq!(ir.roots(), expect.as_slice());
    }

    #[test]
    fn shared_child_hashes_differently_from_equal_distinct_children() {
        // One shared leaf under two strategies …
        let mut shared = Case::new("t");
        let g = shared.add_goal("G", "top").unwrap();
        let s1 = shared.add_strategy("S1", "a", Combination::AllOf).unwrap();
        let s2 = shared.add_strategy("S2", "b", Combination::AllOf).unwrap();
        let e = shared.add_evidence("E1", "x", 0.5).unwrap();
        shared.support(g, s1).unwrap();
        shared.support(g, s2).unwrap();
        shared.support(s1, e).unwrap();
        shared.support(s2, e).unwrap();
        // … vs. two equal-but-independent leaves. MC treats these
        // differently (one draw vs. two), so the hashes must differ.
        let mut split = Case::new("t");
        let g = split.add_goal("G", "top").unwrap();
        let s1 = split.add_strategy("S1", "a", Combination::AllOf).unwrap();
        let s2 = split.add_strategy("S2", "b", Combination::AllOf).unwrap();
        let e1 = split.add_evidence("E1", "x", 0.5).unwrap();
        let e2 = split.add_evidence("E2", "x", 0.5).unwrap();
        split.support(g, s1).unwrap();
        split.support(g, s2).unwrap();
        split.support(s1, e1).unwrap();
        split.support(s2, e2).unwrap();
        let a = CaseIr::build(&shared).unwrap();
        let b = CaseIr::build(&split).unwrap();
        assert_ne!(a.case_hash(), b.case_hash());
    }

    #[test]
    fn subtree_hash_ignores_names_and_statements() {
        let mut a = Case::new("one title");
        let g = a.add_goal("G", "claim").unwrap();
        let e = a.add_evidence("E", "testing", 0.9).unwrap();
        a.support(g, e).unwrap();
        let mut b = Case::new("another title");
        let g = b.add_goal("TopGoal", "different words").unwrap();
        let e = b.add_evidence("Exhibit", "same number", 0.9).unwrap();
        b.support(g, e).unwrap();
        assert_eq!(CaseIr::build(&a).unwrap().case_hash(), CaseIr::build(&b).unwrap().case_hash());
    }

    #[test]
    fn point_edit_dirties_only_the_spine() {
        let case = demo();
        let mut ir = CaseIr::build(&case).unwrap();
        let before: Vec<u64> = (0..ir.len()).map(|i| ir.subtree_hash(i)).collect();
        let e1 = case.index(case.node_by_name("E1").unwrap()).unwrap();
        ir.set_leaf_confidence(e1, 0.91);
        let mut spine = Spine::default();
        let dirty = ir.dirty_spine(e1, &mut spine).to_vec();
        ir.recompute_hashes(&dirty);
        // Spine = E1, S, G: exactly three nodes change.
        assert_eq!(dirty.len(), 3);
        for (i, &old) in before.iter().enumerate() {
            if dirty.contains(&(i as u32)) {
                assert_ne!(ir.subtree_hash(i), old, "spine node {i} must change");
            } else {
                assert_eq!(ir.subtree_hash(i), old, "off-spine node {i} must not change");
            }
        }
        // And the maintained hashes equal a from-scratch rebuild.
        let mut edited = case.clone();
        edited.set_leaf_confidence(case.node_by_name("E1").unwrap(), 0.91).unwrap();
        assert_eq!(ir.case_hash(), CaseIr::build(&edited).unwrap().case_hash());
    }

    #[test]
    fn dirty_spine_keeps_each_ancestor_once_in_topological_order() {
        // A lattice: every node of row r supports both neighbours in row
        // r + 1, so the number of paths from the bottom leaf doubles per
        // row while the spine stays one node per reachable slot.
        let mut case = Case::new("t");
        let rows = 8;
        let mut grid = Vec::new();
        for r in 0..rows {
            let row: Vec<_> =
                (0..=r).map(|k| case.add_goal(format!("G{r}.{k}"), "claim").unwrap()).collect();
            grid.push(row);
        }
        for r in 0..rows - 1 {
            for k in 0..=r {
                case.support(grid[r][k], grid[r + 1][k]).unwrap();
                case.support(grid[r][k], grid[r + 1][k + 1]).unwrap();
            }
        }
        let leaf = case.add_evidence("E", "x", 0.5).unwrap();
        case.support(grid[rows - 1][0], leaf).unwrap();
        let ir = CaseIr::build(&case).unwrap();
        let i = case.index(leaf).unwrap();
        // Brute force: every node that reaches the leaf, by topo position.
        let mut want: Vec<u32> = (0..ir.len() as u32)
            .filter(|&n| {
                let mut stack = vec![n as usize];
                while let Some(m) = stack.pop() {
                    if m == i {
                        return true;
                    }
                    stack.extend(ir.children(m).iter().map(|&c| c as usize));
                }
                false
            })
            .collect();
        want.sort_by_key(|&n| ir.pos[n as usize]);
        let mut spine = Spine::default();
        assert_eq!(ir.dirty_spine(i, &mut spine), want.as_slice());
        // The scratch is reusable: a second walk gives the same answer.
        assert_eq!(ir.dirty_spine(i, &mut spine), want.as_slice());
    }

    #[test]
    fn cyclic_deserialized_case_is_rejected_not_overflowed() {
        let cyclic = r#"{"schema":1,"title":"t","nodes":[
            {"name":"G1","statement":"a","kind":"Goal"},
            {"name":"G2","statement":"b","kind":"Goal"}],
            "children":[[1],[0]]}"#;
        let case: Case = serde_json::from_str(cyclic).unwrap();
        let err = CaseIr::build(&case).unwrap_err();
        assert!(matches!(err, CaseError::InvalidStructure(_)), "{err}");
    }

    #[test]
    fn empty_case_lowers() {
        let ir = CaseIr::build(&Case::new("t")).unwrap();
        assert!(ir.is_empty());
        assert_eq!(ir.roots(), &[] as &[u32]);
        assert!(ir.root_hash().is_none());
    }
}
