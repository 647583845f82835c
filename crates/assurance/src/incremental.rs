//! Incremental recomputation: point edits in O(depth), not O(n).
//!
//! An [`Incremental`] session owns a case together with every derived
//! artefact — its [`CaseIr`], the dense propagated values, a compiled
//! [`EvalPlan`] and a memo table of node confidences keyed by subtree
//! hash. An edit (set a leaf confidence, add a leaf, retarget an edge)
//! marks only the dirty spine — the edited node plus its ancestors —
//! recomputes those values children-before-parents, and patches the
//! plan, leaving everything off-spine untouched.
//!
//! The memo table makes *revisited* states free: because keys are
//! Merkle-style subtree hashes, undoing an edit (or re-eliciting the
//! same confidence) finds every spine value already computed and counts
//! it as reused instead of recomputed. With [`Incremental::with_memo`]
//! the memo is a shared [`crate::memo::MemoStore`] instead of a private
//! table, so the reuse extends across sessions and across *cases* that
//! share subtrees (see [`crate::memo`]).
//!
//! Answers are bit-identical to a from-scratch
//! [`propagate`](crate::propagation::propagate): both paths produce
//! every float in the same shared kernel, and a node's value depends
//! only on its children's values — which the dirty spine preserves by
//! construction.

use crate::error::{CaseError, Result};
use crate::graph::{Case, NodeId, NodeKind};
use crate::importance::{one_root, sweep, LeafImportance};
use crate::ir::{CaseIr, IrKind, Spine};
use crate::memo::MemoStore;
use crate::plan::EvalPlan;
use crate::propagation::{eval_node, ConfidenceReport, NodeConfidence};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// What one edit (or one session so far) cost and saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditStats {
    /// Nodes whose confidence was recomputed through the kernel.
    pub nodes_recomputed: u64,
    /// Nodes whose confidence was served from the subtree-hash memo.
    pub nodes_reused: u64,
}

/// The kind of leaf an [`Incremental::add_leaf`] edit creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafKind {
    /// Evidence carrying elicited confidence.
    Evidence,
    /// An assumption; conjoins at its parent.
    Assumption,
}

/// A live editing session over one case, holding every derived artefact
/// in sync under point edits.
///
/// # Examples
///
/// ```
/// use depcase_assurance::{Case, Incremental};
///
/// let mut case = Case::new("t");
/// let g = case.add_goal("G", "claim")?;
/// let e1 = case.add_evidence("E1", "test", 0.9)?;
/// let e2 = case.add_evidence("E2", "review", 0.8)?;
/// case.support(g, e1)?;
/// case.support(g, e2)?;
///
/// let mut session = Incremental::new(case)?;
/// let stats = session.set_confidence(e1, 0.95)?;
/// // Only the dirty spine (E1 and G) was touched:
/// assert_eq!(stats.nodes_recomputed + stats.nodes_reused, 2);
/// let top = session.confidence(g).unwrap();
/// assert!((top.independent - 0.95 * 0.8).abs() < 1e-12);
/// # Ok::<(), depcase_assurance::CaseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Incremental {
    case: Case,
    ir: CaseIr,
    report: ConfidenceReport,
    plan: EvalPlan,
    /// Propagated confidence keyed by subtree hash. Trusts 64-bit FNV
    /// not to collide — the same bet the service plan cache already
    /// makes on `content_hash`.
    memo: Memo,
    /// Kept so a warm point edit allocates nothing.
    spine: Spine,
    recomputed: u64,
    reused: u64,
}

/// Where a session's subtree-hash memo lives.
///
/// `Private` is the original per-session table with clear-on-overflow
/// bounding — the default, and what library users get from
/// [`Incremental::new`]. `Shared` plugs the session into an external
/// [`MemoStore`] (the service's global [`crate::memo::SharedMemo`]), so
/// identical subtrees across *different* sessions and cases share one
/// computed value. Both backends answer bit-identical values: keys are
/// Merkle subtree hashes and the kernel is deterministic, so a hit can
/// never differ from a recompute.
#[derive(Debug, Clone)]
enum Memo {
    Private(HashMap<u64, NodeConfidence>),
    Shared(Arc<dyn MemoStore>),
}

impl Memo {
    fn get(&self, key: u64) -> Option<NodeConfidence> {
        match self {
            Memo::Private(map) => map.get(&key).copied(),
            Memo::Shared(store) => store.get(key),
        }
    }

    fn insert(&mut self, key: u64, value: NodeConfidence, cap: usize) {
        match self {
            Memo::Private(map) => {
                if map.len() >= cap {
                    map.clear();
                }
                map.insert(key, value);
            }
            Memo::Shared(store) => store.insert(key, value),
        }
    }
}

impl Incremental {
    /// Caps the *private* memo at a multiple of the case size; a
    /// session that sweeps enormous numbers of distinct states
    /// (importance over a huge case) stays bounded. A shared
    /// [`MemoStore`] enforces its own bound and ignores this.
    fn memo_cap(n: usize) -> usize {
        (16 * n).max(4096)
    }

    /// Builds a session: validates, lowers, fully propagates (seeding
    /// the memo) and compiles the plan.
    ///
    /// # Errors
    ///
    /// Structural errors from [`Case::validate`], or
    /// [`CaseError::InvalidStructure`] for a cyclic graph.
    pub fn new(case: Case) -> Result<Self> {
        Self::build(case, Memo::Private(HashMap::new()))
    }

    /// Builds a session whose memo is the shared `store` instead of a
    /// private table: every subtree value it computes is published to
    /// the store, and every subtree the store already knows — from this
    /// session, an earlier one, or a *different case* sharing the
    /// subtree — is reused without float work. Answers are
    /// bit-identical to [`Incremental::new`] by construction (equal
    /// subtree hashes always map to equal bits).
    ///
    /// Cloning the session shares the same store.
    ///
    /// # Errors
    ///
    /// As [`Incremental::new`].
    pub fn with_memo(case: Case, store: Arc<dyn MemoStore>) -> Result<Self> {
        Self::build(case, Memo::Shared(store))
    }

    /// [`Incremental::with_memo`] with the same `full_propagate` phase
    /// reported to `tracer` as [`Incremental::new_traced`].
    ///
    /// # Errors
    ///
    /// As [`Incremental::new`].
    pub fn with_memo_traced<T: Tracer + ?Sized>(
        case: Case,
        store: Arc<dyn MemoStore>,
        tracer: &T,
    ) -> Result<Self> {
        let started = Instant::now();
        let session = Self::with_memo(case, store)?;
        tracer.phase("full_propagate", started.elapsed());
        tracer.count("case_nodes", session.ir.len() as u64);
        Ok(session)
    }

    fn build(case: Case, memo: Memo) -> Result<Self> {
        case.validate()?;
        let ir = CaseIr::build(&case)?;
        let plan = EvalPlan::from_ir(&ir);
        let (report, spine) = (ConfidenceReport::empty(&ir), Spine::default());
        let mut session =
            Incremental { case, ir, report, plan, memo, spine, recomputed: 0, reused: 0 };
        for t in 0..session.ir.len() {
            session.eval_node(session.ir.topo()[t] as usize);
        }
        Ok(session)
    }

    /// [`Incremental::new`] with a `full_propagate` phase (validate,
    /// lower, compile, seed the memo) reported to `tracer`.
    ///
    /// # Errors
    ///
    /// As [`Incremental::new`].
    pub fn new_traced<T: Tracer + ?Sized>(case: Case, tracer: &T) -> Result<Self> {
        let started = Instant::now();
        let session = Self::new(case)?;
        tracer.phase("full_propagate", started.elapsed());
        tracer.count("case_nodes", session.ir.len() as u64);
        Ok(session)
    }

    /// The current state of the case under edit.
    #[must_use]
    pub fn case(&self) -> &Case {
        &self.case
    }

    /// The lowered IR, kept in sync with the case.
    #[must_use]
    pub fn ir(&self) -> &CaseIr {
        &self.ir
    }

    /// The compiled plan, kept in sync with the case — hand it straight
    /// to [`crate::MonteCarlo::run_plan`].
    #[must_use]
    pub fn plan(&self) -> &EvalPlan {
        &self.plan
    }

    /// The confidence currently attributed to a node, if it
    /// participates.
    #[must_use]
    pub fn confidence(&self, id: NodeId) -> Option<NodeConfidence> {
        self.report.confidence(id)
    }

    /// Snapshots the current values as a [`ConfidenceReport`],
    /// bit-identical to `self.case().propagate()`.
    #[must_use]
    pub fn report(&self) -> ConfidenceReport {
        self.report.clone()
    }

    /// The current values, borrowed: what [`Incremental::report`] copies.
    #[must_use]
    pub fn as_report(&self) -> &ConfidenceReport {
        &self.report
    }

    /// The case's content hash, maintained incrementally — equal to
    /// `self.case().content_hash()` at every point.
    #[must_use]
    pub fn case_hash(&self) -> u64 {
        self.ir.case_hash()
    }

    /// [`birnbaum_importance`](crate::birnbaum_importance) of the case,
    /// bit for bit, swept over the session's own IR and values instead
    /// of validating, lowering and propagating the case again.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidStructure`] when there is not exactly one root.
    pub fn importance(&self) -> Result<Vec<LeafImportance>> {
        one_root(self.ir.roots().len())?;
        Ok(sweep(&self.case, &self.ir, &self.report.values))
    }

    /// The last edit's dirty spine: the edited node (or retargeted
    /// parent) and its ancestors, as node indices, children first.
    #[must_use]
    pub fn spine(&self) -> &[u32] {
        &self.spine.nodes
    }

    /// Cumulative recompute/reuse counters since the session started
    /// (including the initial full propagation).
    #[must_use]
    pub fn totals(&self) -> EditStats {
        EditStats { nodes_recomputed: self.recomputed, nodes_reused: self.reused }
    }

    /// Re-elicits the confidence of an evidence or assumption leaf,
    /// recomputing only the dirty spine.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidConfidence`] outside `[0, 1]`,
    /// [`CaseError::UnknownNode`] for a foreign handle,
    /// [`CaseError::InvalidStructure`] when the node is not a
    /// confidence-carrying leaf.
    pub fn set_confidence(&mut self, id: NodeId, confidence: f64) -> Result<EditStats> {
        let before = self.totals();
        self.case.set_leaf_confidence(id, confidence)?;
        let i = self.case.index(id)?;
        self.ir.set_leaf_confidence(i, confidence);
        self.plan.set_leaf_confidence(i as u32, confidence);
        self.recompute_spine(i);
        Ok(self.delta(before))
    }

    /// [`Incremental::set_confidence`] with a `dirty_spine` phase and a
    /// `spine_nodes` count (recomputed + reused) reported to `tracer`.
    ///
    /// # Errors
    ///
    /// As [`Incremental::set_confidence`].
    pub fn set_confidence_traced<T: Tracer + ?Sized>(
        &mut self,
        id: NodeId,
        confidence: f64,
        tracer: &T,
    ) -> Result<EditStats> {
        let started = Instant::now();
        let stats = self.set_confidence(id, confidence)?;
        report_spine(tracer, started, &stats);
        Ok(stats)
    }

    /// Adds a new evidence or assumption leaf under `parent`. Structure
    /// changes rebuild the IR and plan (cheap, no float work); values
    /// are still only recomputed along the dirty spine.
    ///
    /// # Errors
    ///
    /// [`CaseError::UnknownNode`] for a foreign parent handle,
    /// [`CaseError::InvalidEdge`] when the parent is a leaf or context
    /// node, plus the name/confidence errors of
    /// [`Case::add_evidence`].
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        statement: impl Into<String>,
        kind: LeafKind,
        confidence: f64,
    ) -> Result<(NodeId, EditStats)> {
        let before = self.totals();
        let p = self.case.index(parent)?;
        // Pre-validate the edge so the node insertion below cannot be
        // followed by a failed `support` (which would orphan the node).
        match self.case.node_at(p).kind {
            NodeKind::Goal | NodeKind::Strategy(_) => {}
            _ => {
                return Err(CaseError::InvalidEdge {
                    reason: format!("leaf node {} cannot be supported", self.case.node_at(p).name),
                });
            }
        }
        let id = match kind {
            LeafKind::Evidence => self.case.add_evidence(name, statement, confidence)?,
            LeafKind::Assumption => self.case.add_assumption(name, statement, confidence)?,
        };
        self.case.support(parent, id).expect("pre-validated edge cannot fail");
        self.rebuild_structure();
        self.report.values.push(None);
        self.recompute_spine(self.case.index(id)?);
        Ok((id, self.delta(before)))
    }

    /// [`Incremental::add_leaf`] with the same `dirty_spine` phase and
    /// `spine_nodes` count as [`Incremental::set_confidence_traced`].
    ///
    /// # Errors
    ///
    /// As [`Incremental::add_leaf`].
    pub fn add_leaf_traced<T: Tracer + ?Sized>(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        statement: impl Into<String>,
        kind: LeafKind,
        confidence: f64,
        tracer: &T,
    ) -> Result<(NodeId, EditStats)> {
        let started = Instant::now();
        let (id, stats) = self.add_leaf(parent, name, statement, kind, confidence)?;
        report_spine(tracer, started, &stats);
        Ok((id, stats))
    }

    /// Replaces the support edge `parent → from` with `parent → to`
    /// (position-preserving, see [`Case::retarget_support`]), then
    /// recomputes the dirty spine above `parent`.
    ///
    /// # Errors
    ///
    /// As [`Case::retarget_support`].
    pub fn retarget(&mut self, parent: NodeId, from: NodeId, to: NodeId) -> Result<EditStats> {
        let before = self.totals();
        self.case.retarget_support(parent, from, to)?;
        self.rebuild_structure();
        self.recompute_spine(self.case.index(parent)?);
        Ok(self.delta(before))
    }

    /// [`Incremental::retarget`] with the same `dirty_spine` phase and
    /// `spine_nodes` count as [`Incremental::set_confidence_traced`].
    ///
    /// # Errors
    ///
    /// As [`Incremental::retarget`].
    pub fn retarget_traced<T: Tracer + ?Sized>(
        &mut self,
        parent: NodeId,
        from: NodeId,
        to: NodeId,
        tracer: &T,
    ) -> Result<EditStats> {
        let started = Instant::now();
        let stats = self.retarget(parent, from, to)?;
        report_spine(tracer, started, &stats);
        Ok(stats)
    }

    /// Relowers the IR and plan after a structural edit. Node indices
    /// are append-only, so existing values stay valid off the spine.
    fn rebuild_structure(&mut self) {
        self.ir = CaseIr::build(&self.case)
            .expect("edited cases stay acyclic: every edit path re-validates edges");
        self.plan = EvalPlan::from_ir(&self.ir);
        self.report.roots = ConfidenceReport::empty(&self.ir).roots;
    }

    /// Refreshes the subtree hashes, then the values, of node `i`'s dirty
    /// spine, children before parents.
    fn recompute_spine(&mut self, i: usize) {
        let mut scratch = std::mem::take(&mut self.spine);
        let spine = self.ir.dirty_spine(i, &mut scratch);
        self.ir.recompute_hashes(spine);
        for &d in spine {
            self.eval_node(d as usize);
        }
        self.spine = scratch;
    }

    /// Computes (or recalls) the value of node `i`, whose children must
    /// already hold current values.
    fn eval_node(&mut self, i: usize) {
        if matches!(self.ir.kind(i), IrKind::Context) {
            return;
        }
        let key = self.ir.subtree_hash(i);
        let value = if let Some(v) = self.memo.get(key) {
            self.reused += 1;
            v
        } else {
            let v = eval_node(&self.ir, i, &self.report.values);
            self.recomputed += 1;
            self.memo.insert(key, v, Self::memo_cap(self.ir.len()));
            v
        };
        self.report.values[i] = Some(value);
    }

    fn delta(&self, before: EditStats) -> EditStats {
        EditStats {
            nodes_recomputed: self.recomputed - before.nodes_recomputed,
            nodes_reused: self.reused - before.nodes_reused,
        }
    }
}

/// Shared phase report of the traced edit entry points: the elapsed
/// `dirty_spine` phase plus how many spine nodes the edit touched.
fn report_spine<T: Tracer + ?Sized>(tracer: &T, started: Instant, stats: &EditStats) {
    tracer.phase("dirty_spine", started.elapsed());
    tracer.count("spine_nodes", stats.nodes_recomputed + stats.nodes_reused);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Combination;

    fn ladder() -> (Case, NodeId, NodeId) {
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
        (case, g, e1)
    }

    fn assert_bit_identical(session: &Incremental) {
        let fresh = session.case().propagate().unwrap();
        let live = session.report();
        for (id, _) in session.case().iter() {
            match (fresh.confidence(id), live.confidence(id)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.independent.to_bits(), b.independent.to_bits());
                    assert_eq!(a.worst_case.to_bits(), b.worst_case.to_bits());
                    assert_eq!(a.best_case.to_bits(), b.best_case.to_bits());
                }
                other => panic!("participation mismatch for {id:?}: {other:?}"),
            }
        }
        assert_eq!(session.case_hash(), session.case().content_hash());
    }

    #[test]
    fn initial_state_matches_full_propagation() {
        let (case, ..) = ladder();
        let session = Incremental::new(case).unwrap();
        assert_bit_identical(&session);
    }

    #[test]
    fn set_confidence_touches_only_the_spine() {
        let (case, _, e1) = ladder();
        let mut session = Incremental::new(case).unwrap();
        let stats = session.set_confidence(e1, 0.91).unwrap();
        // Spine is E1 → S → G.
        assert_eq!(stats.nodes_recomputed + stats.nodes_reused, 3);
        assert_bit_identical(&session);
    }

    #[test]
    fn undo_is_pure_reuse() {
        let (case, _, e1) = ladder();
        let mut session = Incremental::new(case).unwrap();
        session.set_confidence(e1, 0.5).unwrap();
        let back = session.set_confidence(e1, 0.9).unwrap();
        assert_eq!(back.nodes_recomputed, 0, "restoring a seen state recomputes nothing");
        assert_eq!(back.nodes_reused, 3);
        assert_bit_identical(&session);
    }

    #[test]
    fn add_leaf_extends_plan_and_values() {
        let (case, g, _) = ladder();
        let mut session = Incremental::new(case).unwrap();
        let (id, _) = session.add_leaf(g, "E9", "audit", LeafKind::Evidence, 0.8).unwrap();
        assert!(session.confidence(id).is_some());
        assert_eq!(session.plan().leaf_count(), 4);
        assert_bit_identical(&session);
        // Invalid parents leave the session (and its case) untouched.
        let n = session.case().len();
        assert!(session.add_leaf(id, "E10", "x", LeafKind::Assumption, 0.5).is_err());
        assert!(session.add_leaf(g, "E9", "dup", LeafKind::Evidence, 0.5).is_err());
        assert_eq!(session.case().len(), n);
        assert_bit_identical(&session);
    }

    #[test]
    fn retarget_moves_support_and_stays_consistent() {
        let (case, g, _) = ladder();
        let mut session = Incremental::new(case).unwrap();
        let (e9, _) = session.add_leaf(g, "E9", "audit", LeafKind::Evidence, 0.6).unwrap();
        let s = session.case().node_by_name("S").unwrap();
        let e2 = session.case().node_by_name("E2").unwrap();
        // Point S's weaker leg at the shared audit evidence instead.
        let stats = session.retarget(s, e2, e9).unwrap();
        assert!(stats.nodes_recomputed + stats.nodes_reused >= 2);
        assert_bit_identical(&session);
        // An invalid retarget (E9 already supports G) errors and leaves
        // the session untouched.
        let a = session.case().node_by_name("A").unwrap();
        assert!(session.retarget(g, a, e9).is_err());
        assert_bit_identical(&session);
    }

    #[test]
    fn plan_stays_in_sync_with_recompile() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (case, _, e1) = ladder();
        let mut session = Incremental::new(case).unwrap();
        session.set_confidence(e1, 0.33).unwrap();
        let fresh = EvalPlan::compile(session.case()).unwrap();
        let run = |plan: &EvalPlan| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut buf = plan.new_buffer();
            (0..256)
                .map(|_| {
                    plan.evaluate(&mut rng, &mut buf);
                    buf.clone()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(session.plan()), run(&fresh));
    }
}
