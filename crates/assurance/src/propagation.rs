//! Confidence propagation through the argument graph.
//!
//! Each node ends up with a [`NodeConfidence`]: the point estimate under
//! independence plus the Fréchet–Hoeffding dependence interval. The
//! interval is the paper's warning made visible — "conservative values at
//! one stage of the analysis do not necessarily propagate through to
//! other stages", and unknown dependence between evidence items can
//! swallow most of the apparent confidence.
//!
//! Semantics (doubt `x = 1 − confidence`):
//!
//! - **AllOf** (conjunction): the claim fails if *any* support fails.
//!   Independent: `x = 1 − Π(1−xᵢ)`; bounds `max(xᵢ) ≤ x ≤ min(1, Σxᵢ)`.
//! - **AnyOf** (legs): the claim fails only if *all* legs fail.
//!   Independent: `x = Π xᵢ`; bounds `max(0, Σxᵢ − (k−1)) ≤ x ≤ min(xᵢ)`.
//! - A goal combines its supports **AllOf** unless it is supported by a
//!   single strategy, whose rule then applies to the strategy's children.
//! - Assumptions attached to a node combine conjunctively with its
//!   support result.

use crate::error::Result;
use crate::graph::{Case, Combination, NodeId};
use crate::ir::{CaseIr, IrKind};
use serde::{Deserialize, Serialize};

/// Confidence attributed to one node: a point estimate under independence
/// and the dependence interval around it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConfidence {
    /// Confidence assuming all doubt sources are independent.
    pub independent: f64,
    /// Confidence under the least favourable dependence.
    pub worst_case: f64,
    /// Confidence under the most favourable dependence.
    pub best_case: f64,
}

impl NodeConfidence {
    pub(crate) fn certain() -> Self {
        Self { independent: 1.0, worst_case: 1.0, best_case: 1.0 }
    }

    pub(crate) fn from_point(confidence: f64) -> Self {
        Self { independent: confidence, worst_case: confidence, best_case: confidence }
    }

    /// The doubt view (`1 − confidence`) of the independent estimate.
    #[must_use]
    pub fn independent_doubt(&self) -> f64 {
        1.0 - self.independent
    }

    /// Width of the dependence interval — how much unknown dependence
    /// between doubt sources matters for this node.
    #[must_use]
    pub fn dependence_spread(&self) -> f64 {
        self.best_case - self.worst_case
    }
}

/// The result of propagating a case: per-node confidence.
///
/// Stored densely by arena index (`None` for context nodes, which do
/// not participate), so cloning a report is a flat memcpy — the service
/// cache snapshots reports freely.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceReport {
    pub(crate) values: Vec<Option<NodeConfidence>>,
    pub(crate) roots: Vec<NodeId>,
}

impl ConfidenceReport {
    /// A report over `ir` with no values computed yet.
    pub(crate) fn empty(ir: &CaseIr) -> Self {
        let roots = ir.roots().iter().map(|&r| NodeId::from_index(r as usize)).collect();
        Self { values: vec![None; ir.len()], roots }
    }

    /// The confidence attributed to a node, if it participates in the
    /// argument (context nodes do not).
    #[must_use]
    pub fn confidence(&self, id: NodeId) -> Option<NodeConfidence> {
        *self.values.get(id.to_index())?
    }

    /// Number of arena slots the report covers (= node count of the
    /// propagated case).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the report covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The root goals of the case, paired with their confidence.
    #[must_use]
    pub fn root_confidences(&self) -> Vec<(NodeId, NodeConfidence)> {
        self.roots
            .iter()
            .map(|&r| (r, self.values[r.to_index()].expect("roots participate")))
            .collect()
    }

    /// The single top-level confidence when the case has exactly one
    /// root.
    #[must_use]
    pub fn top(&self) -> Option<NodeConfidence> {
        if self.roots.len() == 1 {
            self.confidence(self.roots[0])
        } else {
            None
        }
    }
}

/// The one evaluation kernel: node `i`'s confidence from its children's
/// values, streamed off the IR's CSR row with no allocation. Full
/// propagation, the incremental spine and the importance sweep all make
/// their floats here, so their answers are bit-identical.
///
/// With doubt `x = 1 − confidence`, the support (non-assumption
/// children) folds under the node's rule in child order: AllOf takes
/// `1 − Π(1 − xᵢ)`, `min(1, Σxᵢ)` and `max(xᵢ)` from 0; AnyOf takes
/// `Πxᵢ`, `min(xᵢ)` from +∞ and `max(0, Σxᵢ − (k − 1))`. Products start
/// at 1 and sums at −0.0, as `Iterator::product`/`sum` do. Assumptions
/// then conjoin (AllOf) over `[support doubt, assumption doubts…]`. The
/// three folds never read each other, so running them side by side in
/// one pass keeps each fold's operation sequence, and so every bit.
///
/// # Panics
///
/// Panics when a child of `i` has no value in `values` — callers must
/// evaluate in topological order.
pub(crate) fn eval_node(
    ir: &CaseIr,
    i: usize,
    values: &[Option<NodeConfidence>],
) -> NodeConfidence {
    let rule = match ir.kind(i) {
        IrKind::Evidence(c) | IrKind::Assumption(c) => return NodeConfidence::from_point(c),
        IrKind::Context => return NodeConfidence::certain(),
        IrKind::Goal => Combination::AllOf,
        IrKind::Strategy(rule) => rule,
    };
    let any_of = rule == Combination::AnyOf;
    let assumption = |c: &&u32| matches!(ir.kind(**c as usize), IrKind::Assumption(_));
    let value = |c: &u32| values[*c as usize].expect("children evaluated before parents");
    let (mut k, mut ind) = (0u32, 1.0);
    let (mut worst, mut best) = if any_of { (f64::INFINITY, -0.0) } else { (-0.0, 0.0) };
    for v in ir.children(i).iter().filter(|c| !assumption(c)).map(value) {
        k += 1;
        if any_of {
            ind *= 1.0 - v.independent;
            worst = f64::min(worst, 1.0 - v.worst_case);
            best += 1.0 - v.best_case;
        } else {
            ind *= 1.0 - (1.0 - v.independent);
            worst += 1.0 - v.worst_case;
            best = f64::max(best, 1.0 - v.best_case);
        }
    }
    (ind, worst, best) = match rule {
        // Only assumptions below: vacuous support.
        _ if k == 0 => (0.0, 0.0, 0.0),
        Combination::AllOf => (1.0 - ind, worst.min(1.0), best),
        Combination::AnyOf => (ind, worst, (best - (f64::from(k) - 1.0)).max(0.0)),
    };
    let mut conjoin = None;
    for v in ir.children(i).iter().filter(assumption).map(value) {
        let (p, s, m) =
            conjoin.get_or_insert((1.0 * (1.0 - ind), -0.0 + worst, f64::max(0.0, best)));
        *p *= 1.0 - (1.0 - v.independent);
        *s += 1.0 - v.worst_case;
        *m = f64::max(*m, 1.0 - v.best_case);
    }
    if let Some((p, s, m)) = conjoin {
        (ind, worst, best) = (1.0 - p, s.min(1.0), m);
    }
    NodeConfidence { independent: 1.0 - ind, worst_case: 1.0 - worst, best_case: 1.0 - best }
}

/// Re-evaluates `nodes` in place, in the order given (children before
/// parents). Context nodes keep no value. Full propagation passes the
/// whole topological order; the importance sweep passes one spine.
pub(crate) fn recompute(ir: &CaseIr, nodes: &[u32], values: &mut [Option<NodeConfidence>]) {
    for &n in nodes {
        let n = n as usize;
        if !matches!(ir.kind(n), IrKind::Context) {
            values[n] = Some(eval_node(ir, n, values));
        }
    }
}

/// Propagates confidence through a validated case.
///
/// # Errors
///
/// Structural errors from [`Case::validate`], or
/// [`crate::CaseError::InvalidStructure`] when a hand-edited save file
/// smuggled in a support cycle.
pub fn propagate(case: &Case) -> Result<ConfidenceReport> {
    case.validate()?;
    let ir = CaseIr::build(case)?;
    let mut report = ConfidenceReport::empty(&ir);
    recompute(&ir, ir.topo(), &mut report.values);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Case;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn single_evidence_passes_through() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "claim").unwrap();
        let e = case.add_evidence("E1", "test", 0.9).unwrap();
        case.support(g, e).unwrap();
        let r = case.propagate().unwrap();
        let c = r.confidence(g).unwrap();
        assert!(approx(c.independent, 0.9));
        assert!(approx(c.worst_case, 0.9));
        assert!(approx(c.best_case, 0.9));
    }

    #[test]
    fn conjunction_accumulates_doubt() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "claim").unwrap();
        let e1 = case.add_evidence("E1", "a", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.8).unwrap();
        case.support(g, e1).unwrap();
        case.support(g, e2).unwrap();
        let c = case.propagate().unwrap().confidence(g).unwrap();
        assert!(approx(c.independent, 0.72)); // 0.9 · 0.8
        assert!(approx(c.worst_case, 0.7)); // 1 − min(1, 0.1+0.2)
        assert!(approx(c.best_case, 0.8)); // 1 − max(0.1, 0.2)
        assert!(c.worst_case <= c.independent && c.independent <= c.best_case);
    }

    #[test]
    fn legs_multiply_doubt() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "claim").unwrap();
        let s = case.add_strategy("S1", "legs", Combination::AnyOf).unwrap();
        let e1 = case.add_evidence("E1", "a", 0.95).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.9).unwrap();
        case.support(g, s).unwrap();
        case.support(s, e1).unwrap();
        case.support(s, e2).unwrap();
        let c = case.propagate().unwrap().confidence(g).unwrap();
        assert!(approx(c.independent, 1.0 - 0.05 * 0.1));
        assert!(approx(c.worst_case, 0.95)); // stronger leg only
        assert!(approx(c.best_case, 1.0)); // doubts can be disjoint
    }

    #[test]
    fn assumption_is_a_conjunctive_floor() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "claim").unwrap();
        let s = case.add_strategy("S1", "legs", Combination::AnyOf).unwrap();
        let e1 = case.add_evidence("E1", "a", 0.99).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.99).unwrap();
        let a = case.add_assumption("A1", "shared requirements doc", 0.97).unwrap();
        case.support(g, s).unwrap();
        case.support(s, e1).unwrap();
        case.support(s, e2).unwrap();
        case.support(g, a).unwrap();
        let c = case.propagate().unwrap().confidence(g).unwrap();
        // The legs give 1 − 1e-4; the assumption caps everything at ~0.97.
        assert!(c.independent < 0.97 + 1e-9);
        assert!(c.best_case <= 0.97 + 1e-12);
    }

    #[test]
    fn deep_chain_composes() {
        let mut case = Case::new("t");
        let g1 = case.add_goal("G1", "top").unwrap();
        let g2 = case.add_goal("G2", "sub").unwrap();
        let e = case.add_evidence("E1", "x", 0.9).unwrap();
        case.support(g1, g2).unwrap();
        case.support(g2, e).unwrap();
        let r = case.propagate().unwrap();
        assert!(approx(r.confidence(g1).unwrap().independent, 0.9));
        assert!(approx(r.confidence(g2).unwrap().independent, 0.9));
    }

    #[test]
    fn diamond_shared_evidence_is_memoized_not_double_counted_per_path() {
        // E supports both G2 and G3, which conjoin under G1. With the
        // current (dependence-naive) independent estimate the shared
        // doubt is counted twice — exactly the subtlety the interval
        // captures: the true confidence (0.9) lies inside [worst, best].
        let mut case = Case::new("t");
        let g1 = case.add_goal("G1", "top").unwrap();
        let g2 = case.add_goal("G2", "a").unwrap();
        let g3 = case.add_goal("G3", "b").unwrap();
        let e = case.add_evidence("E1", "shared", 0.9).unwrap();
        case.support(g1, g2).unwrap();
        case.support(g1, g3).unwrap();
        case.support(g2, e).unwrap();
        case.support(g3, e).unwrap();
        let c = case.propagate().unwrap().confidence(g1).unwrap();
        assert!(approx(c.independent, 0.81));
        assert!(c.worst_case <= 0.9 && 0.9 <= c.best_case);
    }

    #[test]
    fn report_roots_and_top() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "claim").unwrap();
        let e = case.add_evidence("E1", "x", 0.75).unwrap();
        case.support(g, e).unwrap();
        let r = case.propagate().unwrap();
        assert_eq!(r.root_confidences().len(), 1);
        assert!(approx(r.top().unwrap().independent, 0.75));
    }

    #[test]
    fn two_roots_top_is_none() {
        let mut case = Case::new("t");
        let g1 = case.add_goal("G1", "a").unwrap();
        let g2 = case.add_goal("G2", "b").unwrap();
        let e1 = case.add_evidence("E1", "x", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "y", 0.9).unwrap();
        case.support(g1, e1).unwrap();
        case.support(g2, e2).unwrap();
        let r = case.propagate().unwrap();
        assert!(r.top().is_none());
        assert_eq!(r.root_confidences().len(), 2);
    }

    #[test]
    fn context_nodes_do_not_participate() {
        let mut case = Case::new("t");
        let g = case.add_goal("G1", "claim").unwrap();
        let e = case.add_evidence("E1", "x", 0.9).unwrap();
        let c = case.add_context("C1", "environment").unwrap();
        case.support(g, e).unwrap();
        let r = case.propagate().unwrap();
        assert!(r.confidence(c).is_none());
        assert!(r.confidence(g).is_some());
    }

    #[test]
    fn invalid_structure_propagation_fails() {
        let mut case = Case::new("t");
        case.add_goal("G1", "undeveloped").unwrap();
        assert!(case.propagate().is_err());
    }

    #[test]
    fn interval_orders_hold_on_random_shapes() {
        // A small structural sweep: for several hand-built shapes the
        // interval must bracket the independent estimate.
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let s1 = case.add_strategy("S1", "legs", Combination::AnyOf).unwrap();
        let s2 = case.add_strategy("S2", "conj", Combination::AllOf).unwrap();
        let e1 = case.add_evidence("E1", "", 0.7).unwrap();
        let e2 = case.add_evidence("E2", "", 0.85).unwrap();
        let e3 = case.add_evidence("E3", "", 0.6).unwrap();
        let e4 = case.add_evidence("E4", "", 0.99).unwrap();
        case.support(g, s1).unwrap();
        case.support(g, s2).unwrap();
        case.support(s1, e1).unwrap();
        case.support(s1, e2).unwrap();
        case.support(s2, e3).unwrap();
        case.support(s2, e4).unwrap();
        let r = case.propagate().unwrap();
        for (_, c) in r.root_confidences() {
            assert!(c.worst_case <= c.independent + 1e-12);
            assert!(c.independent <= c.best_case + 1e-12);
            assert!(c.dependence_spread() >= 0.0);
        }
    }
}
