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

/// One child's confidence in every lane of a [`fold`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lanes<'a> {
    /// The same value in every lane.
    Splat(NodeConfidence),
    /// Rows of `[independent, worst_case, best_case]`, lane `l` at `l`.
    Rows([&'a [f64]; 3]),
    /// `Probe(c, l)`: a leaf of confidence `c`, 1 in lane `l`, 0 in `l + 1`.
    Probe(f64, usize),
}

/// The one combine kernel: a node's confidence from its children's, in
/// `W` lanes at once (the length of `out`'s rows), with no allocation.
/// Propagation and the incremental spine run it at `W = 1`, the batch at
/// the batch size and the importance sweep at twice the leaves under one
/// parent, so all their answers are bit-identical.
///
/// With doubt `x = 1 − confidence`, the `support` folds under `rule` in
/// order: AllOf takes `1 − Π(1 − xᵢ)`, `min(1, Σxᵢ)` and `max(xᵢ)` from
/// 0; AnyOf takes `Πxᵢ`, `min(xᵢ)` from +∞ and `max(0, Σxᵢ − (k − 1))`.
/// Products start at 1 and sums at −0.0, as `Iterator::product`/`sum`
/// do. The `assumptions` then conjoin (AllOf) over `[support doubt,
/// assumption doubts…]`. Child-outer and lane-inner, each lane makes the
/// scalar operations in the scalar order while the lane loops vectorize.
/// The three folds never read each other, so an empty row of `out` skips
/// its field: the importance sweep passes only the independence row.
#[inline(always)]
pub(crate) fn fold<'a>(
    rule: Combination,
    support: impl Iterator<Item = u32>,
    assumptions: impl Iterator<Item = u32>,
    child: impl Fn(u32) -> Lanes<'a>,
    [ind, worst, best]: [&mut [f64]; 3],
) {
    let any_of = rule == Combination::AnyOf;
    ind.fill(1.0);
    worst.fill(if any_of { f64::INFINITY } else { -0.0 });
    best.fill(if any_of { -0.0 } else { 0.0 });
    let mut k = 0u32;
    for v in support.map(&child) {
        k += 1;
        if any_of {
            each(ind, v, 0, |a, x| *a *= 1.0 - x);
            each(worst, v, 1, |a, x| *a = f64::min(*a, 1.0 - x));
            each(best, v, 2, |a, x| *a += 1.0 - x);
        } else {
            conjoin([ind, worst, best], v);
        }
    }
    let k = f64::from(k);
    if k == 0.0 {
        // Only assumptions below: vacuous support.
        [&mut *ind, &mut *worst, &mut *best].into_iter().for_each(|row| row.fill(0.0));
    } else if any_of {
        map(best, |a| (a - (k - 1.0)).max(0.0));
    } else {
        map(ind, |a| 1.0 - a);
        map(worst, |a| a.min(1.0));
    }
    let mut assumptions = assumptions.map(&child).peekable();
    if assumptions.peek().is_some() {
        map(ind, |a| 1.0 * (1.0 - a));
        map(worst, |a| -0.0 + a);
        map(best, |a| f64::max(0.0, a));
        assumptions.for_each(|v| conjoin([ind, worst, best], v));
        map(ind, |a| 1.0 - a);
        map(worst, |a| a.min(1.0));
    }
    [ind, worst, best].into_iter().for_each(|row| map(row, |a| 1.0 - a));
}

/// One conjunctive (AllOf) step of `v`'s doubts into the accumulators.
#[inline(always)]
fn conjoin([ind, worst, best]: [&mut [f64]; 3], v: Lanes<'_>) {
    each(ind, v, 0, |a, x| *a *= 1.0 - (1.0 - x));
    each(worst, v, 1, |a, x| *a += 1.0 - x);
    each(best, v, 2, |a, x| *a = f64::max(*a, 1.0 - x));
}

/// `op(lane, x)` in every lane of `acc`, `x` being the lane's `field` of
/// `v` (0 independent, 1 worst case, 2 best case).
#[inline(always)]
fn each(acc: &mut [f64], v: Lanes<'_>, field: usize, op: impl Fn(&mut f64, f64)) {
    match v {
        _ if acc.is_empty() => {}
        Lanes::Splat(c) => {
            let x = [c.independent, c.worst_case, c.best_case][field];
            acc.iter_mut().for_each(|a| op(a, x));
        }
        Lanes::Rows(rows) => acc.iter_mut().zip(rows[field]).for_each(|(a, &x)| op(a, x)),
        Lanes::Probe(c, l) => {
            let (head, tail) = acc.split_at_mut(l);
            head.iter_mut().for_each(|a| op(a, c));
            op(&mut tail[0], 1.0);
            op(&mut tail[1], 0.0);
            tail[2..].iter_mut().for_each(|a| op(a, c));
        }
    }
}

#[inline(always)]
fn map(row: &mut [f64], f: impl Fn(f64) -> f64) {
    row.iter_mut().for_each(|a| *a = f(*a));
}

/// [`fold`] over the children of IR node `i`. A leaf is its own point
/// value, supported or not; a context node has no children, so it folds
/// to certain.
#[inline(always)]
pub(crate) fn fold_ir<'a>(
    ir: &CaseIr,
    i: usize,
    child: impl Fn(u32) -> Lanes<'a>,
    out: [&mut [f64]; 3],
) {
    if let Some(c) = ir.kind(i).confidence() {
        return out.into_iter().for_each(|row| row.fill(c));
    }
    let rule = if let IrKind::Strategy(rule) = ir.kind(i) { rule } else { Combination::AllOf };
    let assumption = |c: &u32| matches!(ir.kind(*c as usize), IrKind::Assumption(_));
    let children = ir.children(i).iter().copied();
    let support = children.clone().filter(|c| !assumption(c));
    fold(rule, support, children.filter(assumption), child, out);
}

/// Node `i`'s confidence: [`fold_ir`] at `W = 1` over its children's
/// `values`.
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
    let value =
        |c: u32| Lanes::Splat(values[c as usize].expect("children evaluated before parents"));
    let [mut ind, mut worst, mut best] = [[0.0]; 3];
    fold_ir(ir, i, value, [&mut ind, &mut worst, &mut best]);
    NodeConfidence { independent: ind[0], worst_case: worst[0], best_case: best[0] }
}

/// Re-evaluates `nodes` in place, in the order given (children before
/// parents, as the topological order is). Context nodes keep no value.
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
