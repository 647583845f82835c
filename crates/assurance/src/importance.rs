//! Evidence-importance analysis: which leaf is worth strengthening?
//!
//! The ACARP principle needs a target for the next assurance activity.
//! [`birnbaum_importance`] computes, for every leaf, the sensitivity of
//! the root's (independence-estimate) confidence to that leaf's
//! confidence — the classic Birnbaum importance measure, evaluated by
//! finite differencing the propagation. [`improvement_value`] reports
//! the absolute gain from driving one leaf to certainty.
//! The case is propagated once; each leaf then costs O(spine): its
//! ancestor spine is re-evaluated at 1 and at 0 on the values buffer
//! and restored. A node's value depends only on its children's, so
//! each probe is bit-identical to clone, set leaf, propagate.

use crate::error::{CaseError, Result};
use crate::graph::{Case, NodeId};
use crate::ir::{CaseIr, Spine};
use crate::propagation::{recompute, NodeConfidence};

/// One leaf's importance figures.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafImportance {
    /// The leaf node.
    pub node: NodeId,
    /// The leaf's reference label.
    pub name: String,
    /// The leaf's current confidence.
    pub confidence: f64,
    /// Birnbaum importance: ∂(root confidence)/∂(leaf confidence).
    pub birnbaum: f64,
    /// Root-confidence gain from making this leaf certain (confidence 1).
    pub gain_if_certain: f64,
}

/// Computes Birnbaum importance and improvement value for every evidence
/// and assumption leaf, sorted most-important first.
///
/// Requires the case to have a single root goal.
///
/// # Errors
///
/// Structural errors from propagation, or
/// [`crate::CaseError::InvalidStructure`] when there is not exactly one
/// root.
///
/// # Examples
///
/// ```
/// use depcase_assurance::{importance::birnbaum_importance, Case};
///
/// let mut case = Case::new("t");
/// let g = case.add_goal("G", "claim")?;
/// let strong = case.add_evidence("E1", "solid test campaign", 0.99)?;
/// let weak = case.add_evidence("E2", "sketchy review", 0.70)?;
/// case.support(g, strong)?;
/// case.support(g, weak)?;
/// let ranking = birnbaum_importance(&case)?;
/// // The weak leaf is the one to fix:
/// assert_eq!(ranking[0].name, "E2");
/// assert!(ranking[0].gain_if_certain > ranking[1].gain_if_certain);
/// # Ok::<(), depcase_assurance::CaseError>(())
/// ```
pub fn birnbaum_importance(case: &Case) -> Result<Vec<LeafImportance>> {
    one_root(case.roots().len())?;
    case.validate()?;
    let ir = CaseIr::build(case)?;
    let mut values = vec![None; ir.len()];
    recompute(&ir, ir.topo(), &mut values);
    Ok(sweep(case, &ir, values))
}

/// Importance analysis needs exactly one root goal.
pub(crate) fn one_root(roots: usize) -> Result<()> {
    let message = || format!("importance analysis needs exactly one root goal, found {roots}");
    (roots == 1).then_some(()).ok_or_else(|| CaseError::InvalidStructure(message()))
}

/// The per-leaf spine loop over a single-rooted case's lowered `ir` and
/// its propagated `values` — what [`birnbaum_importance`] and
/// [`crate::Incremental::importance`] share.
pub(crate) fn sweep(
    case: &Case,
    ir: &CaseIr,
    mut values: Vec<Option<NodeConfidence>>,
) -> Vec<LeafImportance> {
    let root = ir.roots()[0] as usize;
    let base = values[root].expect("the root participates").independent;
    let mut out = Vec::with_capacity((0..ir.len()).filter(|&i| ir.kind(i).is_leaf()).count());
    let (mut scratch, mut saved) = (Spine::default(), Vec::new());
    for i in 0..ir.len() {
        let Some(conf) = ir.kind(i).confidence() else { continue };
        let spine = ir.dirty_spine(i, &mut scratch);
        saved.clear();
        saved.extend(spine.iter().map(|&n| values[n as usize]));
        // Birnbaum importance for coherent structures: the root
        // confidence is multilinear in each leaf, so the exact partial
        // derivative is the secant slope between leaf = 0 and leaf = 1.
        let mut probe = |c| {
            values[i] = Some(NodeConfidence::from_point(c));
            recompute(ir, &spine[1..], &mut values);
            values[root].expect("the root participates").independent
        };
        let (hi, lo) = (probe(1.0), probe(0.0));
        for (&n, &v) in spine.iter().zip(&saved) {
            values[n as usize] = v;
        }
        out.push(LeafImportance {
            node: NodeId::from_index(i),
            name: case.node_at(i).name.clone(),
            confidence: conf,
            birnbaum: hi - lo,
            gain_if_certain: hi - base,
        });
    }
    out.sort_by(|a, b| {
        b.gain_if_certain
            .partial_cmp(&a.gain_if_certain)
            .expect("finite gains")
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// The single best leaf to improve: largest root-confidence gain when
/// driven to certainty. Returns `None` when the case has no leaves.
///
/// # Errors
///
/// Same conditions as [`birnbaum_importance`].
pub fn improvement_value(case: &Case) -> Result<Option<LeafImportance>> {
    Ok(birnbaum_importance(case)?.into_iter().next())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Combination;

    fn two_leaf_case(c1: f64, c2: f64) -> Case {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e1 = case.add_evidence("E1", "a", c1).unwrap();
        let e2 = case.add_evidence("E2", "b", c2).unwrap();
        case.support(g, e1).unwrap();
        case.support(g, e2).unwrap();
        case
    }

    #[test]
    fn conjunction_importance_is_partner_confidence() {
        // Root = c1·c2 ⇒ ∂/∂c1 = c2.
        let case = two_leaf_case(0.9, 0.7);
        let ranking = birnbaum_importance(&case).unwrap();
        let e1 = ranking.iter().find(|l| l.name == "E1").unwrap();
        let e2 = ranking.iter().find(|l| l.name == "E2").unwrap();
        assert!((e1.birnbaum - 0.7).abs() < 1e-12);
        assert!((e2.birnbaum - 0.9).abs() < 1e-12);
    }

    #[test]
    fn weak_leaf_ranks_first_in_conjunction() {
        let case = two_leaf_case(0.99, 0.6);
        let ranking = birnbaum_importance(&case).unwrap();
        assert_eq!(ranking[0].name, "E2");
        // gain for E2 = 0.99·1 − 0.99·0.6.
        assert!((ranking[0].gain_if_certain - (0.99 - 0.99 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn disjunction_importance_is_partner_doubt() {
        // Root = 1 − x1·x2 ⇒ ∂root/∂c1 = x2.
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let s = case.add_strategy("S", "legs", Combination::AnyOf).unwrap();
        let e1 = case.add_evidence("E1", "a", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.7).unwrap();
        case.support(g, s).unwrap();
        case.support(s, e1).unwrap();
        case.support(s, e2).unwrap();
        let ranking = birnbaum_importance(&case).unwrap();
        let e1i = ranking.iter().find(|l| l.name == "E1").unwrap();
        let e2i = ranking.iter().find(|l| l.name == "E2").unwrap();
        assert!((e1i.birnbaum - 0.3).abs() < 1e-12, "{}", e1i.birnbaum);
        assert!((e2i.birnbaum - 0.1).abs() < 1e-12, "{}", e2i.birnbaum);
        // In a redundant structure, improving the *stronger* leg matters
        // more (it alone must not fail).
        assert_eq!(ranking[0].name, "E1");
    }

    #[test]
    fn assumptions_rank_too() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e = case.add_evidence("E1", "a", 0.99).unwrap();
        let a = case.add_assumption("A1", "env", 0.8).unwrap();
        case.support(g, e).unwrap();
        case.support(g, a).unwrap();
        let ranking = birnbaum_importance(&case).unwrap();
        assert_eq!(ranking[0].name, "A1");
    }

    #[test]
    fn certain_leaf_has_zero_gain() {
        let case = two_leaf_case(1.0, 0.5);
        let ranking = birnbaum_importance(&case).unwrap();
        let e1 = ranking.iter().find(|l| l.name == "E1").unwrap();
        assert!(e1.gain_if_certain.abs() < 1e-12);
    }

    #[test]
    fn improvement_value_returns_top() {
        let case = two_leaf_case(0.95, 0.5);
        let top = improvement_value(&case).unwrap().unwrap();
        assert_eq!(top.name, "E2");
    }

    #[test]
    fn matches_naive_clone_and_propagate_bitwise() {
        // The incremental path must reproduce the pre-IR algorithm
        // (clone, set leaf, full propagate) to the exact bit.
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
        let base = case.propagate().unwrap().confidence(g).unwrap().independent;
        for l in birnbaum_importance(&case).unwrap() {
            let probe = |conf: f64| {
                let mut copy = case.clone();
                copy.set_leaf_confidence(l.node, conf).unwrap();
                copy.propagate().unwrap().confidence(g).unwrap().independent
            };
            let (hi, lo) = (probe(1.0), probe(0.0));
            assert_eq!(l.birnbaum.to_bits(), (hi - lo).to_bits(), "{}", l.name);
            assert_eq!(l.gain_if_certain.to_bits(), (hi - base).to_bits(), "{}", l.name);
        }
    }

    #[test]
    fn multi_root_rejected() {
        let mut case = Case::new("t");
        let g1 = case.add_goal("G1", "a").unwrap();
        let g2 = case.add_goal("G2", "b").unwrap();
        let e1 = case.add_evidence("E1", "x", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "y", 0.9).unwrap();
        case.support(g1, e1).unwrap();
        case.support(g2, e2).unwrap();
        assert!(birnbaum_importance(&case).is_err());
    }
}
