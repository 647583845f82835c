//! Evidence-importance analysis: which leaf is worth strengthening?
//!
//! The ACARP principle needs a target for the next assurance activity.
//! [`birnbaum_importance`] computes, for every leaf, the sensitivity of
//! the root's (independence-estimate) confidence to that leaf's
//! confidence — the classic Birnbaum importance measure, evaluated by
//! finite differencing the propagation. [`improvement_value`] reports
//! the absolute gain from driving one leaf to certainty.
//! The case is propagated once; then each group of sibling leaves costs
//! one walk up its spine in a few lanes of one fold (see [`sweep`]), bit
//! for bit what clone, set leaf, propagate answers.

use crate::error::{CaseError, Result};
use crate::graph::{Case, NodeId};
use crate::ir::{CaseIr, Spine};
use crate::propagation::{fold_ir, recompute, Lanes, NodeConfidence};

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
    Ok(sweep(case, &ir, &values))
}

/// Importance analysis needs exactly one root goal.
pub(crate) fn one_root(roots: usize) -> Result<()> {
    let message = || format!("importance analysis needs exactly one root goal, found {roots}");
    (roots == 1).then_some(()).ok_or_else(|| CaseError::InvalidStructure(message()))
}

/// Every leaf's figures over a single-rooted case's lowered `ir` and its
/// propagated `values`, most important first: what
/// [`birnbaum_importance`] and [`crate::Incremental::importance`] share.
///
/// The root confidence is multilinear in each leaf, so the secant slope
/// between leaf = 0 and leaf = 1 is the exact derivative. A group of
/// leaves shares one walk up one spine: the leaves whose only parent is
/// `P` walk `P`'s dirty spine, and a leaf with several parents or none
/// walks alone. A group of `m` runs the independence fold (all the root
/// is read for) in `2m` lanes, leaf `j` at 1 in lane `2j` and at 0 in
/// `2j + 1`, a row of lanes per spine node: a spine child reads its row,
/// a probed leaf its probe, any other child its value in every lane. So
/// each lane makes the operations of setting its leaf and re-evaluating
/// the spine.
pub(crate) fn sweep(
    case: &Case,
    ir: &CaseIr,
    values: &[Option<NodeConfidence>],
) -> Vec<LeafImportance> {
    // `mark[n]`: spine node `n`'s row, or `PROBE | j` for probed leaf `j`.
    const OFF: u32 = u32::MAX;
    const PROBE: u32 = 1 << 31;
    let root = ir.roots()[0] as usize;
    let value = |n: u32| values[n as usize].expect("children evaluated before parents");
    let base = value(root as u32).independent;
    let name = |n: u32| &case.node_at(n as usize).name;
    let mut mark = vec![OFF; ir.len()];
    let mut probes = Vec::with_capacity((0..ir.len()).filter(|&i| ir.kind(i).is_leaf()).count());
    let (mut rows, mut scratch) = (Vec::new(), Spine::default());
    for (n, alone) in (0..ir.len() as u32).flat_map(|n| [(n, false), (n, true)]) {
        let group = if alone { std::slice::from_ref(&n) } else { ir.children(n as usize) };
        let mut m = 0;
        for &c in group {
            if ir.kind(c as usize).is_leaf() && (ir.parents(c as usize).len() == 1) != alone {
                mark[c as usize] = PROBE | m;
                m += 1;
            }
        }
        if m == 0 {
            continue;
        }
        let spine = &ir.dirty_spine(n as usize, &mut scratch)[usize::from(alone)..];
        let w = 2 * m as usize;
        spine.iter().zip(0..).for_each(|(&s, k)| mark[s as usize] = k);
        rows.resize(spine.len() * w, 0.0);
        for (k, &s) in spine.iter().enumerate() {
            let (done, row) = rows.split_at_mut(k * w);
            let lanes = |c: u32| match mark[c as usize] {
                OFF => Lanes::Splat(value(c)),
                j if j & PROBE != 0 => Lanes::Probe(value(c).independent, 2 * (j ^ PROBE) as usize),
                k => Lanes::Rows([&done[k as usize * w..][..w], &[], &[]]),
            };
            fold_ir(ir, s as usize, lanes, [&mut row[..w], &mut [], &mut []]);
        }
        let top = (mark[root] != OFF).then(|| &rows[mark[root] as usize * w..][..w]);
        for &c in group {
            let j = std::mem::replace(&mut mark[c as usize], OFF);
            if j != OFF {
                let l = 2 * (j ^ PROBE) as usize;
                let (hi, lo) = top.map_or((base, base), |t| (t[l], t[l + 1]));
                probes.push((hi - base, c, hi - lo));
            }
        }
        spine.iter().for_each(|&s| mark[s as usize] = OFF);
    }
    // Names are unique, so (gain descending, name) is a strict order.
    probes.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0).expect("finite gains").then_with(|| name(a.1).cmp(name(b.1)))
    });
    probes
        .into_iter()
        .map(|(gain_if_certain, n, birnbaum)| LeafImportance {
            node: NodeId::from_index(n as usize),
            name: name(n).clone(),
            confidence: ir.kind(n as usize).confidence().expect("probed nodes are leaves"),
            birnbaum,
            gain_if_certain,
        })
        .collect()
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
