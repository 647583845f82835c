//! Differential test for the importance sweep.
//!
//! `birnbaum_importance` probes leaves in sibling groups, several lanes
//! of one fold per spine node. Its answers must be bit-identical
//! (`f64::to_bits`) to the naive algorithm — clone the case, set the
//! leaf, propagate from scratch — for every leaf of every case, and
//! `Incremental::importance` must answer the same bits: random DAGs of up
//! to ~300 nodes with shared supporters, assumptions at several levels,
//! context nodes and both combination rules; the same DAGs widened with
//! what they rarely draw (a sibling group of 20–40 leaves, a leaf shared
//! by two parents, an orphan leaf, a node supported only by
//! assumptions, an AnyOf with one support child, an assumption that
//! supports a leaf); plus every fleet template.

use depcase_assurance::templates::{template, TEMPLATE_COUNT};
use depcase_assurance::{
    birnbaum_importance, Case, Combination, Incremental, LeafImportance, NodeId, NodeKind,
};
use proptest::prelude::*;

/// SplitMix64: the generator's only source of variation, so a case is a
/// pure function of `(seed, size)`.
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

/// A random single-root DAG of about `size` nodes. Interior nodes come
/// first and only support nodes with a higher index, so the graph is
/// acyclic by construction; every interior node below the root hangs
/// off an earlier one, so the root is unique; extra edges share
/// supporters between parents. Confidences include the exact 0 and 1.
fn random_case(seed: u64, size: usize) -> Case {
    let mut rng = seed;
    let mut case = Case::new("random");
    let interior = 1 + size / 3;
    let mut ids: Vec<NodeId> = Vec::with_capacity(size + 2);
    for i in 0..interior {
        let id = match (i, below(&mut rng, 3)) {
            (0, _) | (_, 0) => case.add_goal(format!("G{i}"), "claim"),
            (_, 1) => case.add_strategy(format!("S{i}"), "all", Combination::AllOf),
            _ => case.add_strategy(format!("S{i}"), "any", Combination::AnyOf),
        };
        ids.push(id.unwrap());
    }
    for i in interior..size.max(interior + 1) {
        let conf = match below(&mut rng, 10) {
            0 => 0.0,
            1 => 1.0,
            _ => (next(&mut rng) >> 11) as f64 / (1u64 << 53) as f64,
        };
        let id = if below(&mut rng, 4) == 0 {
            case.add_assumption(format!("A{i}"), "assumed", conf)
        } else {
            case.add_evidence(format!("E{i}"), "evidence", conf)
        };
        ids.push(id.unwrap());
    }
    // Context nodes sit in the arena but never evaluate.
    for c in 0..1 + below(&mut rng, 3) {
        case.add_context(format!("C{c}"), "context").unwrap();
    }
    let n = ids.len();
    for child in 1..n {
        let parent = below(&mut rng, child.min(interior));
        case.support(ids[parent], ids[child]).unwrap();
    }
    for _ in 0..n / 2 {
        let parent = below(&mut rng, interior);
        let child = parent + 1 + below(&mut rng, n - parent - 1);
        case.support(ids[parent], ids[child]).unwrap();
    }
    // Develop any interior node the draws left without support.
    for (parent, &id) in ids.iter().enumerate().take(interior) {
        if case.supporters(id).unwrap().is_empty() {
            let child = parent + 1 + below(&mut rng, n - parent - 1);
            case.support(id, ids[child]).unwrap();
        }
    }
    case
}

/// `case` with what [`random_case`] rarely draws, from a second stream
/// of `seed`: a sibling group wider than any lane block (20–40 leaves,
/// assumptions among them), a leaf shared by two distinct parents (when
/// the case has two interior nodes), an orphan evidence leaf, a goal
/// supported only by assumptions, an AnyOf with one support child and an
/// assumption that supports a leaf of its own.
fn widened(mut case: Case, seed: u64) -> Case {
    let mut rng = seed ^ 0x3c6e_f372_fe94_f82b;
    let interior: Vec<NodeId> = case
        .iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Goal | NodeKind::Strategy(_)))
        .map(|(id, _)| id)
        .collect();
    let pick = |rng: &mut u64| interior[below(rng, interior.len())];
    let conf = |rng: &mut u64| (next(rng) >> 11) as f64 / (1u64 << 53) as f64;
    let wide = pick(&mut rng);
    for k in 0..20 + below(&mut rng, 21) {
        let c = conf(&mut rng);
        let leaf = if below(&mut rng, 4) == 0 {
            case.add_assumption(format!("W{k}"), "assumed", c)
        } else {
            case.add_evidence(format!("W{k}"), "evidence", c)
        };
        case.support(wide, leaf.unwrap()).unwrap();
    }
    let shared = case.add_evidence("X_shared", "evidence", conf(&mut rng)).unwrap();
    let first = below(&mut rng, interior.len());
    case.support(interior[first], shared).unwrap();
    if interior.len() > 1 {
        // Any interior node but the first.
        let second = (first + 1 + below(&mut rng, interior.len() - 1)) % interior.len();
        case.support(interior[second], shared).unwrap();
    }
    case.add_evidence("X_orphan", "evidence", conf(&mut rng)).unwrap();
    let assumed = case.add_goal("X_assumed", "claim").unwrap();
    case.support(pick(&mut rng), assumed).unwrap();
    for k in 0..1 + below(&mut rng, 3) {
        let a = case.add_assumption(format!("X_a{k}"), "assumed", conf(&mut rng)).unwrap();
        case.support(assumed, a).unwrap();
    }
    let legs = case.add_strategy("X_legs", "any", Combination::AnyOf).unwrap();
    case.support(pick(&mut rng), legs).unwrap();
    let leg = case.add_evidence("X_leg", "evidence", conf(&mut rng)).unwrap();
    case.support(legs, leg).unwrap();
    let base = case.add_assumption("X_base", "assumed", conf(&mut rng)).unwrap();
    case.support(pick(&mut rng), base).unwrap();
    let on_base = case.add_evidence("X_on_base", "evidence", conf(&mut rng)).unwrap();
    case.support(base, on_base).unwrap();
    case
}

/// True when two rankings list the same leaves with the same bits.
fn same_bits(a: &[LeafImportance], b: &[LeafImportance]) -> bool {
    let bits = |l: &LeafImportance| {
        (l.node, l.name.clone(), [l.confidence, l.birnbaum, l.gain_if_certain].map(f64::to_bits))
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

/// Checks every leaf's `birnbaum` and `gain_if_certain` bits against
/// clone → `set_leaf_confidence` → `propagate`, and that
/// `Incremental::importance` answers the same ranking bit for bit.
fn matches_clone_and_propagate(case: &Case) -> Result<usize, String> {
    let root = case.roots()[0];
    let top = |c: &Case| c.propagate().unwrap().confidence(root).unwrap().independent;
    let base = top(case);
    let ranking = birnbaum_importance(case).map_err(|e| e.to_string())?;
    let session = Incremental::new(case.clone()).and_then(|s| s.importance());
    if !same_bits(&ranking, &session.map_err(|e| e.to_string())?) {
        return Err("Incremental::importance differs from birnbaum_importance".into());
    }
    for leaf in &ranking {
        let probe = |conf: f64| {
            let mut copy = case.clone();
            copy.set_leaf_confidence(leaf.node, conf).unwrap();
            top(&copy)
        };
        let (hi, lo) = (probe(1.0), probe(0.0));
        if leaf.birnbaum.to_bits() != (hi - lo).to_bits() {
            return Err(format!("{}: birnbaum {} vs {}", leaf.name, leaf.birnbaum, hi - lo));
        }
        if leaf.gain_if_certain.to_bits() != (hi - base).to_bits() {
            return Err(format!("{}: gain {} vs {}", leaf.name, leaf.gain_if_certain, hi - base));
        }
    }
    let leaves = case
        .iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Evidence { .. } | NodeKind::Assumption { .. }))
        .count();
    if ranking.len() != leaves {
        return Err(format!("ranked {} of {leaves} leaves", ranking.len()));
    }
    Ok(leaves)
}

#[test]
fn every_template_matches_clone_and_propagate_bitwise() {
    for id in 0..TEMPLATE_COUNT {
        let leaves = matches_clone_and_propagate(&template(id)).unwrap();
        assert!(leaves > 0, "template {id} ranks no leaves");
    }
}

proptest! {
    // The naive oracle propagates the whole case twice per leaf; a debug
    // build runs a quarter of the release build's cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 100 } else { 400 }))]

    #[test]
    fn random_dags_match_clone_and_propagate_bitwise(
        seed in any::<u64>(),
        size in 2usize..300,
    ) {
        let case = random_case(seed, size);
        prop_assert!(case.validate().is_ok(), "generator built an invalid case");
        let checked = matches_clone_and_propagate(&case);
        prop_assert!(checked.is_ok(), "seed {seed}, size {size}: {:?}", checked.err());
        let wide = widened(case, seed);
        prop_assert!(wide.validate().is_ok(), "widening built an invalid case");
        let checked = matches_clone_and_propagate(&wide);
        prop_assert!(checked.is_ok(), "seed {seed}, size {size}, widened: {:?}", checked.err());
    }
}
