//! Golden analytic bits: what `propagate`, `EvalPlan::propagate_batch`
//! and both importance entry points answer, recorded once and pinned
//! here, so a change to how the combine fold is written, laned or
//! scheduled must keep every bit of every answer.
//!
//! Each case folds into three FNV-1a digests of `to_bits`: every node's
//! three fields under `propagate`; the same for each lane of a 16-lane
//! `propagate_batch` over re-elicited copies of the case; and every
//! ranked leaf of `birnbaum_importance` (which `Incremental::importance`
//! must answer identically), in ranking order. The cases are the ten
//! templates, eight generated trees of 256–4,096 nodes (depth up to
//! 12, fan-out up to 16) and two generated DAGs with shared leaves.

use depcase_assurance::templates::{template, TEMPLATE_COUNT};
use depcase_assurance::{
    birnbaum_importance, Case, Combination, ConfidenceReport, EvalPlan, Incremental,
    LeafImportance, NodeId, NodeKind,
};

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

/// A confidence with the exact 0 and 1 among the draws.
fn confidence(state: &mut u64) -> f64 {
    match below(state, 16) {
        0 => 0.0,
        1 => 1.0,
        _ => (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64,
    }
}

/// A seeded single-root argument of `nodes` nodes whose interior reaches
/// `depth` levels, with at most `fanout` supporters per node: goals and
/// both strategy rules inside, evidence and assumptions at the leaves.
/// With `shared`, a sixteenth of the leaves also support a second
/// interior node, one evidence leaf supports nothing, one node is
/// supported by assumptions only and one assumption supports a leaf.
fn generated(seed: u64, nodes: usize, depth: usize, fanout: usize, shared: bool) -> Case {
    let mut rng = seed;
    let mut case = Case::new("generated");
    let root = case.add_goal("G", "top").unwrap();
    // (node, depth, supporters so far) of every interior node.
    let mut interior = vec![(root, 0usize, 0usize)];
    let mut leaves = Vec::new();
    // Per mille of new supporters that are interior (always, while few
    // nodes are open): enough to keep a narrow tree growing, few enough
    // to leave a wide one bushy.
    let p_interior = (1500 / fanout + 100).min(900);
    for count in 1..nodes {
        let open: Vec<usize> = (0..interior.len()).filter(|&p| interior[p].2 < fanout).collect();
        if open.is_empty() {
            break;
        }
        let p = open[below(&mut rng, open.len())];
        let (parent, d, _) = interior[p];
        let name = format!("N{count}");
        let grow = open.len() < 8 || below(&mut rng, 1000) < p_interior;
        let child = if d + 1 < depth && grow {
            let id = match below(&mut rng, 3) {
                0 => case.add_goal(name, "g"),
                1 => case.add_strategy(name, "s", Combination::AnyOf),
                _ => case.add_strategy(name, "s", Combination::AllOf),
            }
            .unwrap();
            interior.push((id, d + 1, 0));
            id
        } else {
            let c = confidence(&mut rng);
            let id = if below(&mut rng, 8) == 0 {
                case.add_assumption(name, "a", c).unwrap()
            } else {
                case.add_evidence(name, "e", c).unwrap()
            };
            leaves.push(id);
            id
        };
        case.support(parent, child).unwrap();
        interior[p].2 += 1;
    }
    // Develop every interior node the draws left without support.
    for (node, _, supporters) in interior.iter_mut().filter(|(_, _, s)| *s == 0) {
        let c = confidence(&mut rng);
        let id = case.add_evidence(format!("N{}", case.len()), "e", c).unwrap();
        case.support(*node, id).unwrap();
        *supporters += 1;
    }
    if shared {
        for &leaf in leaves.iter().step_by(16) {
            let other = interior[below(&mut rng, interior.len())].0;
            let _ = case.support(other, leaf);
        }
        let orphan = case.add_evidence("orphan", "e", 0.5).unwrap();
        assert!(case.supporters(orphan).unwrap().is_empty());
        let assumed = case.add_goal("assumed", "g").unwrap();
        for k in 0..3 {
            let a = case.add_assumption(format!("assumed{k}"), "a", confidence(&mut rng)).unwrap();
            case.support(assumed, a).unwrap();
        }
        case.support(interior[interior.len() - 1].0, assumed).unwrap();
        let base = case.add_assumption("base", "a", confidence(&mut rng)).unwrap();
        case.support(interior[interior.len() / 2].0, base).unwrap();
        let on_base = case.add_evidence("on_base", "e", confidence(&mut rng)).unwrap();
        case.support(base, on_base).unwrap();
    }
    assert!(case.validate().is_ok());
    assert_eq!(case.roots().len(), 1);
    case
}

/// Every case the digests cover, each with its recorded
/// `[propagate, batch, importance]` digests.
fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = (0..TEMPLATE_COUNT).map(template).collect();
    let shapes = [
        (256, 4, 8),
        (384, 5, 6),
        (512, 6, 4),
        (768, 8, 3),
        (1024, 10, 2),
        (1536, 7, 5),
        (2048, 12, 2),
        (4096, 6, 16),
    ];
    for (k, &(nodes, depth, fanout)) in shapes.iter().enumerate() {
        out.push(generated(0x901d_0000 + k as u64, nodes, depth, fanout, false));
    }
    out.push(generated(0xda90_0001, 300, 6, 12, true));
    out.push(generated(0xda90_0002, 1200, 9, 40, true));
    out
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn report(&mut self, case: &Case, report: &ConfidenceReport) {
        for (id, _) in case.iter() {
            match report.confidence(id) {
                Some(c) => {
                    self.u64(c.independent.to_bits());
                    self.u64(c.worst_case.to_bits());
                    self.u64(c.best_case.to_bits());
                }
                None => self.u64(u64::MAX),
            }
        }
    }

    fn ranking(&mut self, case: &Case, ranking: &[LeafImportance]) {
        for leaf in ranking {
            self.u64(case.iter().position(|(id, _)| id == leaf.node).unwrap() as u64);
            self.u64(leaf.confidence.to_bits());
            self.u64(leaf.birnbaum.to_bits());
            self.u64(leaf.gain_if_certain.to_bits());
        }
    }
}

fn digests(case: &Case) -> [u64; 3] {
    let mut scalar = Fnv::new();
    scalar.report(case, &case.propagate().unwrap());

    // Sixteen re-elicited copies: lane 0 is the case itself.
    let leaves: Vec<NodeId> = case
        .iter()
        .filter(|(_, n)| matches!(n.kind, NodeKind::Evidence { .. } | NodeKind::Assumption { .. }))
        .map(|(id, _)| id)
        .collect();
    let mut rng = case.content_hash();
    let lanes: Vec<Case> = (0..16)
        .map(|lane| {
            let mut copy = case.clone();
            for &leaf in &leaves {
                if lane > 0 && below(&mut rng, 2) == 0 {
                    copy.set_leaf_confidence(leaf, confidence(&mut rng)).unwrap();
                }
            }
            copy
        })
        .collect();
    let plans: Vec<EvalPlan> = lanes.iter().map(|c| EvalPlan::compile(c).unwrap()).collect();
    let refs: Vec<&EvalPlan> = plans.iter().collect();
    let mut batch = Fnv::new();
    for (copy, report) in lanes.iter().zip(EvalPlan::propagate_batch(&refs).unwrap()) {
        batch.report(copy, &report);
    }

    let ranking = birnbaum_importance(case).unwrap();
    let session = Incremental::new(case.clone()).unwrap().importance().unwrap();
    let mut importance = Fnv::new();
    importance.ranking(case, &ranking);
    let mut incremental = Fnv::new();
    incremental.ranking(case, &session);
    assert_eq!(importance.0, incremental.0, "the two importance entry points differ");
    [scalar.0, batch.0, importance.0]
}

#[test]
fn analytic_answers_match_the_recorded_bits() {
    // Recorded before the combine fold was laned.
    let golden: [[u64; 3]; 20] = [
        [0xa15d_6e4b_3012_2aac, 0xc21b_b483_a811_f76a, 0x1035_97ae_2617_6edf],
        [0xb8f9_2677_0728_322f, 0xf543_7f09_c9d7_eb69, 0x68b0_b884_5837_19fb],
        [0x7710_87fb_36dd_9072, 0xcda6_5106_43e8_43de, 0x1a61_2164_9abd_4c76],
        [0x5901_d73c_907e_68c0, 0xd60d_c8c7_e90a_b38d, 0xa0a4_ef35_9cfb_0f0e],
        [0x02e1_4fa7_549b_7ee7, 0x702d_97c9_caa2_71e6, 0xda81_4a4b_ab00_933a],
        [0xba55_b992_4ed8_cfc3, 0x4050_343e_0de8_efdf, 0xf201_3a87_50c3_d2cc],
        [0x06cb_2bcc_63f9_91f1, 0xd1f1_2787_4a6f_aa80, 0x8b6d_47bb_09fa_9530],
        [0xc7e0_bcfd_db5b_d6c4, 0x27a2_bae6_1869_6068, 0x91e6_39f4_bb84_319b],
        [0x17bb_60b8_dc8a_7180, 0x70be_4f7c_e1c8_80b9, 0x06ab_18a1_94bd_e47c],
        [0xda99_ebaf_a466_5c70, 0x4229_7998_f812_840a, 0xa35c_4d7e_bdb8_f668],
        [0x8939_6c1e_8a71_171c, 0x825a_6466_e47a_8b27, 0x8dc9_ffcf_1deb_dbb1],
        [0x2033_42ae_22e4_0714, 0x8fb1_1cf6_9616_a246, 0xe88c_316d_93f1_f9b0],
        [0xebf3_6710_605f_73e3, 0xee42_8dd2_1d29_9777, 0xc2d7_d02d_6521_7a94],
        [0x472d_078b_ebe3_f2b5, 0x6728_19f7_b208_15ef, 0x04de_e914_c953_a729],
        [0x20b4_67c5_36be_21bb, 0x8e0e_5e5f_4307_a4e0, 0xbb3e_822e_574e_32b1],
        [0xb09b_ec3c_8c7d_3375, 0x7990_e127_b2d0_4b16, 0xa62e_adf5_2492_fffe],
        [0x7169_e4f1_80a2_6dc9, 0x116b_6bb1_d09f_9da1, 0x7602_97dd_54ba_ab10],
        [0xcd02_c9be_019f_24ad, 0xd636_6a40_eb82_b74b, 0xd910_fcca_5bfb_3206],
        [0x218c_be52_5d0c_322e, 0x4432_cb30_a107_1c2e, 0x7e5f_79d5_b87e_e01a],
        [0xf20f_cdb0_478f_fcf6, 0x9473_b947_8a54_7598, 0x1545_dbb0_8b44_c9de],
    ];
    let mut failures = Vec::new();
    for (k, (case, want)) in cases().iter().zip(&golden).enumerate() {
        let got = digests(case);
        if got != *want {
            let [a, b, c] = got;
            failures.push(format!(
                "case {k} ({} nodes): [{a:#018x}, {b:#018x}, {c:#018x}]",
                case.len()
            ));
        }
    }
    assert!(failures.is_empty(), "digests differ:\n{}", failures.join("\n"));
}
