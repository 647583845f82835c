//! Golden Monte-Carlo bits: the estimates `MonteCarlo::run_plan`
//! answers for fixed seeds, recorded once and pinned here, so a change
//! to how chunks are scheduled, split across lanes or sampled must keep
//! every bit of every estimate.
//!
//! Each run's estimates are folded into one FNV-1a digest of their
//! `to_bits`, in target order, and every run is made at one and two
//! worker threads.

use depcase_assurance::monte_carlo::CHUNK_SAMPLES;
use depcase_assurance::{templates, Case, Combination, EvalPlan, MonteCarlo, NodeId};

/// Sample counts straddling the 64-sample group, the chunk, a claim of
/// several chunks with a short tail, and runs of full claims: exactly
/// eight chunks, sixteen chunks and one sample, and 100,000 samples.
const COUNTS: [u32; 9] = [
    1,
    64,
    4095,
    CHUNK_SAMPLES,
    CHUNK_SAMPLES + 1,
    3 * CHUNK_SAMPLES + 1234,
    100_000,
    8 * CHUNK_SAMPLES,
    16 * CHUNK_SAMPLES + 1,
];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded argument tree of about 256 nodes, depth at most 4 and
/// fan-out 2–8, in the mould of the benchmark's `deep_analysis` cases:
/// AnyOf and AllOf strategies and sub-goals inside, evidence and
/// assumptions at the leaves.
fn deep_case() -> Case {
    let mut state = 0xdee9_ca5e_u64;
    let mut case = Case::new("deep");
    let root = case.add_goal("G", "top").unwrap();
    let mut frontier: Vec<(NodeId, usize)> = vec![(root, 0)];
    let (mut next, mut count) = (0, 1);
    while next < frontier.len() {
        let (parent, depth) = frontier[next];
        next += 1;
        // Once the budget is spent, every open node gets one leaf.
        let fan = if count >= 256 { 1 } else { 2 + splitmix(&mut state) % 7 };
        for k in 0..fan {
            let name = format!("N{count}");
            count += 1;
            let roll = splitmix(&mut state);
            let id = if count > 256 || depth + 1 == 4 || roll.is_multiple_of(3) {
                let confidence = 0.5 + ((roll >> 8) % 500) as f64 / 1000.0;
                if k > 0 && roll.is_multiple_of(5) {
                    case.add_assumption(name, "a", confidence).unwrap()
                } else {
                    case.add_evidence(name, "e", confidence).unwrap()
                }
            } else {
                let id = if roll.is_multiple_of(2) {
                    let rule = if roll.is_multiple_of(4) {
                        Combination::AnyOf
                    } else {
                        Combination::AllOf
                    };
                    case.add_strategy(name, "s", rule).unwrap()
                } else {
                    case.add_goal(name, "g").unwrap()
                };
                frontier.push((id, depth + 1));
                id
            };
            case.support(parent, id).unwrap();
        }
    }
    case
}

fn digest(plan: &EvalPlan, samples: u32, threads: usize) -> u64 {
    let report = MonteCarlo::new(samples).seed(0x5eed).threads(threads).run_plan(plan).unwrap();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &(id, _) in plan.targets() {
        for byte in report.estimate(id).unwrap().to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn check(case: &Case, golden: &[u64; 9]) {
    let plan = EvalPlan::compile(case).unwrap();
    for (&samples, &want) in COUNTS.iter().zip(golden) {
        for threads in [1, 2] {
            let got = digest(&plan, samples, threads);
            assert_eq!(got, want, "{samples} samples, {threads} threads: {got:#018x}");
        }
    }
}

#[test]
fn template_estimates_match_the_recorded_bits() {
    check(
        &templates::template(7),
        &[
            0x353e_c1a9_cc30_9c78,
            0x03ae_04f7_8dd9_4fb1,
            0xeb54_2bdb_fc83_61c6,
            0xbf61_1c5e_96b7_2518,
            0xe487_778e_a0cc_f94c,
            0x7faa_8cd0_155b_8388,
            0xd3f9_aba6_b5db_cce8,
            0xf4ce_2b32_81e4_83cc,
            0xde50_1ceb_1289_b5f7,
        ],
    );
}

#[test]
fn deep_case_estimates_match_the_recorded_bits() {
    let case = deep_case();
    assert!(case.len() >= 256, "{} nodes", case.len());
    check(
        &case,
        &[
            0x59c0_96b7_d7cf_43e5,
            0x80f0_ff77_47cc_f99b,
            0x4330_e4db_5d41_df61,
            0xaa74_c27c_c30b_c542,
            0xf3c0_4607_1bd2_25d3,
            0x7eba_70ff_3715_2b9a,
            0xaacd_750f_07af_41b9,
            0xddcb_57d2_b400_62a9,
            0xfa60_e867_f4b2_65b8,
        ],
    );
}
