//! A compiled, flat evaluation plan for a case's Boolean structure.
//!
//! The analytic propagation in [`crate::propagation`] memoizes shared
//! subtrees per call; Monte-Carlo needs the same work done *per sample*,
//! where a recursive walk with a hash map is the dominant cost. An
//! [`EvalPlan`] hoists the graph traversal out of the sampling loop: the
//! case is compiled **once** into a topologically ordered list of
//! combination steps over a flat slot buffer, so each sample is a single
//! linear pass with no hashing, no recursion and no allocation.
//!
//! The plan is immutable and `Sync`, so the parallel Monte-Carlo engine
//! shares one compiled plan across worker threads.

use crate::error::{CaseError, Result};
use crate::graph::{Case, Combination, NodeId};
use crate::ir::{CaseIr, IrKind};
use crate::monte_carlo::{CHUNK_SAMPLES, INTERLEAVE};
use crate::propagation::{fold, ConfidenceReport, Lanes, NodeConfidence};
use crate::trace::Tracer;
use rand::rngs::{mul_mod, StdRng, WideStdRng};
use rand::Rng;
use rand::RngCore;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// 2⁵³ as an `f64` — the scale of the 53-bit uniform variate every
/// Bernoulli draw consumes.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

/// The integer Bernoulli threshold for a leaf confidence: the draw
/// `m = next_u64() >> 11` hits exactly when `m < ceil(conf · 2⁵³)`.
///
/// This is *exactly* equivalent to the scalar comparison
/// `(m as f64) · 2⁻⁵³ < conf`: both sides of the scalar compare are
/// exact (power-of-two scaling of a 53-bit integer), so it holds iff
/// the real number `m` is below the real number `conf · 2⁵³` — and for
/// integer `m` that is `m < ceil(conf · 2⁵³)`. The product `conf · 2⁵³`
/// itself is an exact `f64` (pure exponent shift, no overflow for
/// `conf ≤ 1`, no subnormals for `conf ≥ 2⁻¹⁰²¹`), so `ceil` sees the
/// true value. Out-of-domain confidences degrade identically to the
/// scalar compare: `NaN` and negatives saturate to threshold 0 (never
/// hit), values above one always hit.
fn bernoulli_threshold(confidence: f64) -> u64 {
    (confidence * TWO_POW_53).ceil() as u64
}

/// One compiled non-leaf evaluation step.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// Context nodes hold vacuously.
    Constant { slot: u32 },
    /// A goal or strategy: combine child slots under `rule`, conjoined
    /// with any attached assumptions.
    Combine {
        slot: u32,
        rule: Combination,
        /// Slots of supporting (non-assumption) children.
        support: Vec<u32>,
        /// Slots of attached assumptions (always conjunctive).
        assumptions: Vec<u32>,
    },
}

/// A case's Boolean structure compiled for repeated evaluation.
///
/// # Examples
///
/// ```
/// use depcase_assurance::{Case, EvalPlan};
/// use rand::SeedableRng;
///
/// let mut case = Case::new("t");
/// let g = case.add_goal("G", "claim")?;
/// let e = case.add_evidence("E", "test", 0.9)?;
/// case.support(g, e)?;
///
/// let plan = EvalPlan::compile(&case)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut buf = plan.new_buffer();
/// plan.evaluate(&mut rng, &mut buf);
/// // buf now holds one sampled truth value per node.
/// assert_eq!(buf.len(), case.len());
/// # Ok::<(), depcase_assurance::CaseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EvalPlan {
    /// The structural part — steps, leaf slots, targets — shared via
    /// `Arc`: a point confidence edit clones the plan cheaply and
    /// patches one float without re-deriving any structure.
    shape: Arc<PlanShape>,
    /// Confidence per Bernoulli leaf, parallel to `shape.leaf_slots`.
    leaf_confs: Vec<f64>,
    /// `ceil(conf · 2⁵³)` per leaf, parallel to `leaf_confs` — the
    /// integer form of each Bernoulli compare the wide sampler uses
    /// (see [`bernoulli_threshold`] for the exactness argument).
    leaf_thresholds: Vec<u64>,
}

/// The structure-only part of a plan: everything except the leaf
/// confidences, which are the only thing a point edit changes.
#[derive(Debug, PartialEq)]
struct PlanShape {
    /// Non-leaf steps in topological order: every step's inputs are
    /// either leaf slots or slots written by an earlier step.
    steps: Vec<Step>,
    /// Slot per Bernoulli leaf, in ascending slot order.
    leaf_slots: Vec<u32>,
    /// Reported goal/strategy nodes as `(id, slot)`, in slot order.
    targets: Vec<(NodeId, u32)>,
    /// Root goals (goal slots nothing supports), in slot order — what
    /// [`EvalPlan::propagate_batch`] reports as each case's roots.
    roots: Vec<u32>,
    /// Total slot count (= node count of the compiled case).
    slots: usize,
    /// Lane jump polynomials by 64-sample group count, made on first
    /// use (see [`EvalPlan::lane_jumps`]).
    jumps: LaneJumps,
}

/// `jumps[g - 1][k]` moves a chunk stream `k·g` sample groups ahead, for
/// every group count a chunk's lanes can draw. Derived from the leaf
/// count alone, so it takes no part in shape equality.
#[derive(Debug, Default)]
struct LaneJumps([OnceLock<[[u64; 4]; INTERLEAVE]>; CHUNK_SAMPLES as usize / 64 / INTERLEAVE]);

impl PartialEq for LaneJumps {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl EvalPlan {
    /// Compiles `case` into a flat evaluation plan.
    ///
    /// # Errors
    ///
    /// Structural errors from [`Case::validate`], or
    /// [`crate::CaseError::InvalidStructure`] when a hand-edited save
    /// file smuggled in a support cycle.
    pub fn compile(case: &Case) -> Result<Self> {
        case.validate()?;
        let ir = CaseIr::build(case)?;
        Ok(Self::from_ir(&ir))
    }

    /// Lowers an already-built IR into a plan. The IR's topological
    /// order *is* the step order, and leaves appear in ascending slot
    /// order — both identical to what the pre-IR compiler produced, so
    /// every sampled bit is unchanged.
    pub(crate) fn from_ir(ir: &CaseIr) -> Self {
        let n = ir.len();
        let mut leaf_slots = Vec::new();
        let mut leaf_confs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            match ir.kind(i) {
                IrKind::Evidence(confidence) | IrKind::Assumption(confidence) => {
                    leaf_slots.push(i as u32);
                    leaf_confs.push(confidence);
                }
                IrKind::Goal | IrKind::Strategy(_) => {
                    targets.push((NodeId::from_index(i), i as u32));
                }
                IrKind::Context => {}
            }
        }

        let mut steps = Vec::new();
        for &t in ir.topo() {
            let i = t as usize;
            match ir.kind(i) {
                IrKind::Evidence(_) | IrKind::Assumption(_) => {}
                IrKind::Context => steps.push(Step::Constant { slot: i as u32 }),
                IrKind::Goal | IrKind::Strategy(_) => {
                    let rule = match ir.kind(i) {
                        IrKind::Strategy(c) => c,
                        _ => Combination::AllOf,
                    };
                    let mut support = Vec::new();
                    let mut assumptions = Vec::new();
                    for &c in ir.children(i) {
                        if matches!(ir.kind(c as usize), IrKind::Assumption(_)) {
                            assumptions.push(c);
                        } else {
                            support.push(c);
                        }
                    }
                    steps.push(Step::Combine { slot: i as u32, rule, support, assumptions });
                }
            }
        }

        let leaf_thresholds = leaf_confs.iter().map(|&c| bernoulli_threshold(c)).collect();
        let roots = ir.roots().to_vec();
        Self {
            shape: Arc::new(PlanShape {
                steps,
                leaf_slots,
                targets,
                roots,
                slots: n,
                jumps: LaneJumps::default(),
            }),
            leaf_confs,
            leaf_thresholds,
        }
    }

    /// Patches the confidence of the leaf living in `slot`, if any —
    /// the incremental engine's O(log leaves) plan update. Structure is
    /// untouched (and stays shared).
    pub(crate) fn set_leaf_confidence(&mut self, slot: u32, confidence: f64) {
        if let Ok(pos) = self.shape.leaf_slots.binary_search(&slot) {
            self.leaf_confs[pos] = confidence;
            self.leaf_thresholds[pos] = bernoulli_threshold(confidence);
        }
    }

    /// Number of slots a buffer for this plan needs (= node count).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.shape.slots
    }

    /// Number of Bernoulli leaves (evidence + assumptions).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.shape.leaf_slots.len()
    }

    /// The reported goal/strategy nodes as `(id, slot)` pairs.
    #[must_use]
    pub fn targets(&self) -> &[(NodeId, u32)] {
        &self.shape.targets
    }

    /// The polynomials that start each lane of a chunk cut into ranges
    /// of `groups` 64-sample groups: lane `k`'s moves the chunk's stream
    /// `k · groups · 64 · leaf_count` steps ahead. Made once per shape
    /// and group count, from one [`StdRng::jump_poly`] and its powers.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ groups ≤ CHUNK_SAMPLES / (64 · INTERLEAVE)`.
    pub(crate) fn lane_jumps(&self, groups: u32) -> &[[u64; 4]; INTERLEAVE] {
        self.shape.jumps.0[groups as usize - 1].get_or_init(|| {
            let range = StdRng::jump_poly(u64::from(groups) * 64 * self.leaf_count() as u64);
            let mut poly = [1, 0, 0, 0];
            std::array::from_fn(|k| {
                if k > 0 {
                    poly = mul_mod(poly, range);
                }
                poly
            })
        })
    }

    /// Allocates a correctly sized evaluation buffer.
    #[must_use]
    pub fn new_buffer(&self) -> Vec<bool> {
        vec![false; self.shape.slots]
    }

    /// Draws one leaf outcome per Bernoulli leaf into `buf`.
    ///
    /// Exactly one `f64` is consumed from `rng` per leaf, in slot order —
    /// the fixed draw count is what makes chunked parallel streams
    /// reproducible.
    pub fn sample_leaves(&self, rng: &mut dyn RngCore, buf: &mut [bool]) {
        for (&slot, &conf) in self.shape.leaf_slots.iter().zip(&self.leaf_confs) {
            buf[slot as usize] = rng.gen::<f64>() < conf;
        }
    }

    /// Evaluates every non-leaf node from the leaf outcomes already in
    /// `buf`, in one linear pass.
    ///
    /// # Panics
    ///
    /// Panics when `buf` is shorter than [`EvalPlan::slot_count`].
    pub fn eval_structure(&self, buf: &mut [bool]) {
        for step in &self.shape.steps {
            match step {
                Step::Constant { slot } => buf[*slot as usize] = true,
                Step::Combine { slot, rule, support, assumptions } => {
                    let support_ok = if support.is_empty() {
                        true
                    } else {
                        match rule {
                            Combination::AllOf => support.iter().all(|&c| buf[c as usize]),
                            Combination::AnyOf => support.iter().any(|&c| buf[c as usize]),
                        }
                    };
                    let assumptions_ok = assumptions.iter().all(|&c| buf[c as usize]);
                    buf[*slot as usize] = support_ok && assumptions_ok;
                }
            }
        }
    }

    /// Draws one full structure sample: leaves then combination steps.
    pub fn evaluate(&self, rng: &mut dyn RngCore, buf: &mut [bool]) {
        self.sample_leaves(rng, buf);
        self.eval_structure(buf);
    }

    /// Draws 64 consecutive leaf samples from each of `K` RNG streams
    /// at once into per-slot lane masks: bit `s` of
    /// `lanes[slot * K + k]` is sample `s` of stream `k` for the leaf in
    /// `slot`.
    ///
    /// Stream `k` is consumed sample-major, leaves in slot order —
    /// exactly the order 64 consecutive [`EvalPlan::sample_leaves`]
    /// calls consume one stream — so lane `k` walks its stream position
    /// for position with the scalar path. Each draw compares the raw
    /// 53-bit variate against the leaf's integer threshold, exactly
    /// equivalent to the scalar `f64` compare (see
    /// [`bernoulli_threshold`]), so every sampled bit is the scalar
    /// path's. The struct-of-arrays [`WideStdRng`] steps all `K`
    /// xoshiro states element-wise, so the draw loop vectorizes to the
    /// target's SIMD width.
    ///
    /// `scratch` is caller-owned accumulator space of `K × leaf_count`
    /// words (contents ignored on entry): the draw loop fills it
    /// leaf-major — dense stores the optimizer can keep in vector
    /// registers, where scattering straight to arbitrary `slot`
    /// positions would re-insert a bounds check per lane — and the
    /// masks move to their slots once per group.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is shorter than `K × slot_count` or
    /// `scratch` is not `K × leaf_count` words.
    pub fn sample_leaves_wide_x<const K: usize>(
        &self,
        rngs: &mut WideStdRng<K>,
        scratch: &mut [u64],
        lanes: &mut [u64],
    ) {
        assert_eq!(scratch.len(), K * self.shape.leaf_slots.len());
        scratch.fill(0);
        let mut draws = [0u64; K];
        for s in 0..64 {
            for (chunk, &threshold) in scratch.chunks_exact_mut(K).zip(&self.leaf_thresholds) {
                let chunk: &mut [u64; K] = chunk.try_into().expect("chunks_exact yields K");
                rngs.next_wide(&mut draws);
                for k in 0..K {
                    let hit = u64::from((draws[k] >> 11) < threshold);
                    chunk[k] |= hit << s;
                }
            }
        }
        for (chunk, &slot) in scratch.chunks_exact(K).zip(&self.shape.leaf_slots) {
            let base = slot as usize * K;
            lanes[base..base + K].copy_from_slice(chunk);
        }
    }

    /// Evaluates every non-leaf node for all `K × 64` samples of a
    /// `K`-stream lane buffer (`lanes[slot * K + k]`) at once — the same
    /// linear pass as [`EvalPlan::eval_structure`] with each `bool` op
    /// widened to a bitwise op over the lane masks, so bit `s` of lane
    /// `k` of every slot is what the scalar pass computes for that
    /// sample.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is shorter than `K × slot_count`.
    pub fn eval_structure_wide_x<const K: usize>(&self, lanes: &mut [u64]) {
        for step in &self.shape.steps {
            match step {
                Step::Constant { slot } => {
                    let base = *slot as usize * K;
                    lanes[base..base + K].fill(!0);
                }
                Step::Combine { slot, rule, support, assumptions } => {
                    let mut ok = if support.is_empty() {
                        [!0u64; K]
                    } else {
                        match rule {
                            Combination::AllOf => {
                                let mut acc = [!0u64; K];
                                for &c in support {
                                    let cb = c as usize * K;
                                    for k in 0..K {
                                        acc[k] &= lanes[cb + k];
                                    }
                                }
                                acc
                            }
                            Combination::AnyOf => {
                                let mut acc = [0u64; K];
                                for &c in support {
                                    let cb = c as usize * K;
                                    for k in 0..K {
                                        acc[k] |= lanes[cb + k];
                                    }
                                }
                                acc
                            }
                        }
                    };
                    for &c in assumptions {
                        let cb = c as usize * K;
                        for k in 0..K {
                            ok[k] &= lanes[cb + k];
                        }
                    }
                    let base = *slot as usize * K;
                    lanes[base..base + K].copy_from_slice(&ok);
                }
            }
        }
    }

    /// True when `other` can join a batch with `self`: identical
    /// structure (only the leaf confidences may differ).
    #[must_use]
    pub fn same_shape(&self, other: &EvalPlan) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape) || self.shape == other.shape
    }

    /// Analytically propagates a whole batch of same-shape plans in one
    /// struct-of-arrays pass: each combination step runs the one combine
    /// kernel once, a lane per plan, instead of re-walking the structure
    /// per case. Every lane makes the scalar float operations in the
    /// scalar order, so `propagate_batch(&[p])[0]` is bit-identical to
    /// propagating `p`'s case directly — the service's batch path pins
    /// this with `to_bits` tests.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidStructure`] for an empty batch or when the
    /// plans do not all share one shape.
    pub fn propagate_batch(plans: &[&EvalPlan]) -> Result<Vec<ConfidenceReport>> {
        Self::propagate_batch_traced(plans, &crate::trace::NoTracer)
    }

    /// [`EvalPlan::propagate_batch`] with a `batch_propagate` phase and
    /// a `batch_lanes` count reported to `tracer`. The float work is
    /// identical — results stay bit-for-bit equal to the untraced call.
    ///
    /// # Errors
    ///
    /// As [`EvalPlan::propagate_batch`].
    pub fn propagate_batch_traced<T: Tracer + ?Sized>(
        plans: &[&EvalPlan],
        tracer: &T,
    ) -> Result<Vec<ConfidenceReport>> {
        let started = Instant::now();
        let invalid = |why: &str| CaseError::InvalidStructure(why.into());
        let first = *plans.first().ok_or_else(|| invalid("empty evaluation batch"))?;
        if !plans.iter().all(|p| first.same_shape(p)) {
            return Err(invalid("batched plans must share one structure"));
        }
        let (b, shape) = (plans.len(), &*first.shape);
        // `rows[field][slot * b + lane]`, the fields as in `fold`'s `out`.
        let mut rows = [(); 3].map(|()| vec![0.0f64; shape.slots * b]);
        for (i, &slot) in shape.leaf_slots.iter().enumerate() {
            for (l, p) in plans.iter().enumerate() {
                rows.iter_mut().for_each(|row| row[slot as usize * b + l] = p.leaf_confs[i]);
            }
        }
        // Context nodes take no part: no node reads them, and the
        // reports carry no value for them.
        let mut participates = vec![false; shape.slots];
        for &slot in shape.leaf_slots.iter().chain(shape.targets.iter().map(|(_, slot)| slot)) {
            participates[slot as usize] = true;
        }
        let mut out = [(); 3].map(|()| vec![0.0f64; b]);
        for step in &shape.steps {
            let Step::Combine { slot, rule, support, assumptions } = step else { continue };
            let lanes = |c: u32| Lanes::Rows([0, 1, 2].map(|f| &rows[f][c as usize * b..][..b]));
            let [ind, worst, best] = &mut out;
            let (support, assumptions) = (support.iter().copied(), assumptions.iter().copied());
            fold(*rule, support, assumptions, lanes, [ind, worst, best]);
            for (row, lanes) in rows.iter_mut().zip(&out) {
                row[*slot as usize * b..][..b].copy_from_slice(lanes);
            }
        }
        let roots: Vec<NodeId> =
            shape.roots.iter().map(|&r| NodeId::from_index(r as usize)).collect();
        let [ind, wst, bst] = [0, 1, 2].map(|f| &rows[f]);
        let value =
            |at| NodeConfidence { independent: ind[at], worst_case: wst[at], best_case: bst[at] };
        let reports = (0..b)
            .map(|l| ConfidenceReport {
                values: (0..shape.slots)
                    .map(|s| participates[s].then(|| value(s * b + l)))
                    .collect(),
                roots: roots.clone(),
            })
            .collect();
        tracer.phase("batch_propagate", started.elapsed());
        tracer.count("batch_lanes", plans.len() as u64);
        Ok(reports)
    }

    /// Runs a Monte-Carlo estimate on this pre-compiled plan — the
    /// reuse entry point for plan caches: compile once with
    /// [`EvalPlan::compile`], then serve any number of
    /// [`crate::MonteCarlo`] requests without touching the case graph
    /// again. Equivalent to `options.run_plan(self)`.
    ///
    /// # Errors
    ///
    /// [`crate::CaseError::InvalidStructure`] for a zero sample budget.
    ///
    /// # Examples
    ///
    /// ```
    /// use depcase_assurance::{Case, EvalPlan, MonteCarlo};
    ///
    /// let mut case = Case::new("t");
    /// let g = case.add_goal("G", "claim")?;
    /// let e = case.add_evidence("E", "test", 0.9)?;
    /// case.support(g, e)?;
    ///
    /// let plan = EvalPlan::compile(&case)?; // once
    /// let mc = plan.simulate(&MonteCarlo::new(20_000).seed(1))?; // per request
    /// assert!(mc.estimate(g).is_some());
    /// # Ok::<(), depcase_assurance::CaseError>(())
    /// ```
    pub fn simulate(&self, options: &crate::MonteCarlo<'_>) -> Result<crate::MonteCarloReport> {
        options.run_plan(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_leg_case() -> (Case, NodeId, NodeId) {
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
        (case, g, s)
    }

    #[test]
    fn compiles_counts() {
        let (case, _, _) = two_leg_case();
        let plan = EvalPlan::compile(&case).unwrap();
        assert_eq!(plan.slot_count(), 5);
        assert_eq!(plan.leaf_count(), 3);
        assert_eq!(plan.targets().len(), 2);
    }

    #[test]
    fn children_evaluated_before_parents() {
        let (case, g, s) = two_leg_case();
        let plan = EvalPlan::compile(&case).unwrap();
        // Force all leaves true and check the structure propagates.
        let mut buf = plan.new_buffer();
        buf.iter_mut().for_each(|b| *b = true);
        plan.eval_structure(&mut buf);
        let g_slot = plan.targets().iter().find(|&&(id, _)| id == g).unwrap().1;
        let s_slot = plan.targets().iter().find(|&&(id, _)| id == s).unwrap().1;
        assert!(buf[g_slot as usize]);
        assert!(buf[s_slot as usize]);
    }

    #[test]
    fn anyof_needs_one_leg_allof_needs_assumption() {
        let (case, g, s) = two_leg_case();
        let plan = EvalPlan::compile(&case).unwrap();
        let slot_of = |name: &str| {
            let id = case.node_by_name(name).unwrap();
            case.index(id).unwrap()
        };
        let mut buf = plan.new_buffer();
        // One leg sound, assumption holds.
        buf[slot_of("E1")] = true;
        buf[slot_of("E2")] = false;
        buf[slot_of("A")] = true;
        plan.eval_structure(&mut buf);
        let g_slot = plan.targets().iter().find(|&&(id, _)| id == g).unwrap().1;
        let s_slot = plan.targets().iter().find(|&&(id, _)| id == s).unwrap().1;
        assert!(buf[s_slot as usize], "AnyOf with one sound leg holds");
        assert!(buf[g_slot as usize]);
        // Assumption fails: goal falls even though the strategy holds.
        buf[slot_of("A")] = false;
        plan.eval_structure(&mut buf);
        assert!(buf[s_slot as usize]);
        assert!(!buf[g_slot as usize], "failed assumption defeats the goal");
    }

    #[test]
    fn invalid_case_rejected() {
        let mut case = Case::new("t");
        case.add_goal("G", "undeveloped").unwrap();
        assert!(EvalPlan::compile(&case).is_err());
    }

    #[test]
    fn evaluate_is_deterministic_under_seed() {
        let (case, g, _) = two_leg_case();
        let plan = EvalPlan::compile(&case).unwrap();
        let g_slot = plan.targets().iter().find(|&&(id, _)| id == g).unwrap().1;
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buf = plan.new_buffer();
            (0..256)
                .map(|_| {
                    plan.evaluate(&mut rng, &mut buf);
                    buf[g_slot as usize]
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn leaf_patch_matches_recompile() {
        let (mut case, g, _) = two_leg_case();
        let mut patched = EvalPlan::compile(&case).unwrap();
        let e2 = case.node_by_name("E2").unwrap();
        let slot = case.index(e2).unwrap() as u32;
        patched.set_leaf_confidence(slot, 0.25);
        case.set_leaf_confidence(e2, 0.25).unwrap();
        let recompiled = EvalPlan::compile(&case).unwrap();
        // Same structure, same confidences ⇒ identical sampled bits.
        let g_slot = recompiled.targets().iter().find(|&&(id, _)| id == g).unwrap().1;
        let run = |plan: &EvalPlan| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut buf = plan.new_buffer();
            (0..512)
                .map(|_| {
                    plan.evaluate(&mut rng, &mut buf);
                    buf[g_slot as usize]
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(&patched), run(&recompiled));
        // Patching a non-leaf slot is a no-op, not a panic.
        patched.set_leaf_confidence(case.index(g).unwrap() as u32, 0.5);
        assert_eq!(run(&patched), run(&recompiled));
    }

    #[test]
    fn integer_threshold_equals_the_scalar_float_compare() {
        // Sweep confidences (including degenerate and near-boundary
        // values) against draws straddling each threshold: the integer
        // compare must agree with the f64 compare on every draw.
        let confs = [
            0.0,
            f64::MIN_POSITIVE,
            1e-18,
            0.1,
            0.25,
            0.3,
            0.5,
            0.7,
            0.9,
            0.95,
            1.0 - f64::EPSILON,
            1.0,
        ];
        for &conf in &confs {
            let threshold = bernoulli_threshold(conf);
            for delta in -2i64..=2 {
                let m = threshold.wrapping_add_signed(delta) & ((1u64 << 53) - 1);
                let scalar = (m as f64) * (1.0 / TWO_POW_53) < conf;
                let wide = m < threshold;
                assert_eq!(scalar, wide, "conf {conf}, draw {m}");
            }
        }
    }

    #[test]
    fn wide_structure_pass_matches_scalar_per_lane() {
        let (case, _, _) = two_leg_case();
        let plan = EvalPlan::compile(&case).unwrap();
        // Exhaustive over the 8 leaf-assignment patterns in every lane
        // of an 8-stream buffer: lane k holds pattern p ^ k at bit p.
        const K: usize = 8;
        let leaf_slots: Vec<usize> = plan.shape.leaf_slots.iter().map(|&s| s as usize).collect();
        let mut lanes = vec![0u64; plan.slot_count() * K];
        for (bit, &slot) in leaf_slots.iter().enumerate() {
            for k in 0..K {
                for pattern in 0..8u64 {
                    if (pattern ^ k as u64) >> bit & 1 == 1 {
                        lanes[slot * K + k] |= 1 << pattern;
                    }
                }
            }
        }
        plan.eval_structure_wide_x::<K>(&mut lanes);
        for k in 0..K {
            for pattern in 0..8u64 {
                let mut buf = plan.new_buffer();
                for (bit, &slot) in leaf_slots.iter().enumerate() {
                    buf[slot] = (pattern ^ k as u64) >> bit & 1 == 1;
                }
                plan.eval_structure(&mut buf);
                for slot in 0..plan.slot_count() {
                    assert_eq!(
                        buf[slot],
                        lanes[slot * K + k] >> pattern & 1 == 1,
                        "slot {slot}, lane {k}, pattern {pattern:03b}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_shape_ignores_confidences_but_not_structure() {
        let (case, _, _) = two_leg_case();
        let a = EvalPlan::compile(&case).unwrap();
        let mut patched = a.clone();
        patched.set_leaf_confidence(2, 0.123);
        assert!(a.same_shape(&patched));

        let mut reshaped = case.clone();
        let g = reshaped.node_by_name("G").unwrap();
        let e = reshaped.add_evidence("E9", "extra", 0.5).unwrap();
        reshaped.support(g, e).unwrap();
        let b = EvalPlan::compile(&reshaped).unwrap();
        assert!(!a.same_shape(&b));
    }

    #[test]
    fn batch_propagation_is_bit_identical_to_scalar_per_lane() {
        // Same structure, per-lane confidence patches — including the
        // original as lane 0 and degenerate 0/1 confidences.
        let (case, _, _) = two_leg_case();
        let base = EvalPlan::compile(&case).unwrap();
        let confs: [[f64; 3]; 5] = [
            [0.9, 0.7, 0.95],
            [0.5, 0.5, 0.5],
            [0.0, 1.0, 0.97],
            [1e-18, 0.999_999, 0.42],
            [1.0, 1.0, 1.0],
        ];
        let leaf_slots: Vec<u32> = base.shape.leaf_slots.clone();
        let plans: Vec<EvalPlan> = confs
            .iter()
            .map(|row| {
                let mut p = base.clone();
                for (&slot, &c) in leaf_slots.iter().zip(row) {
                    p.set_leaf_confidence(slot, c);
                }
                p
            })
            .collect();
        let refs: Vec<&EvalPlan> = plans.iter().collect();
        let reports = EvalPlan::propagate_batch(&refs).unwrap();
        for (row, report) in confs.iter().zip(&reports) {
            let mut scalar_case = case.clone();
            for (leaf, &c) in ["E1", "E2", "A"].iter().zip(row) {
                let id = scalar_case.node_by_name(leaf).unwrap();
                scalar_case.set_leaf_confidence(id, c).unwrap();
            }
            let scalar = scalar_case.propagate().unwrap();
            assert_eq!(report.len(), scalar.len());
            for (id, _) in scalar_case.iter() {
                match (scalar.confidence(id), report.confidence(id)) {
                    (None, None) => {}
                    (Some(s), Some(w)) => {
                        assert_eq!(s.independent.to_bits(), w.independent.to_bits());
                        assert_eq!(s.worst_case.to_bits(), w.worst_case.to_bits());
                        assert_eq!(s.best_case.to_bits(), w.best_case.to_bits());
                    }
                    other => panic!("participation mismatch at {id:?}: {other:?}"),
                }
            }
            assert_eq!(
                scalar.top().map(|c| c.independent.to_bits()),
                report.top().map(|c| c.independent.to_bits())
            );
        }
    }

    #[test]
    fn batch_rejects_empty_and_mixed_shapes() {
        assert!(EvalPlan::propagate_batch(&[]).is_err());
        let (case, _, _) = two_leg_case();
        let a = EvalPlan::compile(&case).unwrap();
        let mut reshaped = case.clone();
        let g = reshaped.node_by_name("G").unwrap();
        let e = reshaped.add_evidence("E9", "extra", 0.5).unwrap();
        reshaped.support(g, e).unwrap();
        let b = EvalPlan::compile(&reshaped).unwrap();
        assert!(EvalPlan::propagate_batch(&[&a, &b]).is_err());
    }

    #[test]
    fn shared_subgraph_compiled_once() {
        // Diamond: two goals share one evidence node.
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let s1 = case.add_strategy("S1", "a", Combination::AllOf).unwrap();
        let s2 = case.add_strategy("S2", "b", Combination::AllOf).unwrap();
        let e = case.add_evidence("E", "shared", 0.5).unwrap();
        case.support(g, s1).unwrap();
        case.support(g, s2).unwrap();
        case.support(s1, e).unwrap();
        case.support(s2, e).unwrap();
        let plan = EvalPlan::compile(&case).unwrap();
        assert_eq!(plan.slot_count(), 4);
        assert_eq!(plan.leaf_count(), 1);
        // Both strategies read the same slot: if E is unsound, both fail.
        let mut buf = plan.new_buffer();
        plan.eval_structure(&mut buf);
        let g_slot = plan.targets().iter().find(|&&(id, _)| id == g).unwrap().1;
        assert!(!buf[g_slot as usize]);
    }
}
