//! Monte-Carlo cross-check of the analytic propagation.
//!
//! Samples each leaf's soundness as an independent Bernoulli with its
//! elicited confidence, evaluates the case's Boolean structure through a
//! compiled [`EvalPlan`], and estimates the probability each goal or
//! strategy holds with a Wilson-score confidence interval. The analytic
//! independence estimate must sit inside the interval — the test suite
//! uses this as an end-to-end oracle, and users can call it to
//! sanity-check hand-edited cases.
//!
//! # Parallel determinism
//!
//! [`MonteCarlo::run`] splits the sample budget into fixed-size chunks
//! of [`CHUNK_SAMPLES`]. Chunk `c` draws from its own RNG stream seeded
//! by a SplitMix64-style mix of `(seed, c)`, so the outcome of every
//! chunk — and therefore the per-target hit *counts*, which are exact
//! integer sums — depends only on the seed and the chunk index, never on
//! which worker thread ran the chunk or in what order. For a fixed seed
//! the report is **bit-identical** at any thread count.
//!
//! # Wide sampling
//!
//! Samples are evaluated **64 at a time in sixteen lanes**: every node
//! holds a 64-bit mask per lane instead of one `bool`, leaf draws set
//! one bit per sample through an integer-threshold compare, the
//! structure pass runs bitwise AND/OR over whole masks, and hits are
//! counted with one popcount per target per lane. Each lane has its own
//! xoshiro256++ state and the sixteen are stepped struct-of-arrays, so
//! the draw loop vectorizes instead of waiting on one serial chain.
//!
//! Every chunk of `n` samples is cut into sixteen contiguous ranges of
//! `m = 64·⌈n/1024⌉` samples, and lane `k` starts `k·m·leaves` steps
//! into the chunk's stream. All sixteen starts come from one pass of
//! GF(2) jump-ahead ([`WideStdRng::from_jumps`]), each lane masking its
//! own cached polynomial x^(k·m·leaves) mod P(x). Every lane draws
//! exactly the variates the serial stream draws for its samples, and
//! every compare equals the scalar `f64` compare, so the engine is
//! bit-identical to the scalar reference
//! ([`MonteCarlo::run_sequential`]) chunk by chunk — the tests pin this
//! across group and chunk boundaries.
//!
//! # Plan reuse
//!
//! Compiling a case into an [`EvalPlan`] costs a full graph traversal;
//! long-running callers (the `depcase-service` engine, sweep harnesses)
//! evaluate the same case thousands of times. [`MonteCarlo::plan`] and
//! [`MonteCarlo::run_plan`] accept a pre-compiled plan so the compile
//! happens once, not once per request.

use crate::error::{CaseError, Result};
use crate::graph::{Case, NodeId};
use crate::plan::EvalPlan;
use crate::trace::Tracer;
use rand::rngs::{StdRng, WideStdRng};
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// Samples per parallel chunk. Fixed (not derived from the thread
/// count) so the chunk→stream mapping is invariant under the worker
/// topology.
pub const CHUNK_SAMPLES: u32 = 4096;

/// Monte-Carlo estimate of the probability each goal/strategy holds.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Every target's estimate, in node order (the plan's target order).
    estimates: Vec<(NodeId, f64)>,
    samples: u32,
}

impl MonteCarloReport {
    /// Estimated probability the node's claim holds.
    #[must_use]
    pub fn estimate(&self, id: NodeId) -> Option<f64> {
        let at = self.estimates.binary_search_by_key(&id.to_index(), |(t, _)| t.to_index());
        Some(self.estimates[at.ok()?].1)
    }

    /// Every estimated node with its estimate and
    /// [half-width](MonteCarloReport::half_width), in node order.
    pub fn rows(&self) -> impl Iterator<Item = (NodeId, f64, f64)> + '_ {
        self.estimates.iter().map(|&(id, p)| (id, p, self.wilson(p)))
    }

    /// Half-width of the ~95 % **Wilson-score** confidence interval for
    /// the node's estimate.
    ///
    /// Unlike the normal-approximation (Wald) half-width
    /// `1.96·√(p(1−p)/n)`, the Wilson half-width stays strictly positive
    /// at `p̂ = 0` and `p̂ = 1`, so degenerate estimates (all-certain or
    /// all-impossible leaves) still carry honest sampling uncertainty of
    /// order `z²/n` instead of a spurious zero.
    #[must_use]
    pub fn half_width(&self, id: NodeId) -> Option<f64> {
        self.estimate(id).map(|p| self.wilson(p))
    }

    fn wilson(&self, p: f64) -> f64 {
        let (n, z) = (f64::from(self.samples), 1.96_f64);
        z * ((p * (1.0 - p) + z * z / (4.0 * n)) / n).sqrt() / (1.0 + z * z / n)
    }

    /// The ~95 % Wilson-score interval `(lo, hi)` for the node's
    /// estimate, clamped to `[0, 1]`.
    #[must_use]
    pub fn interval(&self, id: NodeId) -> Option<(f64, f64)> {
        let (p, n, z2) = (self.estimate(id)?, f64::from(self.samples), 1.96_f64 * 1.96);
        let (center, hw) = ((p + z2 / (2.0 * n)) / (1.0 + z2 / n), self.wilson(p));
        Some(((center - hw).max(0.0), (center + hw).min(1.0)))
    }

    /// Number of structure samples drawn.
    #[must_use]
    pub fn samples(&self) -> u32 {
        self.samples
    }
}

/// Runs `count` structure samples with `rng`, accumulating hits — the
/// scalar reference implementation the wide engine is validated
/// against (one sample per structure pass).
fn run_samples(plan: &EvalPlan, count: u32, rng: &mut dyn RngCore, hits: &mut [u64]) {
    let mut buf = plan.new_buffer();
    for _ in 0..count {
        plan.evaluate(rng, &mut buf);
        for (h, &(_, slot)) in hits.iter_mut().zip(plan.targets()) {
            *h += u64::from(buf[slot as usize]);
        }
    }
}

/// Lanes, each with its own RNG stream, that one wide pass steps at
/// once. Sixteen compile to whole-register xoshiro steps with no lane
/// shuffles; at eight, LLVM packs the state words into shared registers
/// and shuffles them on every draw (DESIGN.md §9).
pub(crate) const INTERLEAVE: usize = 16;

/// Chunks a worker claims at once: the span between two polls of a
/// run's stop hook, kept apart from the lane count.
const CLAIM: u32 = 8;

// A chunk splits into whole 64-sample groups, the same count per lane.
const _: () = assert!(CHUNK_SAMPLES.is_multiple_of(64 * INTERLEAVE as u32));

/// Runs chunks `c0..c0 + take` of a `samples`-sample run. Each chunk is
/// cut into [`INTERLEAVE`] ranges of `m` samples, all lanes started from
/// the chunk's stream by one wide jump, lane `k` `k·m·leaves` steps in
/// (module docs); lanes draw whole groups, and samples past a lane's
/// range are masked out of the popcount. Hits are integer sums, so
/// exact and commutative.
fn run_claim(
    plan: &EvalPlan,
    (samples, seed): (u32, u64),
    (c0, take): (u32, u32),
    hits: &mut [u64],
) {
    let mut masks = vec![0; plan.slot_count() * INTERLEAVE];
    let mut scratch = vec![0; plan.leaf_count() * INTERLEAVE];
    for c in c0..c0 + take {
        let n = chunk_len(samples, c);
        let groups = n.div_ceil(64 * INTERLEAVE as u32);
        let stream = StdRng::seed_from_u64(chunk_seed(seed, u64::from(c)));
        let mut rngs = WideStdRng::from_jumps(&stream, plan.lane_jumps(groups));
        let m = 64 * groups;
        let counts: [u32; INTERLEAVE] =
            std::array::from_fn(|k| n.saturating_sub(k as u32 * m).min(m));
        for g in 0..groups {
            plan.sample_leaves_wide_x(&mut rngs, &mut scratch, &mut masks);
            plan.eval_structure_wide_x::<INTERLEAVE>(&mut masks);
            let valid = counts.map(|count| match count.saturating_sub(64 * g) {
                0 => 0,
                left => !0u64 >> 64u32.saturating_sub(left),
            });
            for (h, &(_, slot)) in hits.iter_mut().zip(plan.targets()) {
                let lanes = &masks[slot as usize * INTERLEAVE..][..INTERLEAVE];
                for (mask, valid) in lanes.iter().zip(valid) {
                    *h += u64::from((mask & valid).count_ones());
                }
            }
        }
    }
}

fn report_from_hits(plan: &EvalPlan, hits: &[u64], samples: u32) -> MonteCarloReport {
    let estimates = plan
        .targets()
        .iter()
        .zip(hits)
        .map(|(&(id, _), &h)| (id, h as f64 / f64::from(samples)))
        .collect();
    MonteCarloReport { estimates, samples }
}

/// Options for a Monte-Carlo run: sample budget, RNG seed, worker
/// threads, and an optional pre-compiled [`EvalPlan`] override.
///
/// Each knob is named, defaults are explicit (`seed = 0`, `threads = 0`
/// = autodetect), and the cached-plan fast path is part of the same
/// type. (This builder replaced the positional `simulate` /
/// `simulate_parallel` free functions, which have since been removed.)
///
/// # Examples
///
/// ```
/// use depcase_assurance::{Case, EvalPlan, MonteCarlo};
///
/// let mut case = Case::new("demo");
/// let g = case.add_goal("G", "claim")?;
/// let e = case.add_evidence("E", "test", 0.9)?;
/// case.support(g, e)?;
///
/// // One-shot: compile and run (bit-identical at any thread count).
/// let mc = MonteCarlo::new(50_000).seed(7).threads(4).run(&case)?;
///
/// // Amortised: compile once, reuse the plan per request.
/// let plan = EvalPlan::compile(&case)?;
/// let again = MonteCarlo::new(50_000).seed(7).run_plan(&plan)?;
/// assert_eq!(mc.estimate(g), again.estimate(g));
/// # Ok::<(), depcase_assurance::CaseError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo<'p> {
    samples: u32,
    seed: u64,
    threads: usize,
    plan: Option<&'p EvalPlan>,
}

impl MonteCarlo<'static> {
    /// Options for a `samples`-sample run with default seed `0` and
    /// autodetected thread count.
    #[must_use]
    pub fn new(samples: u32) -> Self {
        Self { samples, seed: 0, threads: 0, plan: None }
    }
}

impl<'p> MonteCarlo<'p> {
    /// Sets the master seed of the chunked RNG streams.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (`0` = autodetect). The result does
    /// not depend on this value, only the wall-clock does.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides compilation with a pre-compiled plan: [`MonteCarlo::run`]
    /// will use `plan` instead of recompiling the case per call.
    #[must_use]
    pub fn plan<'q>(self, plan: &'q EvalPlan) -> MonteCarlo<'q> {
        MonteCarlo {
            samples: self.samples,
            seed: self.seed,
            threads: self.threads,
            plan: Some(plan),
        }
    }

    /// The configured sample budget.
    #[must_use]
    pub fn samples(&self) -> u32 {
        self.samples
    }

    /// Runs the chunked deterministic engine on `case`, compiling an
    /// [`EvalPlan`] unless one was supplied via [`MonteCarlo::plan`].
    ///
    /// # Errors
    ///
    /// Structural errors from [`Case::validate`], or
    /// [`CaseError::InvalidStructure`] for a zero sample budget.
    pub fn run(&self, case: &Case) -> Result<MonteCarloReport> {
        match self.plan {
            Some(plan) => self.run_plan(plan),
            None => self.run_plan(&EvalPlan::compile(case)?),
        }
    }

    /// Runs the chunked deterministic engine on a pre-compiled plan —
    /// the amortised entry point for plan caches.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidStructure`] for a zero sample budget.
    pub fn run_plan(&self, plan: &EvalPlan) -> Result<MonteCarloReport> {
        check_samples(self.samples)?;
        let report = run_parallel_until(plan, self.samples, self.seed, self.threads, &|| false);
        Ok(report.expect("a never-stopping run always completes"))
    }

    /// [`MonteCarlo::run_plan`] with an `mc_sample_loop` phase (the
    /// whole chunked parallel loop, measured on the calling thread once
    /// the scoped workers have joined) and an `mc_samples` count
    /// reported to `tracer`. Sampling is unchanged — the report stays
    /// bit-identical to the untraced call.
    ///
    /// # Errors
    ///
    /// As [`MonteCarlo::run_plan`].
    pub fn run_plan_traced<T: Tracer + ?Sized>(
        &self,
        plan: &EvalPlan,
        tracer: &T,
    ) -> Result<MonteCarloReport> {
        let started = Instant::now();
        let report = self.run_plan(plan)?;
        tracer.phase("mc_sample_loop", started.elapsed());
        tracer.count("mc_samples", u64::from(self.samples));
        Ok(report)
    }

    /// Like [`MonteCarlo::run_plan`], but polls `should_stop` before
    /// each worker's chunk claims — at most one claim, eight chunks or
    /// 8×[`CHUNK_SAMPLES`] structure evaluations, runs between polls —
    /// and abandons the run when it answers `true`: the hook for
    /// per-request deadlines, which would otherwise overshoot by the
    /// full sampling time. `Ok(None)` means the run was stopped;
    /// there is no partial report, so a completed run stays
    /// bit-identical to [`MonteCarlo::run_plan`] at any thread count.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidStructure`] for a zero sample budget.
    pub fn run_plan_until(
        &self,
        plan: &EvalPlan,
        should_stop: &(dyn Fn() -> bool + Sync),
    ) -> Result<Option<MonteCarloReport>> {
        check_samples(self.samples)?;
        Ok(run_parallel_until(plan, self.samples, self.seed, self.threads, should_stop))
    }

    /// [`MonteCarlo::run_plan_until`] with the same `mc_sample_loop`
    /// phase and `mc_samples` count as [`MonteCarlo::run_plan_traced`].
    /// A stopped run (`Ok(None)`) still reports the phase — the time
    /// was spent — but no sample count, since no report was produced.
    ///
    /// # Errors
    ///
    /// As [`MonteCarlo::run_plan_until`].
    pub fn run_plan_until_traced<T: Tracer + ?Sized>(
        &self,
        plan: &EvalPlan,
        should_stop: &(dyn Fn() -> bool + Sync),
        tracer: &T,
    ) -> Result<Option<MonteCarloReport>> {
        let started = Instant::now();
        let report = self.run_plan_until(plan, should_stop)?;
        tracer.phase("mc_sample_loop", started.elapsed());
        if report.is_some() {
            tracer.count("mc_samples", u64::from(self.samples));
        }
        Ok(report)
    }

    /// Runs sequentially with a caller-owned RNG (the reference
    /// implementation the chunked engine is validated against). The
    /// `seed`/`threads` options are ignored; the RNG's state is the
    /// source of randomness.
    ///
    /// # Errors
    ///
    /// Structural errors from [`Case::validate`], or
    /// [`CaseError::InvalidStructure`] for a zero sample budget.
    pub fn run_sequential(&self, case: &Case, rng: &mut dyn RngCore) -> Result<MonteCarloReport> {
        match self.plan {
            Some(plan) => self.run_sequential_plan(plan, rng),
            None => self.run_sequential_plan(&EvalPlan::compile(case)?, rng),
        }
    }

    /// Sequential runner on a pre-compiled plan with a caller-owned RNG.
    ///
    /// # Errors
    ///
    /// [`CaseError::InvalidStructure`] for a zero sample budget.
    pub fn run_sequential_plan(
        &self,
        plan: &EvalPlan,
        rng: &mut dyn RngCore,
    ) -> Result<MonteCarloReport> {
        check_samples(self.samples)?;
        let mut hits = vec![0u64; plan.targets().len()];
        run_samples(plan, self.samples, rng, &mut hits);
        Ok(report_from_hits(plan, &hits, self.samples))
    }
}

fn check_samples(samples: u32) -> Result<()> {
    if samples == 0 {
        return Err(CaseError::InvalidStructure("need at least one sample".into()));
    }
    Ok(())
}

/// Derives chunk `c`'s RNG seed from the master seed (SplitMix64-style
/// finalizer, so nearby chunk indices land in well-separated streams).
fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of samples in chunk `c` of a `samples`-sample run.
fn chunk_len(samples: u32, chunk: u32) -> u32 {
    let start = chunk * CHUNK_SAMPLES;
    (samples - start).min(CHUNK_SAMPLES)
}

/// The chunked deterministic engine behind every parallel entry point:
/// `samples` structure evaluations across `threads` workers (`0` =
/// [`std::thread::available_parallelism`]), bit-identical for a fixed
/// `seed` at **any** thread count (module docs). Every worker polls
/// `should_stop` before claiming its next chunks and the whole run is
/// abandoned (→ `None`) as soon as any worker sees `true`, so honoring a
/// stop waits for at most one claim ([`CLAIM`] chunks) per worker.
/// A run that needs one worker runs on the calling thread.
fn run_parallel_until(
    plan: &EvalPlan,
    samples: u32,
    seed: u64,
    threads: usize,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> Option<MonteCarloReport> {
    let chunks = samples.div_ceil(CHUNK_SAMPLES);
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .min(chunks as usize)
    .max(1);

    let next_chunk = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    // Each worker claims chunks dynamically and keeps private per-target
    // hit totals; integer addition is exact and commutative, so the
    // merged counts are independent of the chunk→worker assignment.
    let work = || {
        let mut hits = vec![0u64; plan.targets().len()];
        loop {
            if stopped.load(Ordering::Relaxed) || should_stop() {
                stopped.store(true, Ordering::Relaxed);
                break;
            }
            let c0 = next_chunk.fetch_add(CLAIM as usize, Ordering::Relaxed) as u32;
            if c0 >= chunks {
                break;
            }
            let take = (chunks - c0).min(CLAIM);
            run_claim(plan, (samples, seed), (c0, take), &mut hits);
        }
        hits
    };
    let totals: Vec<Vec<u64>> = if threads == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        })
    };

    if stopped.load(Ordering::Relaxed) {
        return None;
    }
    let mut hits = vec![0u64; plan.targets().len()];
    for local in &totals {
        for (h, l) in hits.iter_mut().zip(local) {
            *h += l;
        }
    }
    Some(report_from_hits(plan, &hits, samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Combination;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn agrees_with_analytic_conjunction() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e1 = case.add_evidence("E1", "a", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.8).unwrap();
        case.support(g, e1).unwrap();
        case.support(g, e2).unwrap();
        let mc = MonteCarlo::new(50_000).run_sequential(&case, &mut rng(2)).unwrap();
        let analytic = case.propagate().unwrap().confidence(g).unwrap().independent;
        let est = mc.estimate(g).unwrap();
        assert!(
            (est - analytic).abs() < mc.half_width(g).unwrap() * 1.5,
            "mc = {est}, analytic = {analytic}"
        );
    }

    #[test]
    fn agrees_with_analytic_two_legs_and_assumption() {
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
        let mc = MonteCarlo::new(80_000).run_sequential(&case, &mut rng(3)).unwrap();
        let analytic = case.propagate().unwrap().confidence(g).unwrap().independent;
        let est = mc.estimate(g).unwrap();
        assert!(
            (est - analytic).abs() < mc.half_width(g).unwrap() * 1.5,
            "mc = {est}, analytic = {analytic}"
        );
    }

    #[test]
    fn strategies_are_estimated_too() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let s = case.add_strategy("S", "conj", Combination::AllOf).unwrap();
        let e = case.add_evidence("E", "a", 0.6).unwrap();
        case.support(g, s).unwrap();
        case.support(s, e).unwrap();
        let mc = MonteCarlo::new(30_000).run_sequential(&case, &mut rng(4)).unwrap();
        assert!(mc.estimate(s).is_some());
        assert!((mc.estimate(s).unwrap() - 0.6).abs() < 0.01);
        assert_eq!(mc.samples(), 30_000);
    }

    #[test]
    fn zero_samples_rejected() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e = case.add_evidence("E", "a", 0.5).unwrap();
        case.support(g, e).unwrap();
        assert!(MonteCarlo::new(0).run_sequential(&case, &mut rng(5)).is_err());
        assert!(MonteCarlo::new(0).seed(5).threads(2).run(&case).is_err());
    }

    #[test]
    fn invalid_case_rejected() {
        let mut case = Case::new("t");
        case.add_goal("G", "undeveloped").unwrap();
        assert!(MonteCarlo::new(100).run_sequential(&case, &mut rng(6)).is_err());
        assert!(MonteCarlo::new(100).seed(6).threads(2).run(&case).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e = case.add_evidence("E", "a", 0.42).unwrap();
        case.support(g, e).unwrap();
        let a = MonteCarlo::new(5000).run_sequential(&case, &mut rng(7)).unwrap();
        let b = MonteCarlo::new(5000).run_sequential(&case, &mut rng(7)).unwrap();
        assert_eq!(a.estimate(g), b.estimate(g));
    }

    #[test]
    fn parallel_bit_identical_across_thread_counts() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let s = case.add_strategy("S", "legs", Combination::AnyOf).unwrap();
        let e1 = case.add_evidence("E1", "a", 0.93).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.81).unwrap();
        let a = case.add_assumption("A", "env", 0.97).unwrap();
        case.support(g, s).unwrap();
        case.support(s, e1).unwrap();
        case.support(s, e2).unwrap();
        case.support(g, a).unwrap();
        // Deliberately not a multiple of CHUNK_SAMPLES: the tail chunk
        // must land in the same stream wherever it is scheduled.
        let samples = 3 * CHUNK_SAMPLES + 1234;
        let reference = MonteCarlo::new(samples).seed(99).threads(1).run(&case).unwrap();
        for threads in [2, 3, 4, 8] {
            let par = MonteCarlo::new(samples).seed(99).threads(threads).run(&case).unwrap();
            for &(id, _) in EvalPlan::compile(&case).unwrap().targets() {
                assert_eq!(
                    reference.estimate(id).unwrap().to_bits(),
                    par.estimate(id).unwrap().to_bits(),
                    "thread count {threads} changed the estimate for {id:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_agrees_with_analytic() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e1 = case.add_evidence("E1", "a", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.8).unwrap();
        case.support(g, e1).unwrap();
        case.support(g, e2).unwrap();
        let mc = MonteCarlo::new(100_000).seed(11).threads(4).run(&case).unwrap();
        let analytic = case.propagate().unwrap().confidence(g).unwrap().independent;
        let est = mc.estimate(g).unwrap();
        assert!(
            (est - analytic).abs() < mc.half_width(g).unwrap() * 1.5,
            "mc = {est}, analytic = {analytic}"
        );
    }

    #[test]
    fn wilson_half_width_positive_at_degenerate_estimates() {
        // All-certain leaves: every sample hits, p̂ = 1.
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e = case.add_evidence("E", "a", 1.0).unwrap();
        case.support(g, e).unwrap();
        let mc = MonteCarlo::new(10_000).run_sequential(&case, &mut rng(8)).unwrap();
        assert_eq!(mc.estimate(g), Some(1.0));
        let hw = mc.half_width(g).unwrap();
        assert!(hw > 0.0, "degenerate estimate must keep nonzero width");
        assert!(hw < 0.001, "width {hw} should be ~z²/2n");
        let (lo, hi) = mc.interval(g).unwrap();
        assert!(lo < 1.0 && hi <= 1.0, "interval ({lo}, {hi})");

        // All-impossible leaves: no sample hits, p̂ = 0.
        let mut case = Case::new("t2");
        let g = case.add_goal("G", "top").unwrap();
        let e = case.add_evidence("E", "a", 0.0).unwrap();
        case.support(g, e).unwrap();
        let mc = MonteCarlo::new(10_000).run_sequential(&case, &mut rng(9)).unwrap();
        assert_eq!(mc.estimate(g), Some(0.0));
        let hw = mc.half_width(g).unwrap();
        assert!(hw > 0.0);
        let (lo, hi) = mc.interval(g).unwrap();
        assert!(lo >= 0.0 && hi > 0.0, "interval ({lo}, {hi})");
    }

    #[test]
    fn wilson_close_to_wald_in_the_interior() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e = case.add_evidence("E", "a", 0.5).unwrap();
        case.support(g, e).unwrap();
        let mc = MonteCarlo::new(50_000).run_sequential(&case, &mut rng(10)).unwrap();
        let p = mc.estimate(g).unwrap();
        let wald = 1.96 * (p * (1.0 - p) / 50_000.0).sqrt();
        let wilson = mc.half_width(g).unwrap();
        assert!((wald - wilson).abs() / wald < 0.01, "wald {wald} vs wilson {wilson}");
    }

    /// A case exercising every structural feature the wide kernel
    /// widens: AnyOf legs, AllOf conjunction, a shared (diamond) leaf,
    /// an assumption, a context node, and degenerate 0.0/1.0 leaves.
    fn gnarly_case() -> Case {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let s1 = case.add_strategy("S1", "legs", Combination::AnyOf).unwrap();
        let s2 = case.add_strategy("S2", "conj", Combination::AllOf).unwrap();
        let e1 = case.add_evidence("E1", "a", 0.93).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.07).unwrap();
        let shared = case.add_evidence("E3", "shared", 0.5).unwrap();
        let certain = case.add_evidence("E4", "certain", 1.0).unwrap();
        let impossible = case.add_evidence("E5", "impossible", 0.0).unwrap();
        let a = case.add_assumption("A", "env", 0.97).unwrap();
        case.add_context("C", "environment").unwrap();
        case.support(g, s1).unwrap();
        case.support(g, s2).unwrap();
        case.support(g, a).unwrap();
        case.support(s1, e1).unwrap();
        case.support(s1, e2).unwrap();
        case.support(s1, shared).unwrap();
        case.support(s1, impossible).unwrap();
        case.support(s2, shared).unwrap();
        case.support(s2, certain).unwrap();
        case
    }

    #[test]
    fn wide_hits_are_bit_identical_to_scalar_hits() {
        let plan = EvalPlan::compile(&gnarly_case()).unwrap();
        // One chunk of each count, cut across the lanes: sub-group,
        // exact groups, one-over, multi-group with tail, every lane
        // range length, and a full chunk.
        let counts = [1u32, 37, 63, 64, 65, 130, 513, 1000, 3000, CHUNK_SAMPLES - 1, CHUNK_SAMPLES];
        for count in counts {
            for seed in [0u64, 7, 42] {
                let mut scalar = vec![0u64; plan.targets().len()];
                let mut stream = StdRng::seed_from_u64(chunk_seed(seed, 0));
                run_samples(&plan, count, &mut stream, &mut scalar);
                let mut wide = vec![0u64; plan.targets().len()];
                run_claim(&plan, (count, seed), (0, 1), &mut wide);
                assert_eq!(scalar, wide, "count {count}, seed {seed}");
            }
        }
    }

    #[test]
    fn wide_engine_leaves_the_rng_at_the_scalar_stream_position() {
        // Each lane's jumped start is where the scalar stream stands
        // after the lanes before it: equal draw consumption is what keeps
        // every range of a chunk's stream aligned.
        let plan = EvalPlan::compile(&gnarly_case()).unwrap();
        for groups in 1..=CHUNK_SAMPLES / (64 * INTERLEAVE as u32) {
            let mut firsts = [0u64; INTERLEAVE];
            WideStdRng::from_jumps(&rng(3), plan.lane_jumps(groups)).next_wide(&mut firsts);
            let mut scalar = rng(3);
            for (k, first) in firsts.iter().enumerate() {
                assert_eq!(scalar.clone().next_u64(), *first, "{groups} groups, lane {k}");
                run_samples(&plan, 64 * groups, &mut scalar, &mut vec![0u64; plan.targets().len()]);
            }
        }
    }

    /// A random tree grown from `genes`: each gene hangs a goal, an
    /// AnyOf or AllOf strategy, an assumption or an evidence leaf (with
    /// a confidence from 0 to 1) under an earlier goal or strategy, and
    /// every goal or strategy left without support gets one evidence.
    fn random_case(genes: &[u64]) -> Case {
        let mut case = Case::new("random");
        let mut inner = vec![case.add_goal("G", "top").unwrap()];
        for (i, &gene) in genes.iter().enumerate() {
            let parent = inner[(gene % inner.len() as u64) as usize];
            let (name, confidence) = (format!("N{i}"), (gene >> 8 & 0xff) as f64 / 255.0);
            let id = match gene >> 16 & 7 {
                0 => case.add_goal(name, "g"),
                1 => case.add_strategy(name, "s", Combination::AnyOf),
                2 => case.add_strategy(name, "s", Combination::AllOf),
                3 => case.add_assumption(name, "a", confidence),
                _ => case.add_evidence(name, "e", confidence),
            }
            .unwrap();
            case.support(parent, id).unwrap();
            if gene >> 16 & 7 < 3 {
                inner.push(id);
            }
        }
        for (i, &node) in inner.iter().enumerate() {
            if case.supporters(node).unwrap().is_empty() {
                let e = case.add_evidence(format!("L{i}"), "e", 0.5).unwrap();
                case.support(node, e).unwrap();
            }
        }
        case
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn lane_runner_matches_the_hand_chunked_scalar_reference(
            genes in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..40),
            samples in 1u32..=3 * CHUNK_SAMPLES,
            seed in proptest::prelude::any::<u64>(),
            threads in 1usize..=3,
        ) {
            let plan = EvalPlan::compile(&random_case(&genes)).unwrap();
            let mut hits = vec![0u64; plan.targets().len()];
            for c in 0..samples.div_ceil(CHUNK_SAMPLES) {
                let mut rng = StdRng::seed_from_u64(chunk_seed(seed, u64::from(c)));
                run_samples(&plan, chunk_len(samples, c), &mut rng, &mut hits);
            }
            let reference = report_from_hits(&plan, &hits, samples);
            let run = MonteCarlo::new(samples).seed(seed).threads(threads).run_plan(&plan).unwrap();
            for &(id, _) in plan.targets() {
                proptest::prop_assert_eq!(
                    reference.estimate(id).unwrap().to_bits(),
                    run.estimate(id).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn parallel_run_matches_a_hand_chunked_scalar_reference() {
        // run_plan now goes through the wide engine; rebuild the same
        // answer from the scalar sampler chunk by chunk.
        let case = gnarly_case();
        let plan = EvalPlan::compile(&case).unwrap();
        let samples = 2 * CHUNK_SAMPLES + 777;
        let seed = 99u64;
        let mut hits = vec![0u64; plan.targets().len()];
        for c in 0..samples.div_ceil(CHUNK_SAMPLES) {
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed, u64::from(c)));
            run_samples(&plan, chunk_len(samples, c), &mut rng, &mut hits);
        }
        let reference = report_from_hits(&plan, &hits, samples);
        let wide = MonteCarlo::new(samples).seed(seed).threads(2).run_plan(&plan).unwrap();
        for &(id, _) in plan.targets() {
            assert_eq!(
                reference.estimate(id).unwrap().to_bits(),
                wide.estimate(id).unwrap().to_bits(),
                "wide engine diverged from the scalar reference at {id:?}"
            );
        }
    }

    #[test]
    fn interleaved_chunk_claims_match_the_hand_chunked_scalar_reference() {
        // Several full claims of chunks plus a short tail: whole chunks
        // and a tail chunk with empty lanes in one run.
        let case = gnarly_case();
        let plan = EvalPlan::compile(&case).unwrap();
        let samples = 2 * (INTERLEAVE as u32) * CHUNK_SAMPLES + 13;
        let seed = 1234u64;
        let mut hits = vec![0u64; plan.targets().len()];
        for c in 0..samples.div_ceil(CHUNK_SAMPLES) {
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed, u64::from(c)));
            run_samples(&plan, chunk_len(samples, c), &mut rng, &mut hits);
        }
        let reference = report_from_hits(&plan, &hits, samples);
        for threads in [1usize, 2, 3] {
            let run = MonteCarlo::new(samples).seed(seed).threads(threads).run_plan(&plan).unwrap();
            for &(id, _) in plan.targets() {
                assert_eq!(
                    reference.estimate(id).unwrap().to_bits(),
                    run.estimate(id).unwrap().to_bits(),
                    "interleaved engine diverged at {id:?} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn chunk_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..64).map(|c| chunk_seed(42, c)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn precompiled_plan_paths_are_bit_identical_to_compile_per_call() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e1 = case.add_evidence("E1", "a", 0.9).unwrap();
        let e2 = case.add_evidence("E2", "b", 0.8).unwrap();
        case.support(g, e1).unwrap();
        case.support(g, e2).unwrap();
        let plan = EvalPlan::compile(&case).unwrap();
        let opts = MonteCarlo::new(20_000).seed(13).threads(2);
        let fresh = opts.run(&case).unwrap();
        let reused = opts.run_plan(&plan).unwrap();
        let via_override = opts.plan(&plan).run(&case).unwrap();
        let via_plan_entry = plan.simulate(&opts).unwrap();
        for r in [&reused, &via_override, &via_plan_entry] {
            assert_eq!(
                fresh.estimate(g).unwrap().to_bits(),
                r.estimate(g).unwrap().to_bits(),
                "plan reuse changed the estimate"
            );
        }
        // Sequential plan reuse matches the sequential compile path too.
        let a = MonteCarlo::new(5_000).run_sequential(&case, &mut rng(21)).unwrap();
        let b = MonteCarlo::new(5_000).run_sequential_plan(&plan, &mut rng(21)).unwrap();
        assert_eq!(a.estimate(g).unwrap().to_bits(), b.estimate(g).unwrap().to_bits());
    }

    #[test]
    fn stoppable_runs_complete_bit_identically_or_stop_between_chunks() {
        let mut case = Case::new("t");
        let g = case.add_goal("G", "top").unwrap();
        let e = case.add_evidence("E", "a", 0.7).unwrap();
        case.support(g, e).unwrap();
        let plan = EvalPlan::compile(&case).unwrap();
        let opts = MonteCarlo::new(4 * CHUNK_SAMPLES).seed(5).threads(2);

        // A hook that never fires changes nothing about the answer.
        let full = opts.run_plan(&plan).unwrap();
        let until = opts.run_plan_until(&plan, &|| false).unwrap().expect("must complete");
        assert_eq!(full.estimate(g).unwrap().to_bits(), until.estimate(g).unwrap().to_bits());

        // A hook that fires immediately stops before any chunk runs.
        assert!(opts.run_plan_until(&plan, &|| true).unwrap().is_none());

        // A hook that fires mid-run stops within one chunk per worker:
        // the counter below is only polled between chunk claims.
        let polls = AtomicUsize::new(0);
        let stopped =
            opts.run_plan_until(&plan, &|| polls.fetch_add(1, Ordering::Relaxed) >= 2).unwrap();
        assert!(stopped.is_none(), "mid-run stop must abandon the report");
    }
}
