//! GSN-style dependability-case argument graphs with quantitative
//! confidence propagation.
//!
//! The paper defines a dependability case as "some reasoning, based on
//! assumptions and evidence, that supports a dependability claim at a
//! particular level of confidence", and argues the confidence should be
//! a number. This crate provides the substrate: a goal-structured
//! argument graph ([`Case`]) whose leaves (evidence, assumptions) carry
//! elicited confidence, and a propagation engine ([`propagation`]) that
//! pushes doubt up through conjunctive ("all sub-goals must hold") and
//! alternative ("independent argument legs") structures, tracking the
//! independence point estimate *and* the Fréchet dependence interval the
//! paper warns about.
//!
//! # Examples
//!
//! A two-legged case for a SIL2 claim:
//!
//! ```
//! use depcase_assurance::{Case, Combination, NodeKind};
//!
//! let mut case = Case::new("protection-system");
//! let goal = case.add_goal("G1", "pfd < 1e-2")?;
//! let strat = case.add_strategy("S1", "independent legs", Combination::AnyOf)?;
//! let testing = case.add_evidence("E1", "statistical testing", 0.95)?;
//! let analysis = case.add_evidence("E2", "static analysis", 0.90)?;
//! case.support(goal, strat)?;
//! case.support(strat, testing)?;
//! case.support(strat, analysis)?;
//!
//! let report = case.propagate()?;
//! let top = report.confidence(goal).unwrap();
//! // Independent legs: doubt 0.05 · 0.10 = 0.005.
//! assert!((top.independent - 0.995).abs() < 1e-12);
//! // But under worst-case dependence the stronger leg is all you have:
//! assert!((top.worst_case - 0.95).abs() < 1e-12);
//! # Ok::<(), depcase_assurance::CaseError>(())
//! ```

// `!(x > 0.0)`-style checks deliberately treat NaN as invalid input; the
// lint's suggested `x <= 0.0` would let NaN through the validation.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Reference constants are quoted at full printed precision.
#![allow(clippy::excessive_precision)]
#![deny(missing_docs)]
#![deny(unsafe_code)]

mod codec;
mod dot;
mod error;
mod graph;
pub mod importance;
pub mod incremental;
pub mod ir;
pub mod memo;
pub mod monte_carlo;
pub mod plan;
pub mod propagation;
pub mod templates;
pub mod trace;

pub use error::CaseError;
pub use graph::{Case, Combination, NodeId, NodeKind, CASE_SCHEMA_VERSION};
pub use importance::{birnbaum_importance, LeafImportance};
pub use incremental::{EditStats, Incremental, LeafKind};
pub use ir::{CaseIr, IrKind};
pub use memo::{MemoStore, MemoStoreStats, SharedMemo};
pub use monte_carlo::{MonteCarlo, MonteCarloReport};
pub use plan::EvalPlan;
pub use propagation::{ConfidenceReport, NodeConfidence};
pub use trace::{NoTracer, Tracer};
