//! # mcf0 — Model Counting meets F0 Estimation
//!
//! A Rust implementation of the unifying framework of
//! *"Model Counting meets F0 Estimation"* (Pavan, Vinodchandran,
//! Bhattacharyya, Meel — PODS 2021): hashing-based approximate model counting
//! and distinct-element (F0) estimation over data streams are two views of
//! the same sketching algorithms, and translating between the two views
//! yields new algorithms on both sides.
//!
//! This crate is the umbrella: it re-exports the whole workspace under one
//! namespace and documents the transformation recipe connecting the pieces.
//!
//! ## The two worlds and the bridge
//!
//! | F0 estimation (streams) | Model counting (formulas) |
//! |---|---|
//! | stream item `x ∈ {0,1}^n` | satisfying assignment of `φ` |
//! | `F0` = number of distinct items | `|Sol(φ)|` |
//! | Bucketing sketch ([`streaming::BucketingF0`]) | [`counting::approx_mc`] (ApproxMC) |
//! | Minimum sketch ([`streaming::MinimumF0`]) | [`counting::approx_model_count_min`] |
//! | Estimation sketch ([`streaming::EstimationF0`]) | [`counting::approx_model_count_est`] |
//! | processing one item | one `BoundedSAT` / `FindMin` / `FindMaxRange` query |
//!
//! The *recipe* (Section 3.1 of the paper): a sketch is characterised by the
//! relation `P(S, H, a_u)` it maintains with the set `a_u` of distinct
//! elements; to count models, view `φ` as the succinct representation of
//! `a_u = Sol(φ)` and build a sketch satisfying the same relation with the
//! oracle subroutines of [`sat`] instead of per-item updates.
//!
//! In the other direction (Section 5), a stream whose *items are sets* given
//! succinctly — DNF formulas, multidimensional ranges, arithmetic
//! progressions, affine spaces — is handled by running the per-item
//! model-counting subroutines inside the sketch: see [`structured`].
//!
//! ## Quick start
//!
//! ```
//! use mcf0::counting::{approx_mc, CountingConfig, FormulaInput, LevelSearch};
//! use mcf0::formula::DnfFormula;
//! use mcf0::hashing::Xoshiro256StarStar;
//!
//! // (x0 ∧ ¬x2) ∨ (x1 ∧ x3): count its models approximately.
//! let formula = DnfFormula::parse_text("p dnf 4 2\n1 -3 0\n2 4 0\n").unwrap();
//! let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let outcome = approx_mc(
//!     &FormulaInput::Dnf(formula),
//!     &config,
//!     LevelSearch::Linear,
//!     &mut rng,
//! );
//! // Exact count is 7; small solution sets are counted exactly.
//! assert_eq!(outcome.estimate, 7.0);
//! ```
//!
//! ## Crate map
//!
//! * [`gf2`] — GF(2) linear algebra, affine subspaces, GF(2^w) fields;
//! * [`hashing`] — Toeplitz / XOR / s-wise / sparse-XOR hash families,
//!   seedable RNG;
//! * [`formula`] — CNF/DNF formulas, generators, exact counters, Karp–Luby;
//! * [`sat`] — CNF-XOR solver (the NP oracle), `BoundedSAT`, `FindMin`,
//!   `FindMaxRange`, `AffineFindMin`;
//! * [`streaming`] — the three F0 sketches, Flajolet–Martin, `ComputeF0`,
//!   and the AMS F2 sketch (higher moments);
//! * [`counting`] — ApproxMC, ApproxModelCountMin, ApproxModelCountEst, and
//!   the UniGen-style almost-uniform sampler;
//! * [`distributed`] — distributed DNF counting with communication ledgers;
//! * [`structured`] — F0 over DNF-set / range / progression / affine
//!   streams, weighted #DNF, Delphic sets with the APS-Estimator, and the
//!   distinct-summation / max-dominance / triangle-counting reductions;
//! * [`service`] — the multi-tenant sketch service: named streaming
//!   sessions over the sketches above, large ingestion batches split across
//!   two partial sketches, pairwise distinct-union merge, and serde-based
//!   snapshot save/restore — all bit-identical to driving the sketches
//!   directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcf0_counting as counting;
pub use mcf0_distributed as distributed;
pub use mcf0_formula as formula;
pub use mcf0_gf2 as gf2;
pub use mcf0_hashing as hashing;
pub use mcf0_sat as sat;
pub use mcf0_service as service;
pub use mcf0_streaming as streaming;
pub use mcf0_structured as structured;

/// The version of the mcf0 workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
