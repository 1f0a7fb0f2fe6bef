//! Hashing-based approximate model counters obtained from F0 sketches.
//!
//! This crate is the paper's transformation recipe made executable
//! (Section 3.1): take one of the three F0 sketch strategies, characterise
//! the sketch by the relation it maintains with the distinct-element set, and
//! rebuild the same sketch for `Sol(φ)` using the oracle subroutines of
//! `mcf0-sat` instead of streaming updates:
//!
//! * Bucketing → [`approxmc`] (Algorithm 5, Theorem 2) with both the paper's
//!   linear level search and the ApproxMC2-style galloping/binary search;
//! * Minimum → [`min_based`] (`ApproxModelCountMin`, Algorithm 6, Theorem 3);
//! * Estimation → [`est_based`] (`ApproxModelCountEst`, Algorithm 7,
//!   Theorem 4) together with the Flajolet–Martin-style rough estimator that
//!   supplies its `r` parameter.
//!
//! Every counter reports the number of oracle calls it issued so the
//! experiments can verify the call-complexity claims, and accepts either CNF
//! (oracle-backed) or DNF (polynomial-time subroutines — the FPRAS cases).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approxmc;
pub mod config;
pub mod est_based;
pub mod input;
pub mod min_based;
pub mod sampler;

pub use approxmc::{
    approx_mc, approx_mc_on_oracle, approx_mc_reference, approx_mc_with_sampler, LevelSearch,
};
pub use config::CountingConfig;
pub use est_based::{approx_model_count_est, rough_log2_estimate};
pub use input::{CountOutcome, FormulaInput};
pub use min_based::{approx_model_count_min, estimate_from_minima};
pub use sampler::{sample_solutions, ApproxSampler, SamplerConfig, SamplerStats};
