//! Distributed DNF counting (Section 4 of the paper).
//!
//! The input DNF formula is partitioned into `k` sub-formulas, one per site;
//! each site can communicate only with a central coordinator, and the goal is
//! an (ε, δ) approximation of `|Sol(φ_1 ∨ … ∨ φ_k)|` while minimising the
//! total number of bits exchanged. This is distributed functional monitoring
//! with the function being F0 of the implicit solution streams.
//!
//! The crate simulates the protocol in-process with a bit-accurate
//! [`comm::CommLedger`], because the paper's claims are about communication
//! bits and per-site time, not about wall-clock network behaviour
//! (DESIGN.md §5). All three strategies are implemented:
//!
//! * [`bucketing::distributed_bucketing`] — sites send the members of their
//!   small cells, compressed through a shared `H_xor(n, m)` fingerprint hash;
//!   cost Õ(k·(n + 1/ε²)·log(1/δ));
//! * [`minimum::distributed_minimum`] — sites run `FindMin` locally and send
//!   their `Thresh` smallest hash values; the coordinator merges;
//!   cost O(k·n/ε²·log(1/δ));
//! * [`estimation::distributed_estimation`] — sites send per-hash maximum
//!   trailing-zero counts; the coordinator takes maxima;
//!   cost Õ(k·(n + 1/ε²)·log(1/δ)).
//!
//! Every protocol runs on the caller's thread in the same shape: the
//! coordinator draws all hashes up front, each site computes its uploads
//! (site work never touches the RNG), and the coordinator merges in site
//! order.
//!
//! [`lower_bound`] contains the reduction from distributed F0 estimation to
//! distributed DNF counting that transfers the Ω(k/ε²) lower bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucketing;
pub mod comm;
pub mod estimation;
pub mod lower_bound;
pub mod minimum;

pub use bucketing::distributed_bucketing;
pub use comm::{CommLedger, DistributedOutcome};
pub use estimation::{
    distributed_estimation, dnf_union_f0_lower_bound, dnf_union_f0_upper_bound, estimation_r_policy,
};
pub use lower_bound::{dnf_from_site_items, f0_instance_to_dnf_instance};
pub use minimum::distributed_minimum;
