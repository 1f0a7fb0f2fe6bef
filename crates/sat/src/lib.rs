//! The NP-oracle substrate: a CNF-XOR solver and the paper's oracle-backed
//! subroutines.
//!
//! Every hashing-based counter in the paper interrogates the solution space
//! of a formula through a handful of subroutines, all of which reduce to
//! satisfiability queries over "CNF ∧ XOR" formulas (the XOR part encodes the
//! hash constraint `h(x) = c`):
//!
//! * [`solver::CnfXorSolver`] — an incremental CNF-XOR **CDCL** engine:
//!   two-watched-literal unit propagation, complete parity propagation by
//!   incremental Gauss–Jordan elimination over the unassigned variables (a
//!   live reduced matrix pivoted only where the trail changed), incremental
//!   Gaussian elimination of pushed rows, first-UIP conflict analysis with
//!   combined XOR rows as reasons, VSIDS-style
//!   decisions with phase saving, Luby restarts, LBD-based learned-clause
//!   database reduction, and assumption-based XOR push/pop so hash
//!   constraints come and go without rebuilding the solver (learned clauses
//!   carry derivation dependencies and are purged exactly when a pop
//!   invalidates them). This substitutes the production CNF-XOR solvers
//!   (CryptoMiniSat) used by ApproxMC in practice; see DESIGN.md §2 and §5.
//! * [`oracle::SolutionOracle`] — the abstract assumption-based oracle
//!   interface, with the solver backend ([`oracle::SatOracle`]) and a
//!   brute-force backend ([`oracle::BruteForceOracle`]) used for ground truth
//!   and for hash families that cannot be encoded as XOR constraints;
//!   [`oracle::XorPrefixSession`] batches the level searches so consecutive
//!   probes reuse the solver state for their shared constraint prefix.
//! * [`bounded::bounded_sat_cnf`] — Proposition 1's `BoundedSAT`: up to `p`
//!   solutions of `φ ∧ h_m(x) = 0^m`, and [`bounded::bounded_sat_dnf`], its
//!   polynomial-time DNF specialisation.
//! * [`findmin`] — Proposition 2's `FindMin`: the `p` lexicographically
//!   smallest elements of `h(Sol(φ))`, polynomial time for DNF (affine-image
//!   enumeration per term) and, for CNF, read from the deepest hash cell
//!   holding `p` models, with the oracle-backed prefix search as its
//!   specification and fallback.
//! * [`findmaxrange`] — Proposition 3's `FindMaxRange`: the largest number of
//!   trailing zeros of `h(x)` over solutions `x`.
//! * [`affine`] — Proposition 4's `AffineFindMin` for affine-space stream
//!   items `Ax = b`.
//!
//! All oracle calls are counted ([`oracle::OracleStats`]) so the experiments
//! can verify the call-complexity claims of Theorems 2–4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod bounded;
pub mod findmaxrange;
pub mod findmin;
pub mod oracle;
pub mod solver;

pub use affine::{affine_find_min, AffineSystem};
pub use bounded::{bounded_sat_cnf, bounded_sat_dnf, bounded_sat_terms, BoundedSatResult};
pub use findmaxrange::{find_max_range_cnf, find_max_range_dnf};
pub use findmin::{find_min_cnf, find_min_cnf_reference, find_min_dnf, find_min_terms};
pub use oracle::{BruteForceOracle, OracleStats, SatOracle, SolutionOracle, XorPrefixSession};
pub use solver::{ClauseMark, CnfXorSolver, SolveOutcome, SolverStats, XorConstraint};
