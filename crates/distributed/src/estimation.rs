//! Distributed DNF counting with the Estimation strategy.
//!
//! The coordinator broadcasts `t · Thresh` hash functions; each site computes
//! `FindMaxRange(φ_j, h)` for every hash — the maximum number of trailing
//! zeros of `h(x)` over its own solutions, a single `⌈log₂ n⌉`-bit number —
//! and uploads it. The coordinator takes the per-hash maximum over sites
//! (max of maxima = maximum over the union) and evaluates the usual
//! Estimation-strategy formula at the supplied `r`. Communication is
//! Õ(k·(n + 1/ε²)·log(1/δ)) bits.
//!
//! With affine hashes `FindMaxRange` is polynomial even for DNF
//! (`mcf0_sat::find_max_range_dnf`), so the sites need no oracle; the paper's
//! open problem about DNF `FindMaxRange` concerns the s-wise polynomial
//! family (DESIGN.md §5).

use crate::comm::{CommLedger, DistributedOutcome};
use mcf0_counting::config::{median, CountingConfig};
use mcf0_formula::{DnfFormula, Term};
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::find_max_range_dnf;

/// Do two terms fix some variable to opposite polarities? If so their
/// solution cubes are disjoint. Allocation-free (a nested scan over the
/// short literal slices), unlike building the conjunction just to test it.
fn terms_conflict(a: &Term, b: &Term) -> bool {
    a.literals().iter().any(|la| {
        b.literals()
            .iter()
            .any(|lb| la.var() == lb.var() && la.is_positive() != lb.is_positive())
    })
}

/// A cheap, communication-friendly lower bound on `F0 = |Sol(φ_1 ∨ … ∨ φ_k)|`:
/// greedy packing of pairwise-disjoint terms across all sites.
///
/// Two DNF terms with contradictory literals have disjoint solution sets, so
/// the solution counts of a pairwise-contradictory subfamily add up and the
/// sum is a valid lower bound on the union. The greedy scan considers terms
/// widest-count-first (fewest fixed literals first) and keeps every term that
/// conflicts with all previously kept ones — `O((Σ terms)² · n)` site-local
/// work, and each site only ships one number, so the coordinator can derive
/// an `r` for the Estimation protocol without an extra counting pass.
pub fn dnf_union_f0_lower_bound(sites: &[DnfFormula]) -> u128 {
    assert!(!sites.is_empty(), "at least one site required");
    let n = sites[0].num_vars();
    assert!(
        sites.iter().all(|f| f.num_vars() == n),
        "all sites must share the variable set"
    );
    let mut terms: Vec<&Term> = sites
        .iter()
        .flat_map(|f| f.terms())
        .filter(|t| !t.is_contradictory())
        .collect();
    // Fewest fixed literals = largest solution cube first (stable order
    // keeps the bound deterministic across runs).
    terms.sort_by_key(|t| t.width());
    let mut chosen: Vec<&Term> = Vec::new();
    let mut bound: u128 = 0;
    for term in terms {
        if chosen.iter().all(|c| terms_conflict(c, term)) {
            bound += term.solution_count(n);
            chosen.push(term);
        }
    }
    bound
}

/// The matching cheap upper bound: the union bound `Σ |Sol(T_i)|` over all
/// terms of all sites, capped at the universe size.
pub fn dnf_union_f0_upper_bound(sites: &[DnfFormula]) -> u128 {
    assert!(!sites.is_empty(), "at least one site required");
    let n = sites[0].num_vars();
    assert!(
        sites.iter().all(|f| f.num_vars() == n),
        "all sites must share the variable set"
    );
    let sum = sites
        .iter()
        .flat_map(|f| f.terms())
        .filter(|t| !t.is_contradictory())
        .fold(0u128, |acc, t| acc.saturating_add(t.solution_count(n)));
    if n < 128 {
        sum.min(1u128 << n)
    } else {
        sum
    }
}

/// The Estimation protocol's `r` policy (the fix for the E6 open item): aim
/// `2^r` at twice the **geometric mean** of the cheap F0 lower bound
/// (disjoint-term packing) and upper bound (union bound), clamped to the
/// hash's output range `1..=n`.
///
/// Theorem 4 assumes a caller-supplied `r` with `2·F0 ≤ 2^r ≤ 50·F0`, and
/// the protocol degrades when `r` leaves that window in either direction:
/// deriving `r` from the *exact* count can demand more trailing zeros than
/// the `n`-bit hash can produce (`r > n`, so ρ pins at 0 — the original E6
/// bug), while an undershooting `r` saturates every repetition at ρ = 1.
/// Splitting the difference between the two bounds in log space caps the
/// miss at `log₂ √(ub/lb)` bits on either side, and the estimator itself
/// clamps saturated repetitions (see [`distributed_estimation`])
/// so a residual miss degrades the estimate gracefully instead of
/// collapsing it to 0.
pub fn estimation_r_policy(sites: &[DnfFormula]) -> u32 {
    assert!(!sites.is_empty(), "at least one site required");
    let n = sites[0].num_vars() as u32;
    let lower = dnf_union_f0_lower_bound(sites).max(1) as f64;
    let upper = (dnf_union_f0_upper_bound(sites).max(1) as f64).max(lower);
    let ideal = (2.0 * (lower * upper).sqrt()).log2().ceil() as u32;
    ideal.clamp(1, n)
}

/// Runs the distributed Estimation protocol with a caller-supplied `r`
/// (`2·F0 ≤ 2^r ≤ 50·F0`, as Theorem 4 assumes).
pub fn distributed_estimation(
    sites: &[DnfFormula],
    config: &CountingConfig,
    r: u32,
    rng: &mut Xoshiro256StarStar,
) -> DistributedOutcome {
    assert!(!sites.is_empty(), "at least one site required");
    assert!(r >= 1, "r must be at least 1");
    let n = sites[0].num_vars();
    assert!(
        sites.iter().all(|f| f.num_vars() == n),
        "all sites must share the variable set"
    );
    let thresh = config.thresh;
    let k = sites.len();
    let mut ledger = CommLedger::new();
    let denominator = (1.0 - 2f64.powi(-(r as i32))).ln();
    let per_value_bits = (usize::BITS - n.leading_zeros()) as u64 + 1;

    // Coordinator: draw the t·Thresh hashes (site work never touches the
    // RNG, so this is the sequence the nested protocol loop draws).
    let hashes: Vec<ToeplitzHash> = (0..config.rows * thresh)
        .map(|_| ToeplitzHash::sample(rng, n, n))
        .collect();

    // Site side: every site uploads its maximum trailing-zero count per hash.
    let locals: Vec<Vec<Option<usize>>> = sites
        .iter()
        .map(|site| {
            hashes
                .iter()
                .map(|hash| find_max_range_dnf(site, hash))
                .collect()
        })
        .collect();

    let mut estimates = Vec::with_capacity(config.rows);
    for row in 0..config.rows {
        let mut hits = 0usize;
        for j in 0..thresh {
            let idx = row * thresh + j;
            ledger.record_downlink((hashes[idx].representation_bits() * k) as u64);
            // Coordinator: max of maxima = maximum over the union.
            let mut union_max: Option<usize> = None;
            for site_locals in &locals {
                ledger.record_uplink(per_value_bits);
                if let Some(v) = site_locals[idx] {
                    union_max = Some(union_max.map_or(v, |u: usize| u.max(v)));
                }
            }
            if union_max.is_some_and(|v| v as u32 >= r) {
                hits += 1;
            }
        }
        let rho = hits as f64 / thresh as f64;
        // A saturated repetition (every hash hit the threshold) carries only
        // a lower-bound signal: ln(1−ρ) diverges at ρ = 1. Clamp it to half
        // a trial past the finest resolvable hit rate instead of discarding
        // the row, so an undershooting `r` degrades to an underestimate
        // rather than an empty estimate vector (which reported 0.0).
        let rho = rho.min(1.0 - 1.0 / (2.0 * thresh as f64));
        estimates.push((1.0 - rho).ln() / denominator);
    }

    let estimate = if estimates.is_empty() {
        0.0
    } else {
        median(&estimates)
    };
    DistributedOutcome {
        estimate,
        ledger,
        sites: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::exact::count_dnf_exact;
    use mcf0_formula::generators::{partition_dnf, random_dnf};

    fn valid_r(count: f64) -> u32 {
        (count * 2.0).log2().ceil().max(1.0) as u32
    }

    #[test]
    fn distributed_estimate_is_close_to_exact() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(701);
        let f = random_dnf(&mut rng, 14, 10, (3, 6));
        let exact = count_dnf_exact(&f) as f64;
        let sites = partition_dnf(&mut rng, &f, 4);
        let config = CountingConfig::explicit(0.5, 0.2, 80, 7);
        let out = distributed_estimation(&sites, &config, valid_r(exact), &mut rng);
        assert!(
            out.estimate >= exact / 2.5 && out.estimate <= exact * 2.5,
            "estimate {} vs exact {exact}",
            out.estimate
        );
    }

    #[test]
    fn maximum_over_sites_equals_maximum_over_union() {
        // Partitioning must not change the statistic the coordinator sees;
        // compare against a single-site (centralised) run with identical
        // hash draws.
        let mut rng = Xoshiro256StarStar::seed_from_u64(702);
        let f = random_dnf(&mut rng, 12, 9, (2, 5));
        let exact = count_dnf_exact(&f) as f64;
        let config = CountingConfig::explicit(0.5, 0.2, 60, 5);
        let r = valid_r(exact);
        let sites = partition_dnf(&mut rng, &f, 5);
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(33);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(33);
        let centralised = distributed_estimation(&[f], &config, r, &mut rng_a);
        let distributed = distributed_estimation(&sites, &config, r, &mut rng_b);
        assert_eq!(centralised.estimate, distributed.estimate);
    }

    #[test]
    fn lower_bound_never_exceeds_the_exact_count() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(704);
        for _ in 0..10 {
            let f = random_dnf(&mut rng, 14, 12, (2, 6));
            let exact = count_dnf_exact(&f);
            let sites = partition_dnf(&mut rng, &f, 3);
            let bound = dnf_union_f0_lower_bound(&sites);
            assert!(bound <= exact, "bound {bound} vs exact {exact}");
            assert!(bound >= 1, "a non-contradictory term exists");
        }
    }

    #[test]
    fn lower_bound_is_exact_for_disjoint_terms() {
        // x0∧x1 and ¬x0∧x2 are disjoint: the packing keeps both.
        let f = DnfFormula::parse_text("p dnf 4 2\n1 2 0\n-1 3 0\n").unwrap();
        assert_eq!(
            dnf_union_f0_lower_bound(std::slice::from_ref(&f)),
            count_dnf_exact(&f)
        );
    }

    #[test]
    fn r_policy_stays_within_the_hash_output_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(705);
        // Near-saturating formula: wide terms over few variables would push
        // the exact-count policy past n; the clamp must not.
        let f = random_dnf(&mut rng, 10, 40, (1, 3));
        let sites = partition_dnf(&mut rng, &f, 4);
        let r = estimation_r_policy(&sites);
        assert!((1..=10).contains(&r), "r = {r}");
    }

    #[test]
    fn r_policy_keeps_the_estimate_informative_on_saturating_instances() {
        // The E6 regression: F0 so close to 2^n that r = ceil(log2(2·F0))
        // exceeds the n-bit hash width and the estimate collapses to −0.0.
        // The policy-derived r must keep the protocol on target.
        let mut rng = Xoshiro256StarStar::seed_from_u64(706);
        let f = random_dnf(&mut rng, 14, 30, (3, 7));
        let exact = count_dnf_exact(&f) as f64;
        let sites = partition_dnf(&mut rng, &f, 4);
        let config = CountingConfig::explicit(0.5, 0.2, 80, 7);

        let naive_r = (exact * 2.0).log2().ceil().max(1.0) as u32;
        assert!(naive_r > 14, "instance saturates the naive policy");

        let r = estimation_r_policy(&sites);
        let out = distributed_estimation(&sites, &config, r, &mut rng);
        assert!(
            out.estimate >= exact / 2.5 && out.estimate <= exact * 2.5,
            "estimate {} vs exact {exact} (r = {r})",
            out.estimate
        );
    }

    #[test]
    fn r_policy_survives_heavily_overlapping_terms() {
        // Adversarial shape for the packing bound: all-positive terms never
        // conflict pairwise, so the greedy packing keeps a single cube and
        // the lower bound undershoots F0 by orders of magnitude. A policy
        // driven by the lower bound alone saturates every repetition
        // (ρ = 1) and the estimate collapses to 0; the geometric-mean
        // policy plus the saturation clamp must keep it on target.
        use mcf0_formula::{Literal, Term};
        let mut rng = Xoshiro256StarStar::seed_from_u64(707);
        let n = 16usize;
        let mut terms = Vec::new();
        for _ in 0..120 {
            let mut vars: Vec<usize> = (0..n).collect();
            for i in 0..6 {
                let j = i + rng.gen_range((n - i) as u64) as usize;
                vars.swap(i, j);
            }
            terms.push(Term::new(
                vars[..6].iter().map(|&v| Literal::positive(v)).collect(),
            ));
        }
        let f = DnfFormula::new(n, terms);
        let exact = count_dnf_exact(&f) as f64;
        let sites = partition_dnf(&mut rng, &f, 3);
        assert!(
            (dnf_union_f0_lower_bound(&sites) as f64) < exact / 8.0,
            "the packing bound must undershoot for this test to bite"
        );
        let r = estimation_r_policy(&sites);
        let config = CountingConfig::explicit(0.5, 0.2, 48, 5);
        let out = distributed_estimation(&sites, &config, r, &mut rng);
        assert!(
            out.estimate >= exact / 2.5 && out.estimate <= exact * 2.5,
            "estimate {} vs exact {exact} (r = {r})",
            out.estimate
        );
    }

    #[test]
    fn bounds_bracket_the_exact_count() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(708);
        for _ in 0..10 {
            let f = random_dnf(&mut rng, 12, 14, (2, 6));
            let exact = count_dnf_exact(&f);
            let sites = partition_dnf(&mut rng, &f, 3);
            assert!(dnf_union_f0_lower_bound(&sites) <= exact);
            assert!(dnf_union_f0_upper_bound(&sites) >= exact);
        }
    }

    #[test]
    fn unsatisfiable_sites_contribute_nothing() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(703);
        let f = random_dnf(&mut rng, 10, 4, (2, 3));
        let exact = count_dnf_exact(&f) as f64;
        let empty = DnfFormula::contradiction(10);
        let config = CountingConfig::explicit(0.5, 0.3, 40, 5);
        let r = valid_r(exact);
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(44);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(44);
        let without = distributed_estimation(std::slice::from_ref(&f), &config, r, &mut rng_a);
        let with_empty = distributed_estimation(&[f, empty], &config, r, &mut rng_b);
        assert_eq!(without.estimate, with_empty.estimate);
        assert!(with_empty.ledger.total_bits() > without.ledger.total_bits());
    }
}
