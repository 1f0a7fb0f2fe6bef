//! `ApproxModelCountMin` — the Minimum strategy transformed into a model
//! counter (Algorithm 6, Theorem 3).
//!
//! Each of the `t` iterations draws `h ∈ H_Toeplitz(n, 3n)` and asks
//! `FindMin` (Proposition 2) for the `Thresh` lexicographically smallest
//! values of `h(Sol(φ))`. If fewer than `Thresh` values exist the count is
//! read off exactly (the 3n-bit hash is injective on `Sol(φ)` with high
//! probability); otherwise the iteration estimates
//! `Thresh · 2^{3n} / max(S)`. The final answer is the median over
//! iterations. For DNF the whole computation is polynomial — the new FPRAS
//! the paper derives from the streaming viewpoint.

use crate::config::{median, CountingConfig};
use crate::input::{CountOutcome, FormulaInput};
use mcf0_gf2::BitVec;
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::{find_min_cnf, find_min_dnf, SatOracle, SolutionOracle};
use mcf0_streaming::minimum::estimate_from_max_lead;

/// Estimate contributed by one iteration's minima set (ascending): the
/// exact size when the set is not full, otherwise `Thresh / (max as a
/// fraction of the output space)`, through the streaming sketch's
/// [`estimate_from_max_lead`] so every Minimum-strategy estimator computes
/// identically.
pub fn estimate_from_minima(minima: &[BitVec], thresh: usize) -> f64 {
    let max_lead = minima
        .last()
        .and_then(|max| max.words().first().copied())
        .unwrap_or(0);
    estimate_from_max_lead(minima.len(), max_lead, thresh)
}

/// Runs `ApproxModelCountMin` on a CNF or DNF formula.
pub fn approx_model_count_min(
    input: &FormulaInput,
    config: &CountingConfig,
    rng: &mut Xoshiro256StarStar,
) -> CountOutcome {
    let n = input.num_vars();
    let thresh = config.thresh;
    let mut estimates = Vec::with_capacity(config.rows);
    let mut per_iteration = Vec::with_capacity(config.rows);
    let mut oracle_calls = 0u64;
    // One solver for all iterations; each prefix search pops its hash rows.
    let mut cnf_oracle = match input {
        FormulaInput::Cnf(cnf) => Some(SatOracle::new(cnf.clone())),
        FormulaInput::Dnf(_) => None,
    };

    for _ in 0..config.rows {
        let hash = ToeplitzHash::sample(rng, n, 3 * n);
        let minima = match input {
            FormulaInput::Cnf(_) => {
                let oracle = cnf_oracle.as_mut().expect("CNF input has an oracle");
                let calls_before = oracle.stats().sat_calls;
                let result = find_min_cnf(oracle, &hash, thresh);
                oracle_calls += oracle.stats().sat_calls - calls_before;
                result
            }
            FormulaInput::Dnf(dnf) => find_min_dnf(dnf, &hash, thresh),
        };
        per_iteration.push((minima.len(), thresh));
        estimates.push(estimate_from_minima(&minima, thresh));
    }

    CountOutcome {
        estimate: median(&estimates),
        oracle_calls,
        per_iteration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::exact::{count_cnf_dpll, count_dnf_exact};
    use mcf0_formula::generators::{planted_dnf, random_dnf, random_k_cnf};

    #[test]
    fn small_solution_sets_are_counted_exactly() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(301);
        let (f, _) = planted_dnf(&mut rng, 12, 73);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 5);
        let out = approx_model_count_min(&FormulaInput::Dnf(f), &config, &mut rng);
        assert_eq!(out.estimate, 73.0);
        assert_eq!(out.oracle_calls, 0);
    }

    #[test]
    fn dnf_counts_are_close_to_exact() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(302);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
        for _ in 0..3 {
            let f = random_dnf(&mut rng, 14, 8, (3, 6));
            let exact = count_dnf_exact(&f) as f64;
            let out = approx_model_count_min(&FormulaInput::Dnf(f), &config, &mut rng);
            assert!(
                out.estimate >= exact / 2.5 && out.estimate <= exact * 2.5,
                "estimate {} vs exact {exact}",
                out.estimate
            );
        }
    }

    #[test]
    fn cnf_counts_are_close_to_exact() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(303);
        // Small Thresh keeps the oracle-backed prefix searches affordable.
        let config = CountingConfig::explicit(0.8, 0.3, 30, 5);
        for _ in 0..2 {
            let f = random_k_cnf(&mut rng, 9, 16, 3);
            let exact = count_cnf_dpll(&f) as f64;
            if exact == 0.0 {
                continue;
            }
            let out = approx_model_count_min(&FormulaInput::Cnf(f), &config, &mut rng);
            assert!(
                out.estimate >= exact / 3.0 && out.estimate <= exact * 3.0,
                "estimate {} vs exact {exact}",
                out.estimate
            );
            assert!(out.oracle_calls > 0);
        }
    }

    #[test]
    fn unsatisfiable_formulas_count_to_zero() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(304);
        let config = CountingConfig::explicit(0.8, 0.3, 20, 3);
        let f = mcf0_formula::DnfFormula::contradiction(10);
        let out = approx_model_count_min(&FormulaInput::Dnf(f), &config, &mut rng);
        assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn estimate_from_minima_density_formula() {
        // Saturated set whose max is exactly half the output space: estimate
        // is 2 × Thresh.
        let thresh = 4usize;
        let minima: Vec<BitVec> = (1..=4u64).map(|v| BitVec::from_u64(v << 61, 64)).collect();
        let est = estimate_from_minima(&minima, thresh);
        // max = 4 << 61 = 2^63, i.e. half of 2^64 → estimate = 4 / 0.5 = 8.
        assert_eq!(est, 8.0);
        // Unsaturated set: exact count.
        assert_eq!(estimate_from_minima(&minima[..2], thresh), 2.0);
    }
}
