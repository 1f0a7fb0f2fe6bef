//! Property-based tests for the model counters obtained through the
//! streaming→counting transformation recipe: on planted instances whose
//! solution count sits below `Thresh` every strategy is exact, and on larger
//! instances the estimates stay within loose multiplicative bounds of the
//! exact count.

use proptest::prelude::*;

use mcf0_counting::{approx_mc, approx_model_count_min, CountingConfig, FormulaInput, LevelSearch};
use mcf0_formula::exact::{count_cnf_dpll, count_dnf_exact};
use mcf0_formula::generators::{planted_cnf_small, planted_dnf, random_dnf, random_k_cnf};
use mcf0_hashing::Xoshiro256StarStar;

fn rng_from(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn small_planted_dnf_counts_are_exact_for_every_strategy(seed in any::<u64>(), n in 6usize..14, count in 1usize..40) {
        // |Sol(φ)| < Thresh: level 0 never overflows and the reservoir holds
        // every hashed solution, so both strategies return the exact count.
        let mut rng = rng_from(seed);
        let count = count.min(1 << n.min(6));
        let (f, _) = planted_dnf(&mut rng, n, count);
        let config = CountingConfig::explicit(0.8, 0.3, 64, 3);
        let input = FormulaInput::Dnf(f);

        let bucketing = approx_mc(&input, &config, LevelSearch::Linear, &mut rng);
        prop_assert_eq!(bucketing.estimate, count as f64);

        let minimum = approx_model_count_min(&input, &config, &mut rng);
        prop_assert_eq!(minimum.estimate, count as f64);
    }

    #[test]
    fn small_planted_cnf_counts_are_exact_for_every_strategy(seed in any::<u64>(), n in 4usize..9, count in 1usize..30) {
        let mut rng = rng_from(seed);
        let count = count.min(1 << n);
        let (f, _) = planted_cnf_small(&mut rng, n, count);
        let config = CountingConfig::explicit(0.8, 0.3, 40, 3);
        let input = FormulaInput::Cnf(f);

        let bucketing = approx_mc(&input, &config, LevelSearch::Galloping, &mut rng);
        prop_assert_eq!(bucketing.estimate, count as f64);
        prop_assert!(bucketing.oracle_calls > 0);

        let minimum = approx_model_count_min(&input, &config, &mut rng);
        prop_assert_eq!(minimum.estimate, count as f64);
        prop_assert!(minimum.oracle_calls > 0);
    }

    #[test]
    fn linear_and_galloping_search_agree_on_the_estimate(seed in any::<u64>(), n in 6usize..12, count in 20usize..200) {
        let mut rng = rng_from(seed);
        let count = count.min(1 << n.min(7));
        let (f, _) = planted_dnf(&mut rng, n, count);
        let config = CountingConfig::explicit(0.8, 0.3, 24, 3);
        let input = FormulaInput::Dnf(f);
        let mut rng_a = rng_from(seed ^ 1);
        let mut rng_b = rng_from(seed ^ 1);
        let a = approx_mc(&input, &config, LevelSearch::Linear, &mut rng_a);
        let b = approx_mc(&input, &config, LevelSearch::Galloping, &mut rng_b);
        prop_assert_eq!(a.per_iteration, b.per_iteration);
        prop_assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn dnf_estimates_stay_within_loose_bounds(seed in any::<u64>(), n in 8usize..12, terms in 2usize..8) {
        let mut rng = rng_from(seed);
        let f = random_dnf(&mut rng, n, terms, (2, 4));
        let exact = count_dnf_exact(&f) as f64;
        prop_assume!(exact >= 1.0);
        let config = CountingConfig::explicit(0.5, 0.2, 128, 9);
        let input = FormulaInput::Dnf(f);

        let bucketing = approx_mc(&input, &config, LevelSearch::Linear, &mut rng);
        prop_assert!(
            bucketing.estimate >= exact / 3.0 && bucketing.estimate <= exact * 3.0,
            "bucketing {} vs exact {}", bucketing.estimate, exact
        );

        let minimum = approx_model_count_min(&input, &config, &mut rng);
        prop_assert!(
            minimum.estimate >= exact / 3.0 && minimum.estimate <= exact * 3.0,
            "minimum {} vs exact {}", minimum.estimate, exact
        );
    }

    #[test]
    fn cnf_estimates_stay_within_loose_bounds(seed in any::<u64>(), n in 6usize..9, clauses in 3usize..12) {
        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3);
        let exact = count_cnf_dpll(&f) as f64;
        prop_assume!(exact >= 1.0);
        let config = CountingConfig::explicit(0.5, 0.2, 80, 7);
        let input = FormulaInput::Cnf(f);

        let outcome = approx_mc(&input, &config, LevelSearch::Galloping, &mut rng);
        prop_assert!(
            outcome.estimate >= exact / 3.0 && outcome.estimate <= exact * 3.0,
            "estimate {} vs exact {}", outcome.estimate, exact
        );
    }

    #[test]
    fn unsatisfiable_formulas_count_to_zero(seed in any::<u64>(), n in 4usize..10) {
        let mut rng = rng_from(seed);
        let config = CountingConfig::explicit(0.8, 0.3, 16, 3);
        let dnf = mcf0_formula::DnfFormula::contradiction(n);
        let out = approx_mc(&FormulaInput::Dnf(dnf), &config, LevelSearch::Linear, &mut rng);
        prop_assert_eq!(out.estimate, 0.0);

        // An explicitly inconsistent CNF (x0 ∧ ¬x0).
        let cnf = mcf0_formula::CnfFormula::new(
            n,
            vec![
                mcf0_formula::Clause::new(vec![mcf0_formula::Literal::positive(0)]),
                mcf0_formula::Clause::new(vec![mcf0_formula::Literal::negative(0)]),
            ],
        );
        let out = approx_mc(&FormulaInput::Cnf(cnf.clone()), &config, LevelSearch::Galloping, &mut rng);
        prop_assert_eq!(out.estimate, 0.0);
        let out = approx_model_count_min(&FormulaInput::Cnf(cnf), &config, &mut rng);
        prop_assert_eq!(out.estimate, 0.0);
    }

    #[test]
    fn oracle_call_counts_scale_with_the_level_search(seed in any::<u64>(), n in 7usize..10) {
        // Galloping search issues no more probes than linear search on the
        // same instance and hash draws (Theorem 2 vs the ApproxMC2 remark).
        let mut rng = rng_from(seed);
        let count = 1 << (n - 2);
        let (f, _) = planted_dnf(&mut rng, n, count);
        // Encode as CNF via the brute-force planted generator when small
        // enough; otherwise stick to the DNF view with a saturating thresh.
        let config = CountingConfig::explicit(0.8, 0.3, 16, 3);
        let input = FormulaInput::Dnf(f);
        let mut rng_a = rng_from(seed ^ 2);
        let mut rng_b = rng_from(seed ^ 2);
        let linear = approx_mc(&input, &config, LevelSearch::Linear, &mut rng_a);
        let galloping = approx_mc(&input, &config, LevelSearch::Galloping, &mut rng_b);
        prop_assert_eq!(linear.estimate, galloping.estimate);
    }
}

// ---------------------------------------------------------------------------
// ApproxMC parity across oracle backends: with identical hash draws, the SAT
// oracle and the brute-force oracle must produce bit-identical (level, cell)
// pairs and estimates, equal to the plain algorithm's. Oracle calls may
// differ by backend, because the model pool reuses whichever models each
// backend returned; each backend must stay at or under the plain
// algorithm's calls and repeat its own count exactly.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn approx_mc_is_bit_identical_across_oracle_backends(
        seed in any::<u64>(),
        n in 5usize..10,
        clauses in 4usize..16,
    ) {
        use mcf0_counting::{approx_mc_on_oracle, approx_mc_reference, CountOutcome};
        use mcf0_hashing::ToeplitzHash;
        use mcf0_sat::{BruteForceOracle, SatOracle, SolutionOracle};

        let mut rng = rng_from(seed);
        let f = random_k_cnf(&mut rng, n, clauses, 3.min(n));
        let config = CountingConfig::explicit(0.8, 0.3, 24, 3);
        let input = FormulaInput::Cnf(f.clone());
        let sample = |rng: &mut Xoshiro256StarStar| ToeplitzHash::sample(rng, n, n);
        let run = |oracle: &mut dyn SolutionOracle| -> CountOutcome {
            let mut hash_rng = rng_from(seed ^ 0xABCD);
            approx_mc_on_oracle(&input, &config, LevelSearch::Galloping, &mut hash_rng, sample, Some(oracle))
        };

        let a = run(&mut SatOracle::new(f.clone()));
        let b = run(&mut BruteForceOracle::from_cnf(f.clone()));
        let plain = approx_mc_reference(&f, &config, LevelSearch::Galloping, &mut rng_from(seed ^ 0xABCD), sample);

        prop_assert_eq!(&a.per_iteration, &b.per_iteration);
        prop_assert_eq!(&a.per_iteration, &plain.per_iteration);
        prop_assert_eq!(a.estimate, b.estimate);
        prop_assert_eq!(a.estimate, plain.estimate);
        prop_assert!(a.oracle_calls <= plain.oracle_calls, "sat {} > plain {}", a.oracle_calls, plain.oracle_calls);
        prop_assert!(b.oracle_calls <= plain.oracle_calls, "brute {} > plain {}", b.oracle_calls, plain.oracle_calls);
        prop_assert_eq!(run(&mut SatOracle::new(f.clone())).oracle_calls, a.oracle_calls);
        prop_assert_eq!(run(&mut BruteForceOracle::from_cnf(f)).oracle_calls, b.oracle_calls);
    }
}
