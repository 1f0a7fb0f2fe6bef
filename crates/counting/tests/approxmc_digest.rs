//! Pins ApproxMC's galloping level search to the levels, cells and
//! estimates of the search it replaced. The digest constant was captured
//! from the earlier search that galloped up from level 0 on every row; the
//! previous-row hint may change only which levels are probed, never what the
//! search returns, so the digest must not move while the oracle calls fall.

use mcf0_counting::{approx_mc_on_oracle, CountingConfig, FormulaInput, LevelSearch};
use mcf0_formula::generators::random_k_cnf;
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::{SatOracle, SolutionOracle};

/// FNV-1a over every run's `(level, cell)` pairs and estimate bits, as the
/// search that galloped up from level 0 on every row produced them.
const EARLIER_DIGEST: u64 = 0x2799_815a_284c_2542;
/// The earlier search's oracle calls over the same 40 runs.
const EARLIER_ORACLE_CALLS: u64 = 17_996;

fn fnv1a(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn galloping_levels_and_estimates_match_the_earlier_search() {
    let config = CountingConfig::explicit(0.8, 0.2, 40, 3);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut oracle_calls = 0u64;
    for seed in 0..40u64 {
        let n = if seed % 2 == 0 { 28 } else { 30 };
        let f = random_k_cnf(&mut Xoshiro256StarStar::seed_from_u64(seed), n, 2 * n, 3);
        let input = FormulaInput::Cnf(f.clone());
        let mut oracle = SatOracle::new(f);
        let out = approx_mc_on_oracle(
            &input,
            &config,
            LevelSearch::Galloping,
            &mut Xoshiro256StarStar::seed_from_u64(seed ^ 0x5eed),
            |rng| ToeplitzHash::sample(rng, n, n),
            Some(&mut oracle as &mut dyn SolutionOracle),
        );
        for &(level, cell) in &out.per_iteration {
            fnv1a(&mut digest, level as u64);
            fnv1a(&mut digest, cell as u64);
        }
        fnv1a(&mut digest, out.estimate.to_bits());
        oracle_calls += out.oracle_calls;
    }
    println!("digest {digest:#018x}, oracle calls {oracle_calls}");
    assert_eq!(digest, EARLIER_DIGEST);
    assert!(
        oracle_calls < EARLIER_ORACLE_CALLS,
        "{oracle_calls} oracle calls, the earlier search took {EARLIER_ORACLE_CALLS}"
    );
}
