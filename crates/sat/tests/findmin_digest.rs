//! Pins CNF FindMin's minima to those of Proposition 2's prefix search. The
//! digest constant was captured from the prefix search that `find_min_cnf`
//! ran before it answered from hash cells; the p smallest hashed values are
//! unique, so the search strategy may change only the oracle calls, never
//! what FindMin returns. The runs use perfbench's `count_cnf` FindMin shape:
//! random 3-CNF with 2n clauses at n = 28 and 32, p = 8 under a 3n-bit
//! Toeplitz hash.

use mcf0_formula::generators::random_k_cnf;
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::{find_min_cnf, SatOracle, SolutionOracle};

/// FNV-1a over every run's minima count and minima words, as the prefix
/// search produced them.
const PREFIX_SEARCH_DIGEST: u64 = 0x4fa1_7264_79c7_91cc;
/// The prefix search's oracle calls over the same 40 runs.
const PREFIX_SEARCH_ORACLE_CALLS: u64 = 33_784;

fn fnv1a(digest: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn findmin_minima_match_the_prefix_search() {
    let p = 8;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut oracle_calls = 0u64;
    for seed in 0..40u64 {
        let n = if seed % 2 == 0 { 28 } else { 32 };
        let f = random_k_cnf(&mut Xoshiro256StarStar::seed_from_u64(seed), n, 2 * n, 3);
        let hash = ToeplitzHash::sample(
            &mut Xoshiro256StarStar::seed_from_u64(seed ^ 0x5eed),
            n,
            3 * n,
        );
        let mut oracle = SatOracle::new(f);
        let minima = find_min_cnf(&mut oracle, &hash, p);
        fnv1a(&mut digest, minima.len() as u64);
        for value in &minima {
            for &word in value.words() {
                fnv1a(&mut digest, word);
            }
        }
        oracle_calls += oracle.stats().sat_calls;
    }
    println!("digest {digest:#018x}, oracle calls {oracle_calls}");
    assert_eq!(digest, PREFIX_SEARCH_DIGEST);
    assert!(
        oracle_calls * 5 <= PREFIX_SEARCH_ORACLE_CALLS,
        "{oracle_calls} oracle calls, the prefix search took {PREFIX_SEARCH_ORACLE_CALLS}"
    );
}
