//! Property-based tests for distributed DNF counting (Section 4): the
//! coordinator's estimate matches the union count on small instances, the
//! communication ledger scales with the number of sites, and the
//! F0→distributed-#DNF reduction used by the lower bound is exact.

use proptest::prelude::*;

use mcf0_counting::CountingConfig;
use mcf0_distributed::{
    distributed_bucketing, distributed_estimation, distributed_minimum, dnf_from_site_items,
    f0_instance_to_dnf_instance,
};
use mcf0_formula::exact::count_dnf_exact;
use mcf0_formula::generators::{partition_dnf, planted_dnf};
use mcf0_formula::DnfFormula;
use mcf0_hashing::Xoshiro256StarStar;
use std::collections::HashSet;

fn rng_from(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

/// A small distributed instance: a planted DNF split over `k` sites.
fn planted_sites(seed: u64, num_vars: usize, count: usize, k: usize) -> (Vec<DnfFormula>, usize) {
    let mut rng = rng_from(seed);
    let (f, _) = planted_dnf(&mut rng, num_vars, count);
    let exact = count_dnf_exact(&f) as usize;
    (partition_dnf(&mut rng, &f, k), exact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn small_unions_are_counted_exactly_by_bucketing_and_minimum(
        seed in any::<u64>(),
        n in 6usize..12,
        count in 1usize..40,
        k in 1usize..5,
    ) {
        let count = count.min(1 << n.min(6));
        let (sites, exact) = planted_sites(seed, n, count, k);
        let config = CountingConfig::explicit(0.8, 0.3, 64, 3);

        let mut rng = rng_from(seed ^ 0xA);
        let bucketing = distributed_bucketing(&sites, &config, &mut rng);
        prop_assert_eq!(bucketing.estimate, exact as f64);
        prop_assert_eq!(bucketing.sites, k);

        let mut rng = rng_from(seed ^ 0xB);
        let minimum = distributed_minimum(&sites, &config, &mut rng);
        prop_assert_eq!(minimum.estimate, exact as f64);
        prop_assert_eq!(minimum.sites, k);
    }

    #[test]
    fn distributed_and_centralised_counts_agree_within_loose_bounds(
        seed in any::<u64>(),
        n in 8usize..12,
        count in 100usize..400,
        k in 2usize..5,
    ) {
        let (sites, exact) = planted_sites(seed, n, count.min(1 << (n - 1)), k);
        let config = CountingConfig::explicit(0.5, 0.2, 96, 7);
        let mut rng = rng_from(seed ^ 0xC);
        let outcome = distributed_bucketing(&sites, &config, &mut rng);
        prop_assert!(
            outcome.estimate >= exact as f64 / 2.5 && outcome.estimate <= exact as f64 * 2.5,
            "estimate {} vs exact {}", outcome.estimate, exact
        );
    }

    #[test]
    fn estimation_protocol_is_accurate_given_a_valid_r(
        seed in any::<u64>(),
        n in 11usize..14,
        count in 32usize..200,
        k in 1usize..4,
    ) {
        // Keep F0 well below 2^n so that the valid-r window [2·F0, 50·F0]
        // fits inside the n-bit hash range (Lemma 3's precondition).
        let count = count.min(1 << (n - 4));
        let (sites, exact) = planted_sites(seed, n, count, k);
        // 2·F0 ≤ 2^r ≤ 50·F0: aim for 2^r ≈ 4·F0.
        let r = ((exact as f64 * 4.0).log2().round()) as u32;
        let config = CountingConfig::explicit(0.5, 0.2, 96, 5);
        let mut rng = rng_from(seed ^ 0xD);
        let outcome = distributed_estimation(&sites, &config, r, &mut rng);
        prop_assert!(
            outcome.estimate >= exact as f64 / 2.5 && outcome.estimate <= exact as f64 * 2.5,
            "estimate {} vs exact {} (r = {})", outcome.estimate, exact, r
        );
    }

    #[test]
    fn communication_is_recorded_and_grows_with_the_site_count(seed in any::<u64>(), n in 8usize..11) {
        let count = 1 << (n - 2);
        let config = CountingConfig::explicit(0.8, 0.3, 32, 3);

        let (few_sites, _) = planted_sites(seed, n, count, 2);
        let (many_sites, _) = planted_sites(seed, n, count, 8);

        let mut rng = rng_from(seed ^ 0xE);
        let few = distributed_minimum(&few_sites, &config, &mut rng);
        let mut rng = rng_from(seed ^ 0xE);
        let many = distributed_minimum(&many_sites, &config, &mut rng);

        prop_assert!(few.ledger.total_bits() > 0);
        prop_assert!(many.ledger.total_bits() > few.ledger.total_bits());
        prop_assert!(many.ledger.messages() > few.ledger.messages());
    }
}

// ---------------------------------------------------------------------------
// The F0 → distributed #DNF reduction behind the Ω(k/ε²) lower bound
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn site_item_encoding_has_exactly_the_items_as_solutions(
        items in prop::collection::vec(0u64..1024, 0..40),
        extra_bits in 0usize..4,
    ) {
        let num_bits = 10 + extra_bits;
        let f = dnf_from_site_items(&items, num_bits);
        let distinct: HashSet<u64> = items.iter().copied().collect();
        prop_assert_eq!(count_dnf_exact(&f), distinct.len() as u128);
    }

    #[test]
    fn f0_instance_reduction_preserves_the_union(
        sites in prop::collection::vec(prop::collection::vec(0u64..512, 0..20), 1..5),
    ) {
        let num_bits = 9;
        let formulas = f0_instance_to_dnf_instance(&sites, num_bits);
        prop_assert_eq!(formulas.len(), sites.len());

        let union: HashSet<u64> = sites.iter().flatten().copied().collect();
        let mut combined = DnfFormula::new(num_bits, Vec::new());
        for f in &formulas {
            combined = combined.or(f);
        }
        prop_assert_eq!(count_dnf_exact(&combined), union.len() as u128);
    }
}
