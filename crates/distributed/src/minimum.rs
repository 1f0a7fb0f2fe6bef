//! Distributed DNF counting with the Minimum strategy.
//!
//! The coordinator broadcasts `t` hash functions from `H_Toeplitz(n, 3n)`;
//! each site runs `FindMin` on its own sub-formula and uploads its `Thresh`
//! smallest hash values; the coordinator keeps the `Thresh` smallest of the
//! union per hash function and applies the usual Minimum-strategy estimate.
//! Communication is `O(k · n/ε² · log(1/δ))` bits, dominated by the uploaded
//! hash values.

use crate::comm::{CommLedger, DistributedOutcome};
use mcf0_counting::config::{median, CountingConfig};
use mcf0_counting::estimate_from_minima;
use mcf0_formula::DnfFormula;
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::find_min_dnf;

/// Runs the distributed Minimum protocol over per-site DNF sub-formulas.
pub fn distributed_minimum(
    sites: &[DnfFormula],
    config: &CountingConfig,
    rng: &mut Xoshiro256StarStar,
) -> DistributedOutcome {
    assert!(!sites.is_empty(), "at least one site required");
    let n = sites[0].num_vars();
    assert!(
        sites.iter().all(|f| f.num_vars() == n),
        "all sites must share the variable set"
    );
    let thresh = config.thresh;
    let mut ledger = CommLedger::new();

    // Coordinator: draw every row's hash (site work never touches the RNG,
    // so this is the sequence the row-by-row protocol draws).
    let hashes: Vec<ToeplitzHash> = (0..config.rows)
        .map(|_| ToeplitzHash::sample(rng, n, 3 * n))
        .collect();

    // Site side: every site runs FindMin under every hash.
    let mut locals: Vec<Vec<Vec<mcf0_gf2::BitVec>>> = sites
        .iter()
        .map(|site| {
            hashes
                .iter()
                .map(|hash| find_min_dnf(site, hash, thresh))
                .collect()
        })
        .collect();

    // Coordinator: account the broadcasts and uploads and merge per row, in
    // site order.
    let mut estimates = Vec::with_capacity(config.rows);
    for (row, hash) in hashes.iter().enumerate() {
        ledger.record_downlink((hash.representation_bits() * sites.len()) as u64);
        let mut merged: Vec<mcf0_gf2::BitVec> = Vec::new();
        for site_locals in locals.iter_mut() {
            let local = std::mem::take(&mut site_locals[row]);
            ledger.record_uplink((local.len() * 3 * n) as u64);
            merged.extend(local);
        }
        // Coordinator keeps the Thresh smallest distinct values of the union.
        merged.sort();
        merged.dedup();
        merged.truncate(thresh);
        estimates.push(estimate_from_minima(&merged, thresh));
    }

    DistributedOutcome {
        estimate: median(&estimates),
        ledger,
        sites: sites.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::exact::count_dnf_exact;
    use mcf0_formula::generators::{partition_dnf, random_dnf};

    #[test]
    fn distributed_estimate_matches_centralised_ground_truth() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(501);
        let f = random_dnf(&mut rng, 14, 12, (3, 6));
        let exact = count_dnf_exact(&f) as f64;
        let sites = partition_dnf(&mut rng, &f, 4);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
        let out = distributed_minimum(&sites, &config, &mut rng);
        assert!(
            out.estimate >= exact / 2.5 && out.estimate <= exact * 2.5,
            "estimate {} vs exact {exact}",
            out.estimate
        );
        assert_eq!(out.sites, 4);
        assert!(out.ledger.total_bits() > 0);
    }

    #[test]
    fn small_counts_are_exact_regardless_of_partitioning() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(502);
        let (f, _) = mcf0_formula::generators::planted_dnf(&mut rng, 12, 64);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 5);
        for k in [1usize, 2, 5] {
            let sites = partition_dnf(&mut rng, &f, k);
            let out = distributed_minimum(&sites, &config, &mut rng);
            assert_eq!(out.estimate, 64.0, "k={k}");
        }
    }

    #[test]
    fn communication_grows_linearly_with_sites() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(503);
        let f = random_dnf(&mut rng, 12, 16, (2, 4));
        let config = CountingConfig::explicit(0.8, 0.3, 50, 3);
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(1);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(1);
        let two = distributed_minimum(&partition_dnf(&mut rng, &f, 2), &config, &mut rng_a);
        let eight = distributed_minimum(&partition_dnf(&mut rng, &f, 8), &config, &mut rng_b);
        assert!(
            eight.ledger.total_bits() > two.ledger.total_bits(),
            "more sites must cost more communication"
        );
        // Within a small factor of 4× (the site count ratio), since per-site
        // upload is capped by Thresh values.
        assert!(eight.ledger.total_bits() <= two.ledger.total_bits() * 8);
    }
}
