//! Distributed DNF counting with the Bucketing strategy.
//!
//! The coordinator broadcasts `t` cell hashes from `H_Toeplitz(n, n)` and one
//! fingerprint hash `G ∈ H_xor(n, g)` with `g = O(log(k·Thresh·t/δ))`. Each
//! site finds, per cell hash, the smallest level at which its own cell is
//! small (`BoundedSAT`, polynomial for DNF) and uploads one tuple
//! `⟨G(x), leading-zeros of H_i(x)⟩` per cell member. The coordinator
//! deduplicates by fingerprint, re-derives the union's level, and estimates
//! `|cell| · 2^level` exactly as the centralised `ApproxMC` does.
//! Communication is Õ(k·(n + 1/ε²)·log(1/δ)) bits.
//!
//! (The paper sends `TrailZero(H[i](x))`; with our MSB-first prefix-slice
//! convention the statistic that determines cell membership at level `m` is
//! the number of *leading* zeros of `H_i(x)`, which is what the sites send —
//! the same information under the mirrored bit convention.)

use crate::comm::{CommLedger, DistributedOutcome};
use mcf0_counting::config::{median, CountingConfig};
use mcf0_formula::DnfFormula;
use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, ToeplitzHash, XorHash, Xoshiro256StarStar};
use mcf0_sat::bounded_sat_dnf;
use std::collections::HashMap;

/// Number of leading zero bits of a hash value (how deep a level the item
/// survives to).
fn leading_zeros(v: &BitVec) -> usize {
    v.leading_one().unwrap_or(v.len())
}

/// One site's upload for one row: its local level and one
/// ⟨fingerprint, leading-zeros⟩ tuple per cell member.
type SiteRowUpload = (usize, Vec<(u64, usize)>);

/// Runs the distributed Bucketing protocol over per-site DNF sub-formulas.
pub fn distributed_bucketing(
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
    let k = sites.len();
    let mut ledger = CommLedger::new();

    // Fingerprint width: collisions among at most k·Thresh·t uploaded items
    // should be unlikely (union bound with margin δ/2).
    let population = (k * thresh * config.rows).max(2) as f64;
    let fingerprint_bits =
        ((2.0 * population.log2() + (2.0 / config.delta).log2()).ceil() as usize).clamp(16, 64);
    let fingerprint = XorHash::sample(rng, n, fingerprint_bits);
    ledger.record_downlink((fingerprint.representation_bits() * k) as u64);

    // Coordinator: draw every row's cell hash (site work never touches the
    // RNG, so this is the sequence the row-by-row protocol draws).
    let hashes: Vec<ToeplitzHash> = (0..config.rows)
        .map(|_| ToeplitzHash::sample(rng, n, n))
        .collect();

    // Site side: per row, find the local level and produce one
    // ⟨fingerprint, leading-zeros⟩ tuple per cell member.
    let locals: Vec<Vec<SiteRowUpload>> = sites
        .iter()
        .map(|site| {
            hashes
                .iter()
                .map(|hash| {
                    let mut level = 0usize;
                    let mut cell = bounded_sat_dnf(site, hash, level, thresh);
                    while cell.count() >= thresh && level < n {
                        level += 1;
                        cell = bounded_sat_dnf(site, hash, level, thresh);
                    }
                    let tuples = cell
                        .solutions
                        .iter()
                        .map(|solution| {
                            (
                                fingerprint.eval(solution).to_u64(),
                                leading_zeros(&hash.eval(solution)),
                            )
                        })
                        .collect();
                    (level, tuples)
                })
                .collect()
        })
        .collect();

    let mut estimates = Vec::with_capacity(config.rows);
    for (row, hash) in hashes.iter().enumerate() {
        ledger.record_downlink((hash.representation_bits() * k) as u64);

        // Coordinator: ingest the uploads in site order (so fingerprint
        // collisions resolve exactly as in the row-by-row protocol).
        let mut tuples: HashMap<u64, usize> = HashMap::new();
        let mut max_site_level = 0usize;
        for site_locals in &locals {
            let (site_level, site_tuples) = &site_locals[row];
            max_site_level = max_site_level.max(*site_level);
            for &(fp, lz) in site_tuples {
                ledger.record_uplink((fingerprint_bits + 8) as u64);
                // Identical fingerprints from different sites refer to the
                // same solution (with high probability), so keep one copy.
                tuples.insert(fp, lz);
            }
        }

        // Coordinator side: raise the level until the union's cell is small.
        let mut level = max_site_level;
        let mut cell_size = tuples.values().filter(|&&lz| lz >= level).count();
        while cell_size >= thresh && level < n {
            level += 1;
            cell_size = tuples.values().filter(|&&lz| lz >= level).count();
        }
        estimates.push(cell_size as f64 * 2f64.powi(level as i32));
    }

    DistributedOutcome {
        estimate: median(&estimates),
        ledger,
        sites: k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::exact::count_dnf_exact;
    use mcf0_formula::generators::{partition_dnf, planted_dnf, random_dnf};

    #[test]
    fn distributed_estimate_matches_centralised_ground_truth() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(601);
        let f = random_dnf(&mut rng, 14, 12, (3, 6));
        let exact = count_dnf_exact(&f) as f64;
        let sites = partition_dnf(&mut rng, &f, 4);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
        let out = distributed_bucketing(&sites, &config, &mut rng);
        assert!(
            out.estimate >= exact / 2.5 && out.estimate <= exact * 2.5,
            "estimate {} vs exact {exact}",
            out.estimate
        );
    }

    #[test]
    fn small_counts_are_exact() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(602);
        let (f, _) = planted_dnf(&mut rng, 12, 80);
        let sites = partition_dnf(&mut rng, &f, 3);
        let config = CountingConfig::explicit(0.8, 0.2, 150, 5);
        let out = distributed_bucketing(&sites, &config, &mut rng);
        assert_eq!(out.estimate, 80.0);
    }

    #[test]
    fn leading_zero_helper() {
        assert_eq!(leading_zeros(&BitVec::from_u64(0, 8)), 8);
        assert_eq!(leading_zeros(&BitVec::from_u64(1, 8)), 7);
        assert_eq!(leading_zeros(&BitVec::from_u64(0b1000_0000, 8)), 0);
    }

    #[test]
    fn uplink_cost_tracks_cell_sizes_not_formula_sizes() {
        // A site whose sub-formula has a huge solution count still uploads at
        // most Thresh tuples per hash function.
        let mut rng = Xoshiro256StarStar::seed_from_u64(603);
        let f = DnfFormula::parse_text("p dnf 16 1\n1 0\n").unwrap(); // 2^15 solutions
        let config = CountingConfig::explicit(0.8, 0.3, 30, 3);
        let out = distributed_bucketing(&[f], &config, &mut rng);
        let max_tuples = (config.rows * config.thresh) as u64;
        let per_tuple_bits = 64 + 8;
        assert!(out.ledger.uplink_bits() <= max_tuples * per_tuple_bits);
    }
}
