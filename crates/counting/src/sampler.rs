//! Hashing-based almost-uniform sampling of satisfying assignments.
//!
//! Section 6 of the paper ("Sampling") points out that approximate counting
//! and almost-uniform sampling are inter-reducible (Jerrum–Valiant–Vazirani)
//! and asks for the streaming↔counting bridge to be explored for sampling as
//! well. This module provides the counting-side half of that programme: a
//! UniGen-style sampler built from exactly the same ingredients as the
//! Bucketing counter — pairwise-independent prefix-sliced hashes and the
//! `BoundedSAT` cell probe.
//!
//! The construction: estimate `|Sol(φ)|` roughly, choose a level `m` so that
//! a random cell `Sol(φ ∧ h_m(x) = 0^m)` is expected to hold about `pivot`
//! solutions, draw a hash, enumerate the cell, and return a uniformly random
//! member if the cell size lands inside `[1, hi]`; otherwise redraw. Within a
//! cell the choice is exactly uniform, and pairwise independence of the hash
//! family makes every solution land in the accepted cell with nearly the same
//! probability — the classical UniGen argument.

use crate::config::CountingConfig;
use crate::est_based::rough_log2_estimate;
use crate::input::FormulaInput;
use mcf0_formula::Assignment;
use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::{bounded_sat_cnf, bounded_sat_dnf, SatOracle, SolutionOracle};

/// Configuration of the almost-uniform sampler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Target cell size (the UniGen "pivot"). Larger pivots cost more
    /// enumeration per sample but tighten the uniformity guarantee.
    pub pivot: usize,
    /// How many fresh hash draws to try before giving up on one sample.
    pub max_retries: usize,
    /// How many independent hash draws feed the rough count estimate.
    pub rough_repeats: usize,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            pivot: 20,
            max_retries: 32,
            rough_repeats: 7,
        }
    }
}

/// Statistics describing one sampling run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Hash draws that produced an accepted cell.
    pub accepted_cells: u64,
    /// Hash draws whose cell was rejected (empty or overfull).
    pub rejected_cells: u64,
    /// NP-oracle calls issued by the CNF path (0 for DNF inputs).
    pub oracle_calls: u64,
}

/// An almost-uniform sampler over `Sol(φ)`.
///
/// The sampler fixes its level from one rough counting pass at construction
/// time and then draws independent cells per sample, so samples are i.i.d.
/// across calls (conditioned on the level choice).
pub struct ApproxSampler {
    input: FormulaInput,
    config: SamplerConfig,
    level: usize,
    stats: SamplerStats,
    /// Persistent solver for CNF inputs; each cell probe pushes and pops its
    /// hash rows instead of rebuilding the solver.
    cnf_oracle: Option<SatOracle>,
}

impl ApproxSampler {
    /// Builds a sampler for the formula, spending a few oracle calls (CNF) or
    /// polynomial-time probes (DNF) on a rough estimate of `log₂|Sol(φ)|`.
    ///
    /// Returns `None` if the formula is unsatisfiable.
    pub fn new(
        input: FormulaInput,
        config: SamplerConfig,
        rng: &mut Xoshiro256StarStar,
    ) -> Option<Self> {
        assert!(config.pivot >= 2, "pivot must be at least 2");
        assert!(config.max_retries >= 1);
        let rough = rough_log2_estimate(&input, config.rough_repeats.max(1), rng)?;
        // Aim cells at roughly `pivot` solutions: level ≈ log2(|Sol|) − log2(pivot).
        let pivot_bits = (config.pivot as f64).log2().floor() as u32;
        let level = rough.saturating_sub(pivot_bits) as usize;
        let level = level.min(input.num_vars());
        let cnf_oracle = match &input {
            FormulaInput::Cnf(cnf) => Some(SatOracle::new(cnf.clone())),
            FormulaInput::Dnf(_) => None,
        };
        Some(ApproxSampler {
            input,
            config,
            level,
            stats: SamplerStats::default(),
            cnf_oracle,
        })
    }

    /// The cell level (hash prefix length) the sampler settled on.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Counters accumulated over all samples drawn so far.
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }

    /// Draws one almost-uniform satisfying assignment, or `None` if every
    /// retry produced an unusable cell (e.g. the formula became effectively
    /// unreachable at the chosen level — extremely unlikely for satisfiable
    /// formulas and sensible pivots).
    pub fn sample(&mut self, rng: &mut Xoshiro256StarStar) -> Option<Assignment> {
        let n = self.input.num_vars();
        // Accept cells of up to `hi` solutions; the enumeration limit is one
        // past that so saturation is detectable.
        let hi = self.config.pivot * 4;
        for _ in 0..self.config.max_retries {
            let hash = ToeplitzHash::sample(rng, n, n);
            let cell = match &self.input {
                FormulaInput::Cnf(_) => {
                    let oracle = self.cnf_oracle.as_mut().expect("CNF input has an oracle");
                    let calls_before = oracle.stats().sat_calls;
                    let result = bounded_sat_cnf(oracle, &hash, self.level, hi + 1);
                    self.stats.oracle_calls += oracle.stats().sat_calls - calls_before;
                    result
                }
                FormulaInput::Dnf(dnf) => bounded_sat_dnf(dnf, &hash, self.level, hi + 1),
            };
            let count = cell.count();
            if count == 0 || count > hi {
                self.stats.rejected_cells += 1;
                continue;
            }
            self.stats.accepted_cells += 1;
            let index = rng.gen_range(count as u64) as usize;
            return Some(cell.solutions[index].clone());
        }
        None
    }

    /// Draws `k` samples (skipping failed draws), returning possibly fewer
    /// than `k` assignments if retries are exhausted repeatedly.
    pub fn sample_many(&mut self, k: usize, rng: &mut Xoshiro256StarStar) -> Vec<Assignment> {
        (0..k).filter_map(|_| self.sample(rng)).collect()
    }
}

/// Convenience wrapper: build a sampler with [`SamplerConfig::default`] and
/// draw `k` samples. The `counting_config` is unused beyond sanity checks but
/// keeps the call shape parallel to the counters.
pub fn sample_solutions(
    input: &FormulaInput,
    _counting_config: &CountingConfig,
    k: usize,
    rng: &mut Xoshiro256StarStar,
) -> Vec<Assignment> {
    match ApproxSampler::new(input.clone(), SamplerConfig::default(), rng) {
        Some(mut sampler) => sampler.sample_many(k, rng),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::exact::{count_cnf_dpll, enumerate_cnf_solutions, enumerate_dnf_solutions};
    use mcf0_formula::generators::{planted_dnf, random_k_cnf};
    use mcf0_formula::DnfFormula;
    use std::collections::HashMap;

    #[test]
    fn every_sample_satisfies_the_formula() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(301);
        let (f, _) = planted_dnf(&mut rng, 12, 300);
        let input = FormulaInput::Dnf(f.clone());
        let mut sampler =
            ApproxSampler::new(input, SamplerConfig::default(), &mut rng).expect("satisfiable");
        let samples = sampler.sample_many(50, &mut rng);
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(f.eval(s));
        }
        assert!(sampler.stats().accepted_cells > 0);
    }

    #[test]
    fn cnf_samples_satisfy_and_use_the_oracle() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(302);
        let f = loop {
            let candidate = random_k_cnf(&mut rng, 9, 14, 3);
            if count_cnf_dpll(&candidate) >= 10 {
                break candidate;
            }
        };
        let input = FormulaInput::Cnf(f.clone());
        let mut sampler =
            ApproxSampler::new(input, SamplerConfig::default(), &mut rng).expect("satisfiable");
        let samples = sampler.sample_many(20, &mut rng);
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(f.eval(s));
        }
        assert!(sampler.stats().oracle_calls > 0);
    }

    #[test]
    fn unsatisfiable_formulas_yield_no_sampler() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(303);
        let input = FormulaInput::Dnf(DnfFormula::contradiction(8));
        assert!(ApproxSampler::new(input, SamplerConfig::default(), &mut rng).is_none());
    }

    /// Draws 600 samples and fails unless every one is a solution, every
    /// solution appears, and none is drawn 4× more or less often than
    /// uniform. A statistical smoke test of the UniGen-style uniformity, not
    /// a proof.
    fn assert_sampled_nearly_uniformly(
        input: FormulaInput,
        solutions: &[Assignment],
        rng: &mut Xoshiro256StarStar,
    ) {
        let mut sampler =
            ApproxSampler::new(input, SamplerConfig::default(), rng).expect("satisfiable");
        let samples = sampler.sample_many(600, rng);
        assert!(
            samples.len() >= 550,
            "too many rejected draws: {}",
            samples.len()
        );

        let mut frequency: HashMap<Vec<bool>, usize> = HashMap::new();
        for s in &samples {
            assert!(solutions.contains(s), "a sample is not a solution");
            *frequency.entry(s.iter().collect()).or_default() += 1;
        }
        assert_eq!(
            frequency.len(),
            solutions.len(),
            "some solution was never sampled"
        );
        let expected = samples.len() as f64 / solutions.len() as f64;
        for &count in frequency.values() {
            assert!(
                (count as f64) > expected / 4.0 && (count as f64) < expected * 4.0,
                "solution frequency {count} too far from uniform expectation {expected}"
            );
        }
    }

    #[test]
    fn small_solution_sets_are_sampled_nearly_uniformly() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(304);
        let (f, _) = planted_dnf(&mut rng, 10, 24);
        let solutions = enumerate_dnf_solutions(&f);
        assert_eq!(solutions.len(), 24);
        assert_sampled_nearly_uniformly(FormulaInput::Dnf(f), &solutions, &mut rng);
    }

    #[test]
    fn small_cnf_solution_sets_are_sampled_nearly_uniformly() {
        // A CNF cell's models come from the solver's enumeration, so these
        // draws are the one output that depends on the order in which the
        // solver returns them.
        let mut rng = Xoshiro256StarStar::seed_from_u64(306);
        let f = loop {
            let candidate = random_k_cnf(&mut rng, 10, 30, 3);
            if (20..=28).contains(&count_cnf_dpll(&candidate)) {
                break candidate;
            }
        };
        let solutions = enumerate_cnf_solutions(&f);
        assert_sampled_nearly_uniformly(FormulaInput::Cnf(f), &solutions, &mut rng);
    }

    #[test]
    fn convenience_wrapper_returns_the_requested_number_of_samples() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(305);
        let (f, _) = planted_dnf(&mut rng, 11, 100);
        let config = CountingConfig::explicit(0.8, 0.2, 50, 3);
        let samples = sample_solutions(&FormulaInput::Dnf(f.clone()), &config, 25, &mut rng);
        assert_eq!(samples.len(), 25);
        for s in &samples {
            assert!(f.eval(s));
        }
    }
}
