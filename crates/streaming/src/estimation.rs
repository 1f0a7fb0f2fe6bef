//! The Estimation strategy (trailing-zero sketches).
//!
//! For each of the `t` rows the sketch holds `Thresh` independent hashes
//! drawn from the s-wise independent polynomial family (s = O(log 1/ε)) and
//! records, per hash, the maximum number of trailing zeros seen over the
//! stream (the paper's relation P3). Given a value `r` with
//! `2·F0 ≤ 2^r ≤ 50·F0`, each row estimates
//! `ln(1 − ρ) / ln(1 − 2^{-r})` where `ρ` is the fraction of its hashes whose
//! maximum reached `r`; the sketch reports the median over rows. The
//! transformation recipe applied to this strategy yields
//! `ApproxModelCountEst` (Section 3.4 of the paper).

use crate::batch::dedup_preserving_order;
use crate::config::{median, F0Config};
use crate::sketch::F0Sketch;
use mcf0_hashing::{SWiseHash, SWisePoint, Xoshiro256StarStar};

#[derive(Clone)]
struct EstimationRow {
    hashes: Vec<SWiseHash>,
    max_trailing: Vec<u32>,
}

impl EstimationRow {
    /// Folds one prepared item into the row: per hash, keep the maximum
    /// trailing-zero count. The prepared point shares its
    /// multiply-by-the-item window table across every hash of the row — the
    /// amortisation that makes wide universes (`w > 20`) cheap.
    fn update_at(&mut self, point: &SWisePoint) {
        for (hash, slot) in self.hashes.iter().zip(self.max_trailing.iter_mut()) {
            let tz = hash.trail_zero_at(point);
            if tz > *slot {
                *slot = tz;
            }
        }
    }
}

/// Estimation-based F0 sketch (needs an externally supplied `r`; see
/// [`EstimationF0::estimate_with_r`] and the Flajolet–Martin rough
/// estimator).
#[derive(Clone)]
pub struct EstimationF0 {
    universe_bits: usize,
    thresh: usize,
    rows: Vec<EstimationRow>,
}

impl EstimationF0 {
    /// Creates the sketch, drawing `t · Thresh` hash functions of
    /// independence `s = ⌈10·log₂(1/ε)⌉`.
    pub fn new(universe_bits: usize, config: &F0Config, rng: &mut Xoshiro256StarStar) -> Self {
        assert!((1..=64).contains(&universe_bits));
        let s = config.s_wise_independence();
        let rows = (0..config.rows)
            .map(|_| EstimationRow {
                hashes: (0..config.thresh)
                    .map(|_| SWiseHash::sample(rng, universe_bits as u32, s))
                    .collect(),
                max_trailing: vec![0; config.thresh],
            })
            .collect();
        EstimationF0 {
            universe_bits,
            thresh: config.thresh,
            rows,
        }
    }

    /// The estimate given a value `r` satisfying `2·F0 ≤ 2^r ≤ 50·F0`
    /// (Lemma 3 of the paper). Returns `None` when `r = 0` or when every row
    /// is degenerate (ρ = 0 or ρ = 1, which the valid-`r` window precludes).
    pub fn estimate_with_r(&self, r: u32) -> Option<f64> {
        if r == 0 {
            return None;
        }
        let denominator = (1.0 - 2f64.powi(-(r as i32))).ln();
        let mut estimates = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let hits = row.max_trailing.iter().filter(|&&m| m >= r).count();
            let rho = hits as f64 / self.thresh as f64;
            if rho >= 1.0 {
                // Every hash reached r: the formula degenerates; skip the row.
                continue;
            }
            estimates.push((1.0 - rho).ln() / denominator);
        }
        if estimates.is_empty() {
            None
        } else {
            Some(median(&estimates))
        }
    }

    /// Sketch cell `S[i][j]` (used by the differential tests against the
    /// counting-side construction of the same sketch).
    pub fn cell(&self, i: usize, j: usize) -> u32 {
        self.rows[i].max_trailing[j]
    }

    /// Number of rows `t`.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Reservoir width `Thresh`.
    pub fn thresh(&self) -> usize {
        self.thresh
    }

    /// Row `i`'s hash draws and trailing-zero cells — the complete per-row
    /// state, exported for snapshots.
    pub fn row_parts(&self, i: usize) -> (&[SWiseHash], &[u32]) {
        (&self.rows[i].hashes, &self.rows[i].max_trailing)
    }

    /// Rebuilds a sketch from exported per-row state (snapshot restore);
    /// bit-identical to the source sketch.
    pub fn from_parts(
        universe_bits: usize,
        thresh: usize,
        rows: Vec<(Vec<SWiseHash>, Vec<u32>)>,
    ) -> Self {
        assert!((1..=64).contains(&universe_bits));
        assert!(thresh >= 1);
        let rows = rows
            .into_iter()
            .map(|(hashes, max_trailing)| {
                assert_eq!(hashes.len(), thresh, "hash count must equal Thresh");
                assert_eq!(max_trailing.len(), thresh, "cell count must equal Thresh");
                assert!(
                    hashes.iter().all(|h| h.width() as usize == universe_bits),
                    "hash width mismatch"
                );
                assert!(
                    max_trailing.iter().all(|&m| m as usize <= universe_bits),
                    "trailing-zero count beyond the hash width"
                );
                EstimationRow {
                    hashes,
                    max_trailing,
                }
            })
            .collect();
        EstimationF0 {
            universe_bits,
            thresh,
            rows,
        }
    }

    /// Merges another sketch of the same draw into this one, in place:
    /// distinct-union semantics. Each cell holds the maximum trailing-zero
    /// count its hash reached over the stream, so the merged cell is the
    /// pairwise maximum — exactly the state after processing both streams
    /// into one sketch. Panics on a draw or shape mismatch.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.universe_bits, other.universe_bits, "universe width");
        assert_eq!(self.thresh, other.thresh, "Thresh mismatch");
        assert_eq!(self.rows.len(), other.rows.len(), "row count mismatch");
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            assert!(
                mine.hashes == theirs.hashes,
                "merge requires identical hash draws"
            );
            for (slot, &m) in mine.max_trailing.iter_mut().zip(&theirs.max_trailing) {
                if m > *slot {
                    *slot = m;
                }
            }
        }
    }
}

impl F0Sketch for EstimationF0 {
    fn universe_bits(&self) -> usize {
        self.universe_bits
    }

    fn process(&mut self, item: u64) {
        let point = SWisePoint::prepare(self.universe_bits as u32, item);
        for row in &mut self.rows {
            row.update_at(&point);
        }
    }

    /// Batched path: deduplicate the batch (the cells are functions of the
    /// distinct-item set), then fold each distinct item as
    /// [`F0Sketch::process`] does. Identical to the item-at-a-time path bit
    /// for bit.
    fn process_stream(&mut self, items: &[u64]) {
        for item in dedup_preserving_order(items) {
            self.process(item);
        }
    }

    /// Without an externally supplied `r`, fall back to the coarse
    /// Flajolet–Martin-style estimate: every cell `S[i][j]` is the maximum
    /// trailing-zero count of hash `j` over the stream, so `2^{S[i][j]}` is a
    /// constant-factor F0 estimator; the row reports the median over its
    /// `Thresh` cells and the sketch the median over rows. Prefer
    /// [`EstimationF0::estimate_with_r`] for the (ε, δ) guarantee.
    fn estimate(&self) -> f64 {
        let estimates: Vec<f64> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<f64> = row
                    .max_trailing
                    .iter()
                    .map(|&m| 2f64.powi(m as i32))
                    .collect();
                median(&cells)
            })
            .collect();
        median(&estimates)
    }

    fn space_bits(&self) -> usize {
        self.rows
            .iter()
            .map(|row| {
                row.hashes
                    .iter()
                    .map(|h| h.independence() * self.universe_bits)
                    .sum::<usize>()
                    + row.max_trailing.len() * 8
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::planted_f0_stream;

    fn run_with_truth(truth: usize) -> (EstimationF0, usize) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(55);
        // Modest constants keep the test fast; accuracy checks are loose.
        let config = F0Config::explicit(0.5, 0.2, 64, 7);
        let mut sketch = EstimationF0::new(32, &config, &mut rng);
        let stream = planted_f0_stream(&mut rng, 32, truth, truth + truth / 4);
        sketch.process_stream(&stream);
        (sketch, truth)
    }

    fn valid_r(truth: usize) -> u32 {
        // Any r with 2·F0 ≤ 2^r ≤ 50·F0; pick 2^r ≈ 8·F0.
        ((truth as f64 * 8.0).log2().round()) as u32
    }

    #[test]
    fn estimate_with_valid_r_is_accurate() {
        let (sketch, truth) = run_with_truth(800);
        let r = valid_r(truth);
        let est = sketch
            .estimate_with_r(r)
            .expect("valid r yields an estimate");
        assert!(
            est >= truth as f64 * 0.5 && est <= truth as f64 * 1.5,
            "estimate {est} too far from {truth}"
        );
    }

    #[test]
    fn estimate_with_r_zero_is_rejected() {
        let (sketch, _) = run_with_truth(100);
        assert!(sketch.estimate_with_r(0).is_none());
    }

    #[test]
    fn coarse_estimate_is_within_a_constant_factor() {
        let (sketch, truth) = run_with_truth(1024);
        let est = sketch.estimate();
        assert!(
            est >= truth as f64 / 32.0 && est <= truth as f64 * 32.0,
            "coarse estimate {est} wildly off from {truth}"
        );
    }

    #[test]
    fn cells_are_monotone_under_more_items() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(56);
        let config = F0Config::explicit(0.5, 0.3, 10, 3);
        let mut sketch = EstimationF0::new(16, &config, &mut rng);
        let stream = planted_f0_stream(&mut rng, 16, 200, 200);
        sketch.process_stream(&stream[..100]);
        let before: Vec<u32> = (0..3)
            .flat_map(|i| (0..10).map(move |j| (i, j)))
            .map(|(i, j)| sketch.cell(i, j))
            .collect();
        sketch.process_stream(&stream[100..]);
        let after: Vec<u32> = (0..3)
            .flat_map(|i| (0..10).map(move |j| (i, j)))
            .map(|(i, j)| sketch.cell(i, j))
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert!(a >= b);
        }
    }
}
