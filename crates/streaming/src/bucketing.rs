//! The Bucketing strategy (Gibbons–Tirthapura adaptive sampling).
//!
//! Each of the `t` rows holds a pairwise-independent hash
//! `h ∈ H_Toeplitz(n, n)`, a sampling level `m`, and the set of distinct
//! stream items falling in the cell `h_m^{-1}(0^m)`. When the cell exceeds
//! `Thresh` items the level increases and the cell is re-filtered. The row's
//! estimate is `|cell| · 2^m`; the sketch reports the median over rows.
//! This is the streaming algorithm whose transformation recipe yields
//! `ApproxMC` (Section 3.2 of the paper).

use crate::config::{median, F0Config};
use crate::sketch::F0Sketch;
use mcf0_hashing::{LinearHash, ToeplitzHash, Xoshiro256StarStar};
use std::collections::BTreeSet;

#[derive(Clone)]
struct BucketRow {
    hash: ToeplitzHash,
    level: usize,
    cell: BTreeSet<u64>,
}

impl BucketRow {
    /// Folds one item into the row, word-packed: the cell-membership test
    /// is one `lead_u64` of the `u64` item (no `BitVec` materialisation
    /// anywhere on this path).
    fn update(&mut self, item: u64, thresh: usize, universe_bits: usize) {
        if self.hash.prefix_is_zero_u64(item, self.level) {
            self.cell.insert(item);
            // Overflow: raise the level until the cell fits again
            // (normally one step, but degenerate hash draws may need more).
            while self.cell.len() > thresh && self.level < universe_bits {
                self.level += 1;
                let hash = &self.hash;
                let level = self.level;
                self.cell.retain(|&y| hash.prefix_is_zero_u64(y, level));
            }
        }
    }
}

/// Bucketing-based (ε, δ) F0 sketch.
#[derive(Clone)]
pub struct BucketingF0 {
    universe_bits: usize,
    thresh: usize,
    rows: Vec<BucketRow>,
}

impl BucketingF0 {
    /// Creates the sketch, drawing `t` independent hash functions.
    pub fn new(universe_bits: usize, config: &F0Config, rng: &mut Xoshiro256StarStar) -> Self {
        assert!((1..=64).contains(&universe_bits));
        let rows = (0..config.rows)
            .map(|_| BucketRow {
                hash: ToeplitzHash::sample(rng, universe_bits, universe_bits),
                level: 0,
                cell: BTreeSet::new(),
            })
            .collect();
        BucketingF0 {
            universe_bits,
            thresh: config.thresh,
            rows,
        }
    }

    /// Sampling level of row `i` (used by tests and the distributed variant).
    pub fn level(&self, row: usize) -> usize {
        self.rows[row].level
    }

    /// Bucket size `Thresh`.
    pub fn thresh(&self) -> usize {
        self.thresh
    }

    /// Number of repetition rows `t`.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Row `i`'s hash draw, sampling level and cell contents — the complete
    /// per-row state, exported for snapshots.
    pub fn row_parts(&self, i: usize) -> (&ToeplitzHash, usize, &BTreeSet<u64>) {
        let row = &self.rows[i];
        (&row.hash, row.level, &row.cell)
    }

    /// Rebuilds a sketch from exported per-row state (snapshot restore);
    /// bit-identical to the source sketch.
    pub fn from_parts(
        universe_bits: usize,
        thresh: usize,
        rows: Vec<(ToeplitzHash, usize, BTreeSet<u64>)>,
    ) -> Self {
        assert!((1..=64).contains(&universe_bits));
        assert!(thresh >= 1);
        let rows = rows
            .into_iter()
            .map(|(hash, level, cell)| {
                assert_eq!(hash.input_bits(), universe_bits, "hash input width");
                assert_eq!(hash.output_bits(), universe_bits, "hash output width");
                assert!(level <= universe_bits, "level beyond the hash range");
                assert!(
                    universe_bits == 64 || cell.iter().all(|&x| x < (1u64 << universe_bits)),
                    "cell item outside the declared universe"
                );
                BucketRow { hash, level, cell }
            })
            .collect();
        BucketingF0 {
            universe_bits,
            thresh,
            rows,
        }
    }

    /// Merges another sketch of the same draw into this one, in place:
    /// distinct-union semantics. Per row, the merged level starts at the
    /// larger of the two levels, both cells are re-filtered through it, and
    /// the usual overflow loop then raises it further if needed — exactly
    /// the state reached by processing both streams into one sketch, because
    /// a row's final state is `(m*, h_{m*}^{-1}(0^{m*}) ∩ items)` with `m*`
    /// the smallest level at which that intersection fits, and each side's
    /// final level lower-bounds the union's. Panics on a draw mismatch.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.universe_bits, other.universe_bits, "universe width");
        assert_eq!(self.thresh, other.thresh, "Thresh mismatch");
        assert_eq!(self.rows.len(), other.rows.len(), "row count mismatch");
        let thresh = self.thresh;
        let universe_bits = self.universe_bits;
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            assert!(
                mine.hash == theirs.hash,
                "merge requires identical hash draws"
            );
            if theirs.level > mine.level {
                mine.level = theirs.level;
                let hash = &mine.hash;
                let level = mine.level;
                mine.cell.retain(|&y| hash.prefix_is_zero_u64(y, level));
            }
            for &x in &theirs.cell {
                if mine.hash.prefix_is_zero_u64(x, mine.level) {
                    mine.cell.insert(x);
                }
            }
            while mine.cell.len() > thresh && mine.level < universe_bits {
                mine.level += 1;
                let hash = &mine.hash;
                let level = mine.level;
                mine.cell.retain(|&y| hash.prefix_is_zero_u64(y, level));
            }
        }
    }
}

impl F0Sketch for BucketingF0 {
    fn universe_bits(&self) -> usize {
        self.universe_bits
    }

    fn process(&mut self, item: u64) {
        // Hard check (not debug-only): the cell test would silently ignore
        // out-of-range high bits while the cell stored them.
        assert!(
            self.universe_bits == 64 || item < (1u64 << self.universe_bits),
            "item outside the declared universe"
        );
        let thresh = self.thresh;
        let universe_bits = self.universe_bits;
        for row in &mut self.rows {
            row.update(item, thresh, universe_bits);
        }
    }

    /// Batched path: each row folds the whole batch in turn. Identical to
    /// the item-at-a-time path bit for bit. No deduplication: a repeated
    /// item costs one cell test per row, less than the hash-set probe that
    /// would drop it (DESIGN.md §6).
    fn process_stream(&mut self, items: &[u64]) {
        let thresh = self.thresh;
        let universe_bits = self.universe_bits;
        assert!(
            universe_bits == 64 || items.iter().all(|&x| x < (1u64 << universe_bits)),
            "item outside the declared universe"
        );
        for row in &mut self.rows {
            for &item in items {
                row.update(item, thresh, universe_bits);
            }
        }
    }

    fn estimate(&self) -> f64 {
        let estimates: Vec<f64> = self
            .rows
            .iter()
            .map(|row| row.cell.len() as f64 * 2f64.powi(row.level as i32))
            .collect();
        median(&estimates)
    }

    fn space_bits(&self) -> usize {
        self.rows
            .iter()
            .map(|row| {
                row.hash.representation_bits()
                    + usize::BITS as usize
                    + row.cell.len() * self.universe_bits
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::planted_f0_stream;

    fn run(universe_bits: usize, distinct: usize, epsilon: f64) -> (f64, f64) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(101);
        let config = F0Config::paper(epsilon, 0.2);
        let mut sketch = BucketingF0::new(universe_bits, &config, &mut rng);
        let stream = planted_f0_stream(&mut rng, universe_bits, distinct, 4 * distinct);
        sketch.process_stream(&stream);
        (sketch.estimate(), distinct as f64)
    }

    #[test]
    fn small_streams_are_counted_exactly() {
        // With F0 below Thresh no row ever overflows, so the sketch is exact.
        let (est, truth) = run(32, 50, 0.8);
        assert_eq!(est, truth);
    }

    #[test]
    fn large_streams_are_within_the_error_bound() {
        let (est, truth) = run(32, 20_000, 0.8);
        assert!(
            est >= truth / 1.8 && est <= truth * 1.8,
            "estimate {est} too far from {truth}"
        );
    }

    #[test]
    fn duplicates_do_not_change_the_estimate() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let config = F0Config::explicit(0.8, 0.2, 150, 11);
        let mut a = BucketingF0::new(24, &config, &mut rng);
        let mut rng2 = Xoshiro256StarStar::seed_from_u64(5);
        let mut b = BucketingF0::new(24, &config, &mut rng2);
        let stream = planted_f0_stream(&mut rng, 24, 500, 500);
        let mut doubled = stream.clone();
        doubled.extend_from_slice(&stream);
        a.process_stream(&stream);
        b.process_stream(&doubled);
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn levels_rise_with_stream_cardinality() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let config = F0Config::explicit(0.8, 0.2, 32, 5);
        let mut sketch = BucketingF0::new(32, &config, &mut rng);
        let stream = planted_f0_stream(&mut rng, 32, 5000, 5000);
        sketch.process_stream(&stream);
        for i in 0..5 {
            assert!(sketch.level(i) > 0, "row {i} never overflowed");
        }
        assert!(sketch.space_bits() > 0);
    }
}
