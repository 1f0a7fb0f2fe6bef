//! The structured-stream F0 estimators.
//!
//! [`StructuredSet`] is the per-item interface: a stream item must be able to
//! report the `p` lexicographically smallest hashed values of its element set
//! under an affine hash (the per-item `FindMin`), and the smallest level at
//! which its intersection with a hash cell becomes small (the per-item
//! `BoundedSAT`-style query used by the Bucketing variant). DNF sets, ranges,
//! arithmetic progressions and affine spaces all implement it through their
//! cube / affine structure, which is what makes the per-item time polynomial
//! in the representation size.

use mcf0_counting::config::{median, CountingConfig};
use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, ToeplitzHash, Xoshiro256StarStar};
use mcf0_streaming::minimum::key_of;
use mcf0_streaming::{F0Config, F0Sketch, MinimumF0};
use std::collections::BTreeSet;

/// A stream item representing a subset of `{0,1}^n` succinctly.
pub trait StructuredSet {
    /// Universe width `n` (number of Boolean variables).
    fn num_vars(&self) -> usize;

    /// The `p` lexicographically smallest values of `h(S)`, strictly
    /// ascending.
    fn smallest_hashed(&self, hash: &ToeplitzHash, p: usize) -> Vec<BitVec>;

    /// Up to `limit` distinct members of `S ∩ h_m^{-1}(0^m)` (the Bucketing
    /// per-item query).
    fn members_in_cell(&self, hash: &ToeplitzHash, level: usize, limit: usize) -> Vec<BitVec>;

    /// Exact number of elements of the set, when cheaply available
    /// (used by tests and the naive baseline).
    fn exact_size(&self) -> Option<u128> {
        None
    }
}

/// Minimum-strategy F0 sketch over structured set streams (Theorem 5 /
/// Theorem 6 / Theorem 7 depending on the item type): the streaming
/// [`MinimumF0`] — same draws, same packed-key rows, same estimator — fed
/// each item's `Thresh` smallest hashed values per row instead of one
/// hashed item. Packed keys hold 3n-bit values, so `n ≤ 64`.
#[derive(Clone)]
pub struct StructuredMinimumF0 {
    sketch: MinimumF0,
    items_processed: u64,
}

impl StructuredMinimumF0 {
    /// Creates the sketch over `{0,1}^universe_bits`, `universe_bits` in
    /// `1..=64`.
    pub fn new(
        universe_bits: usize,
        config: &CountingConfig,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        let config = F0Config::explicit(config.epsilon, config.delta, config.thresh, config.rows);
        StructuredMinimumF0 {
            sketch: MinimumF0::new(universe_bits, &config, rng),
            items_processed: 0,
        }
    }

    /// Rebuilds a sketch from its rows and item count (snapshot restore);
    /// [`MinimumF0::from_parts`] validates the rows.
    pub fn from_parts(sketch: MinimumF0, items_processed: u64) -> Self {
        StructuredMinimumF0 {
            sketch,
            items_processed,
        }
    }

    /// The underlying Minimum sketch: the complete per-row state, exported
    /// for snapshots and draw comparison.
    pub fn minimum(&self) -> &MinimumF0 {
        &self.sketch
    }

    /// Number of items processed so far.
    pub fn items_processed(&self) -> u64 {
        self.items_processed
    }

    /// Merges another sketch of the same draw into this one, in place:
    /// distinct-union semantics over the item sets (see
    /// [`MinimumF0::merge_from`]). Panics on a draw mismatch.
    pub fn merge_from(&mut self, other: &Self) {
        self.sketch.merge_from(&other.sketch);
        self.items_processed += other.items_processed;
    }

    /// Processes one structured item: per row, merge the item's `Thresh`
    /// smallest hashed values into the reservoir.
    pub fn process_item<S: StructuredSet + ?Sized>(&mut self, item: &S) {
        assert_eq!(
            item.num_vars(),
            self.sketch.universe_bits(),
            "item universe width mismatch"
        );
        self.items_processed += 1;
        self.sketch.merge_rows(|hash, thresh| {
            let values = item.smallest_hashed(hash, thresh);
            values.iter().map(key_of).collect()
        });
    }

    /// Current (ε, δ) estimate of `|⋃_i S_i|`.
    pub fn estimate(&self) -> f64 {
        self.sketch.estimate()
    }

    /// Approximate sketch size in bits (hash representations + stored
    /// minima), for the space experiments.
    pub fn space_bits(&self) -> usize {
        self.sketch.space_bits()
    }
}

/// Bucketing-strategy F0 sketch over structured set streams (the alternative
/// mentioned after Theorem 5, provided for ablation benchmarks).
#[derive(Clone)]
pub struct StructuredBucketingF0 {
    universe_bits: usize,
    thresh: usize,
    rows: Vec<(ToeplitzHash, usize, BTreeSet<BitVec>)>,
}

impl StructuredBucketingF0 {
    /// Creates the sketch over `{0,1}^universe_bits`.
    pub fn new(
        universe_bits: usize,
        config: &CountingConfig,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        let rows = (0..config.rows)
            .map(|_| {
                (
                    ToeplitzHash::sample(rng, universe_bits, universe_bits),
                    0usize,
                    BTreeSet::new(),
                )
            })
            .collect();
        StructuredBucketingF0 {
            universe_bits,
            thresh: config.thresh,
            rows,
        }
    }

    /// Merges another sketch of the same draw into this one, in place:
    /// distinct-union semantics, by the same argument as the streaming
    /// [`mcf0_streaming::BucketingF0::merge_from`] — a row's final state is
    /// the cell of the union at the smallest level where it fits, and each
    /// side's level lower-bounds the union's. Panics on a draw mismatch.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.universe_bits, other.universe_bits, "universe width");
        assert_eq!(self.thresh, other.thresh, "Thresh mismatch");
        assert_eq!(self.rows.len(), other.rows.len(), "row count mismatch");
        let thresh = self.thresh;
        let n = self.universe_bits;
        for ((hash, level, bucket), (other_hash, other_level, other_bucket)) in
            self.rows.iter_mut().zip(&other.rows)
        {
            assert!(hash == other_hash, "merge requires identical hash draws");
            if *other_level > *level {
                *level = *other_level;
                let lvl = *level;
                let h = &*hash;
                bucket.retain(|x| h.prefix_is_zero(x, lvl));
            }
            for x in other_bucket {
                if hash.prefix_is_zero(x, *level) {
                    bucket.insert(x.clone());
                }
            }
            while bucket.len() > thresh && *level < n {
                *level += 1;
                let lvl = *level;
                let h = &*hash;
                bucket.retain(|x| h.prefix_is_zero(x, lvl));
            }
        }
    }

    /// Processes one structured item: per row, pull the item's members lying
    /// in the current cell, raising the level whenever the bucket overflows.
    pub fn process_item<S: StructuredSet + ?Sized>(&mut self, item: &S) {
        assert_eq!(item.num_vars(), self.universe_bits);
        let thresh = self.thresh;
        let n = self.universe_bits;
        for (hash, level, bucket) in &mut self.rows {
            loop {
                let members = item.members_in_cell(hash, *level, thresh + 1);
                for member in members {
                    bucket.insert(member);
                }
                if bucket.len() <= thresh || *level >= n {
                    break;
                }
                // Overflow: raise the level and re-filter the bucket; the
                // item is re-queried at the new level on the next loop
                // pass (its remaining members are a subset of what it
                // already contributed, so correctness is preserved).
                *level += 1;
                let lvl = *level;
                bucket.retain(|x| hash.prefix_is_zero(x, lvl));
            }
        }
    }

    /// Current estimate (`median of |bucket| · 2^level`).
    pub fn estimate(&self) -> f64 {
        let estimates: Vec<f64> = self
            .rows
            .iter()
            .map(|(_, level, bucket)| bucket.len() as f64 * 2f64.powi(*level as i32))
            .collect();
        median(&estimates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf_stream::DnfSet;
    use mcf0_formula::generators::random_dnf;

    #[test]
    fn minimum_and_bucketing_sketches_agree_on_small_unions() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(902);
        let config = CountingConfig::explicit(0.8, 0.2, 600, 5);
        let mut min_sketch = StructuredMinimumF0::new(10, &config, &mut rng);
        let mut bucket_sketch = StructuredBucketingF0::new(10, &config, &mut rng);
        let mut union = std::collections::HashSet::new();
        for _ in 0..5 {
            let f = random_dnf(&mut rng, 10, 3, (5, 7));
            for a in mcf0_formula::exact::enumerate_dnf_solutions(&f) {
                union.insert(a.to_u64());
            }
            let item = DnfSet::new(f);
            min_sketch.process_item(&item);
            bucket_sketch.process_item(&item);
        }
        // Small unions stay below Thresh, so both sketches are exact.
        assert_eq!(min_sketch.estimate(), union.len() as f64);
        assert_eq!(bucket_sketch.estimate(), union.len() as f64);
        assert_eq!(min_sketch.items_processed(), 5);
    }
}
