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
use mcf0_counting::estimate_from_minima;
use mcf0_formula::Term;
use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, ToeplitzHash, Xoshiro256StarStar};
use std::collections::BTreeSet;

/// A stream item representing a subset of `{0,1}^n` succinctly.
pub trait StructuredSet {
    /// Universe width `n` (number of Boolean variables).
    fn num_vars(&self) -> usize;

    /// The `p` lexicographically smallest values of `h(S)`, ascending.
    fn smallest_hashed(&self, hash: &ToeplitzHash, p: usize) -> Vec<BitVec>;

    /// Up to `limit` distinct members of `S ∩ h_m^{-1}(0^m)` (the Bucketing
    /// per-item query). The default routes through [`Self::smallest_hashed`]
    /// implementors with cube structure override it for efficiency.
    fn members_in_cell(&self, hash: &ToeplitzHash, level: usize, limit: usize) -> Vec<BitVec>;

    /// Exact number of elements of the set, when cheaply available
    /// (used by tests and the naive baseline).
    fn exact_size(&self) -> Option<u128> {
        None
    }
}

/// Merges the `p` smallest hashed values of a collection of cubes (terms)
/// over `n` variables — the shared implementation of `smallest_hashed` for
/// every term-structured item type.
pub fn smallest_hashed_from_terms<'a>(
    terms: impl Iterator<Item = &'a Term>,
    hash: &ToeplitzHash,
    p: usize,
) -> Vec<BitVec> {
    let mut merged: Vec<BitVec> = Vec::new();
    for term in terms {
        if term.is_contradictory() {
            continue;
        }
        let image = hash.image_of_cube(&term.fixed_assignments());
        merged.extend(image.lex_smallest_direct(p));
        merged.sort();
        merged.dedup();
        merged.truncate(p);
    }
    merged
}

/// Members of the hash cell `h_level^{-1}(0^level)` within a collection of
/// cubes, up to `limit` — the shared implementation of `members_in_cell`.
pub fn cell_members_from_terms<'a>(
    terms: impl Iterator<Item = &'a Term>,
    num_vars: usize,
    hash: &ToeplitzHash,
    level: usize,
    limit: usize,
) -> Vec<BitVec> {
    use mcf0_gf2::BitMatrix;
    let mut found: BTreeSet<BitVec> = BTreeSet::new();
    'terms: for term in terms {
        if term.is_contradictory() {
            continue;
        }
        let fixed = term.fixed_assignments();
        let mut is_fixed = vec![false; num_vars];
        let mut base = BitVec::zeros(num_vars);
        for &(v, val) in &fixed {
            is_fixed[v] = true;
            base.set(v, val);
        }
        let free_vars: Vec<usize> = (0..num_vars).filter(|&v| !is_fixed[v]).collect();
        let rows = BitMatrix::from_fn(level, free_vars.len(), |i, j| {
            hash.matrix_row(i).get(free_vars[j])
        });
        let mut rhs = BitVec::zeros(level);
        for i in 0..level {
            rhs.set(i, hash.offset_bit(i) ^ hash.matrix_row(i).dot(&base));
        }
        let Some((particular, nullspace)) = rows.solve(&rhs) else {
            continue;
        };
        let dim = nullspace.len();
        let combos: u128 = if dim >= 64 { u128::MAX } else { 1u128 << dim };
        let mut mask: u128 = 0;
        loop {
            let mut free_assignment = particular.clone();
            for (j, v) in nullspace.iter().enumerate() {
                if (mask >> j) & 1 == 1 {
                    free_assignment.xor_assign(v);
                }
            }
            let mut full = base.clone();
            for (j, &v) in free_vars.iter().enumerate() {
                full.set(v, free_assignment.get(j));
            }
            found.insert(full);
            if found.len() >= limit {
                break 'terms;
            }
            mask += 1;
            if mask >= combos {
                break;
            }
        }
    }
    found.into_iter().collect()
}

/// Minimum-strategy F0 sketch over structured set streams (Theorem 5 /
/// Theorem 6 / Theorem 7 depending on the item type).
#[derive(Clone)]
pub struct StructuredMinimumF0 {
    universe_bits: usize,
    thresh: usize,
    rows: Vec<(ToeplitzHash, Vec<BitVec>)>,
    items_processed: u64,
}

impl StructuredMinimumF0 {
    /// Creates the sketch over `{0,1}^universe_bits`.
    pub fn new(
        universe_bits: usize,
        config: &CountingConfig,
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        assert!(universe_bits >= 1);
        let rows = (0..config.rows)
            .map(|_| {
                (
                    ToeplitzHash::sample(rng, universe_bits, 3 * universe_bits),
                    Vec::new(),
                )
            })
            .collect();
        StructuredMinimumF0 {
            universe_bits,
            thresh: config.thresh,
            rows,
            items_processed: 0,
        }
    }

    /// Universe width `n`.
    pub fn universe_bits(&self) -> usize {
        self.universe_bits
    }

    /// Number of items processed so far.
    pub fn items_processed(&self) -> u64 {
        self.items_processed
    }

    /// Reservoir size `Thresh`.
    pub fn thresh(&self) -> usize {
        self.thresh
    }

    /// Number of repetition rows `t`.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Row `i`'s hash draw and running minima — the complete per-row state,
    /// exported for snapshots.
    pub fn row_parts(&self, i: usize) -> (&ToeplitzHash, &[BitVec]) {
        (&self.rows[i].0, &self.rows[i].1)
    }

    /// Rebuilds a sketch from exported per-row state (snapshot restore);
    /// bit-identical to the source sketch.
    pub fn from_parts(
        universe_bits: usize,
        thresh: usize,
        rows: Vec<(ToeplitzHash, Vec<BitVec>)>,
        items_processed: u64,
    ) -> Self {
        assert!(universe_bits >= 1);
        assert!(thresh >= 1);
        for (hash, minima) in &rows {
            assert_eq!(hash.input_bits(), universe_bits, "hash input width");
            assert_eq!(hash.output_bits(), 3 * universe_bits, "hash output width");
            assert!(minima.len() <= thresh, "minima list larger than Thresh");
            assert!(
                minima.windows(2).all(|w| w[0] < w[1]),
                "minima must be strictly ascending"
            );
        }
        StructuredMinimumF0 {
            universe_bits,
            thresh,
            rows,
            items_processed,
        }
    }

    /// Merges another sketch of the same draw into this one, in place:
    /// distinct-union semantics over the item sets, exactly the per-row
    /// minima discipline of [`StructuredMinimumF0::process_item`] (union,
    /// sort, dedup, truncate to `Thresh`). Panics on a draw mismatch.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.universe_bits, other.universe_bits, "universe width");
        assert_eq!(self.thresh, other.thresh, "Thresh mismatch");
        assert_eq!(self.rows.len(), other.rows.len(), "row count mismatch");
        let thresh = self.thresh;
        for ((hash, minima), (other_hash, other_minima)) in self.rows.iter_mut().zip(&other.rows) {
            assert!(hash == other_hash, "merge requires identical hash draws");
            minima.extend(other_minima.iter().cloned());
            minima.sort();
            minima.dedup();
            minima.truncate(thresh);
        }
        self.items_processed += other.items_processed;
    }

    /// Processes one structured item: per row, merge the item's `Thresh`
    /// smallest hashed values into the running minima.
    pub fn process_item<S: StructuredSet + ?Sized>(&mut self, item: &S) {
        assert_eq!(
            item.num_vars(),
            self.universe_bits,
            "item universe width mismatch"
        );
        self.items_processed += 1;
        let thresh = self.thresh;
        for (hash, minima) in &mut self.rows {
            let local = item.smallest_hashed(hash, thresh);
            minima.extend(local);
            minima.sort();
            minima.dedup();
            minima.truncate(thresh);
        }
    }

    /// Current (ε, δ) estimate of `|⋃_i S_i|`.
    pub fn estimate(&self) -> f64 {
        let estimates: Vec<f64> = self
            .rows
            .iter()
            .map(|(_, minima)| estimate_from_minima(minima, self.thresh))
            .collect();
        median(&estimates)
    }

    /// Approximate sketch size in bits (hash representations + stored
    /// minima), for the space experiments.
    pub fn space_bits(&self) -> usize {
        self.rows
            .iter()
            .map(|(h, minima)| h.representation_bits() + minima.len() * 3 * self.universe_bits)
            .sum()
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
    fn helpers_agree_with_dnf_findmin_and_boundedsat() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(901);
        for _ in 0..5 {
            let f = random_dnf(&mut rng, 9, 5, (2, 4));
            let hash = ToeplitzHash::sample(&mut rng, 9, 27);
            let via_helper = smallest_hashed_from_terms(f.terms().iter(), &hash, 20);
            let via_findmin = mcf0_sat::find_min_dnf(&f, &hash, 20);
            assert_eq!(via_helper, via_findmin);

            let hash_nn = ToeplitzHash::sample(&mut rng, 9, 9);
            let cell = cell_members_from_terms(f.terms().iter(), 9, &hash_nn, 2, 1000);
            let expected = mcf0_sat::bounded_sat_dnf(&f, &hash_nn, 2, 1000);
            assert_eq!(cell, expected.solutions);
        }
    }

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
