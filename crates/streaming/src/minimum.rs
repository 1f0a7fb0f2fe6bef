//! The Minimum strategy (k minimum values).
//!
//! Each row hashes items with `h ∈ H_Toeplitz(n, 3n)` — the 3n-bit output
//! makes the hash injective on the stream with high probability — and keeps
//! the `Thresh` lexicographically smallest distinct hash values. If the row
//! holds fewer than `Thresh` values the stream's F0 is exactly their number;
//! otherwise the row estimates `Thresh · 2^{3n} / max(S)`. The sketch reports
//! the median over rows. The transformation recipe applied to this strategy
//! yields `ApproxModelCountMin` (Section 3.3 of the paper).

use crate::config::{median, F0Config};
use crate::sketch::F0Sketch;
use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, ToeplitzHash, Xoshiro256StarStar};
use std::collections::BTreeSet;

#[derive(Clone)]
struct MinimumRow {
    hash: ToeplitzHash,
    smallest: BTreeSet<BitVec>,
}

impl MinimumRow {
    /// Folds a batch into the row's reservoir of smallest hash values. An
    /// item whose leading hash word exceeds the full reservoir's maximum
    /// cannot enter, and `lead_u64` decides that without materialising the
    /// value; only admitted and first-word-tied items are evaluated in full.
    fn update(&mut self, items: &[u64], thresh: usize) {
        let mut bound = self.lead_bound(thresh);
        for &item in items {
            if self.hash.lead_u64(item) <= bound && self.offer(self.hash.eval_u64(item), thresh) {
                bound = self.lead_bound(thresh);
            }
        }
    }

    /// Stores `value` if it is among the `thresh` smallest seen, evicting
    /// the old maximum when the reservoir overfills; false if it cannot
    /// enter (the reservoir is full and `value` is not below its maximum).
    fn offer(&mut self, value: BitVec, thresh: usize) -> bool {
        let enters =
            self.smallest.len() < thresh || self.smallest.last().is_some_and(|max| &value < max);
        if enters && self.smallest.insert(value) && self.smallest.len() > thresh {
            self.smallest.pop_last();
        }
        enters
    }

    /// The largest leading word a value that may still enter can have: that
    /// of the maximum once the reservoir is full, anything before.
    fn lead_bound(&self, thresh: usize) -> u64 {
        match self.smallest.last() {
            Some(max) if self.smallest.len() >= thresh => max.words()[0],
            _ => u64::MAX,
        }
    }
}

/// Minimum-value-based (ε, δ) F0 sketch.
#[derive(Clone)]
pub struct MinimumF0 {
    universe_bits: usize,
    thresh: usize,
    rows: Vec<MinimumRow>,
}

impl MinimumF0 {
    /// Creates the sketch, drawing `t` independent hash functions with
    /// 3n-bit outputs.
    pub fn new(universe_bits: usize, config: &F0Config, rng: &mut Xoshiro256StarStar) -> Self {
        assert!((1..=64).contains(&universe_bits));
        let rows = (0..config.rows)
            .map(|_| MinimumRow {
                hash: ToeplitzHash::sample(rng, universe_bits, 3 * universe_bits),
                smallest: BTreeSet::new(),
            })
            .collect();
        MinimumF0 {
            universe_bits,
            thresh: config.thresh,
            rows,
        }
    }

    /// Reservoir size `Thresh`.
    pub fn thresh(&self) -> usize {
        self.thresh
    }

    /// Number of repetition rows `t`.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Row `i`'s hash draw and current reservoir of smallest hash values —
    /// the complete per-row state, exported for snapshots.
    pub fn row_parts(&self, i: usize) -> (&ToeplitzHash, &BTreeSet<BitVec>) {
        (&self.rows[i].hash, &self.rows[i].smallest)
    }

    /// Rebuilds a sketch from exported per-row state (snapshot restore). The
    /// result is bit-identical to the sketch the parts were exported from.
    pub fn from_parts(
        universe_bits: usize,
        thresh: usize,
        rows: Vec<(ToeplitzHash, BTreeSet<BitVec>)>,
    ) -> Self {
        assert!((1..=64).contains(&universe_bits));
        assert!(thresh >= 1);
        let rows = rows
            .into_iter()
            .map(|(hash, smallest)| {
                assert_eq!(hash.input_bits(), universe_bits, "hash input width");
                assert_eq!(hash.output_bits(), 3 * universe_bits, "hash output width");
                assert!(smallest.len() <= thresh, "reservoir larger than Thresh");
                assert!(
                    smallest.iter().all(|v| v.len() == 3 * universe_bits),
                    "reservoir value width"
                );
                MinimumRow { hash, smallest }
            })
            .collect();
        MinimumF0 {
            universe_bits,
            thresh,
            rows,
        }
    }

    /// Merges another sketch of the same draw into this one, in place:
    /// distinct-union semantics, i.e. the merged state is bit-identical to
    /// the state after processing both sketches' streams into one sketch.
    /// The two sketches must share their hash draws (same creation seed and
    /// configuration); per-row the result is the `Thresh` smallest values of
    /// the union of the reservoirs, which loses nothing because the `Thresh`
    /// smallest of a union are among the `Thresh` smallest of each side.
    /// Panics on a draw or shape mismatch.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.universe_bits, other.universe_bits, "universe width");
        assert_eq!(self.thresh, other.thresh, "Thresh mismatch");
        assert_eq!(self.rows.len(), other.rows.len(), "row count mismatch");
        let thresh = self.thresh;
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            assert!(
                mine.hash == theirs.hash,
                "merge requires identical hash draws"
            );
            // Ascending iteration: after the first value that cannot enter,
            // no later one can either.
            for value in &theirs.smallest {
                if !mine.offer(value.clone(), thresh) {
                    break;
                }
            }
        }
    }

    /// Estimate contributed by a set of `p` smallest hash values of width
    /// `3n`: `p / (max value as a fraction of 2^{3n})`, or the set size when
    /// it is not full. Shared with the counting and structured crates so the
    /// streaming and counting sides compute the estimate identically.
    pub fn estimate_from_minima(smallest: &BTreeSet<BitVec>, thresh: usize) -> f64 {
        if smallest.len() < thresh {
            return smallest.len() as f64;
        }
        let max = smallest.iter().next_back().expect("non-empty set");
        let frac = bitvec_to_unit_fraction(max);
        if frac == 0.0 {
            f64::INFINITY
        } else {
            thresh as f64 / frac
        }
    }
}

/// Interprets a bit vector as a binary fraction in `[0, 1)` (most significant
/// bit = 1/2).
pub fn bitvec_to_unit_fraction(v: &BitVec) -> f64 {
    let mut value = 0.0f64;
    let mut weight = 0.5f64;
    // 64 leading bits are ample precision for the ratio estimate.
    for i in 0..v.len().min(64) {
        if v.get(i) {
            value += weight;
        }
        weight *= 0.5;
    }
    value
}

impl F0Sketch for MinimumF0 {
    fn universe_bits(&self) -> usize {
        self.universe_bits
    }

    fn process(&mut self, item: u64) {
        // Hard check (not debug-only): the hash kernels silently ignore
        // out-of-range high bits.
        assert!(
            self.universe_bits == 64 || item < (1u64 << self.universe_bits),
            "item outside the declared universe"
        );
        for row in &mut self.rows {
            row.update(&[item], self.thresh);
        }
    }

    /// Batched path: each row folds the whole batch in turn. Identical to
    /// the item-at-a-time path bit for bit. No deduplication: a repeated
    /// item costs one `lead_u64` per row, less than the hash-set probe that
    /// would drop it (DESIGN.md §6).
    fn process_stream(&mut self, items: &[u64]) {
        assert!(
            self.universe_bits == 64 || items.iter().all(|&x| x < (1u64 << self.universe_bits)),
            "item outside the declared universe"
        );
        for row in &mut self.rows {
            row.update(items, self.thresh);
        }
    }

    fn estimate(&self) -> f64 {
        let estimates: Vec<f64> = self
            .rows
            .iter()
            .map(|row| Self::estimate_from_minima(&row.smallest, self.thresh))
            .collect();
        median(&estimates)
    }

    fn space_bits(&self) -> usize {
        self.rows
            .iter()
            .map(|row| row.hash.representation_bits() + row.smallest.len() * 3 * self.universe_bits)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::planted_f0_stream;

    #[test]
    fn unit_fraction_conversion() {
        assert_eq!(bitvec_to_unit_fraction(&BitVec::from_u64(0, 4)), 0.0);
        assert_eq!(bitvec_to_unit_fraction(&BitVec::from_u64(0b1000, 4)), 0.5);
        assert_eq!(bitvec_to_unit_fraction(&BitVec::from_u64(0b1100, 4)), 0.75);
        assert!(
            (bitvec_to_unit_fraction(&BitVec::ones(10)) - (1.0 - 2f64.powi(-10))).abs() < 1e-12
        );
    }

    #[test]
    fn small_streams_are_counted_exactly() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let config = F0Config::paper(0.8, 0.2);
        let mut sketch = MinimumF0::new(32, &config, &mut rng);
        let stream = planted_f0_stream(&mut rng, 32, 80, 400);
        sketch.process_stream(&stream);
        assert_eq!(sketch.estimate(), 80.0);
    }

    #[test]
    fn large_streams_are_within_the_error_bound() {
        // Shrunk default-suite variant (fewer repetition rows than the
        // paper's t = 82); the full paper-config workload is the `#[ignore]`d
        // test below, run by the release heavy-tests CI step.
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let config = F0Config::explicit(0.8, 0.2, 150, 15);
        let mut sketch = MinimumF0::new(32, &config, &mut rng);
        let truth = 8_000usize;
        let stream = planted_f0_stream(&mut rng, 32, truth, 2 * truth);
        sketch.process_stream(&stream);
        let est = sketch.estimate();
        assert!(
            est >= truth as f64 / 1.8 && est <= truth as f64 * 1.8,
            "estimate {est} too far from {truth}"
        );
    }

    #[test]
    #[ignore = "wide-universe paper-config workload; run with --ignored (release heavy-tests CI step)"]
    fn large_streams_are_within_the_error_bound_paper_config() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let config = F0Config::paper(0.8, 0.2);
        let mut sketch = MinimumF0::new(32, &config, &mut rng);
        let truth = 20_000usize;
        let stream = planted_f0_stream(&mut rng, 32, truth, 2 * truth);
        sketch.process_stream(&stream);
        let est = sketch.estimate();
        assert!(
            est >= truth as f64 / 1.8 && est <= truth as f64 * 1.8,
            "estimate {est} too far from {truth}"
        );
    }

    #[test]
    fn order_of_the_stream_does_not_matter() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let config = F0Config::explicit(0.8, 0.2, 100, 7);
        let stream = planted_f0_stream(&mut rng, 24, 1000, 3000);
        let mut reversed = stream.clone();
        reversed.reverse();
        let mut r1 = Xoshiro256StarStar::seed_from_u64(77);
        let mut r2 = Xoshiro256StarStar::seed_from_u64(77);
        let mut a = MinimumF0::new(24, &config, &mut r1);
        let mut b = MinimumF0::new(24, &config, &mut r2);
        a.process_stream(&stream);
        b.process_stream(&reversed);
        assert_eq!(a.estimate(), b.estimate());
    }
}
