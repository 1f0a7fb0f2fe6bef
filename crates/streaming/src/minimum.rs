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
use std::cmp::Ordering;

/// A packed 3n-bit hash value: the [`mcf0_gf2::BitVec::words`] of the value
/// (MSB-first, tail bits zero) in the first `⌈3n/64⌉` words, the rest zero.
/// Array order is therefore the values' lexicographic order, for every
/// width `n ≤ 64`.
pub type Key = [u64; 3];

/// The key of a hash value of at most 192 bits.
pub fn key_of(value: &BitVec) -> Key {
    let mut key = Key::default();
    key[..value.words().len()].copy_from_slice(value.words());
    key
}

#[derive(Clone)]
struct MinimumRow {
    hash: ToeplitzHash,
    /// The row's smallest distinct hash values, strictly ascending, at most
    /// `Thresh` of them.
    smallest: Vec<Key>,
}

impl MinimumRow {
    /// Folds a batch into the row's reservoir of smallest hash values. An
    /// item whose leading hash word exceeds the full reservoir's maximum
    /// cannot enter, and `lead_u64` decides that without computing the later
    /// words; only admitted and first-word-tied items are hashed into a key.
    fn update(&mut self, items: &[u64], thresh: usize) {
        let words = self.hash.output_bits().div_ceil(64);
        let mut bound = self.lead_bound(thresh);
        for &item in items {
            if self.hash.lead_u64(item) <= bound {
                let mut key = Key::default();
                self.hash.eval_u64_into(item, &mut key[..words]);
                if self.offer(key, thresh) {
                    bound = self.lead_bound(thresh);
                }
            }
        }
    }

    /// Stores `key` if it is among the `thresh` smallest seen, evicting the
    /// old maximum when the reservoir is full; false if it cannot enter (the
    /// reservoir is full and `key` is not below its maximum).
    fn offer(&mut self, key: Key, thresh: usize) -> bool {
        let full = self.smallest.len() >= thresh;
        if full && self.smallest.last().is_none_or(|max| key >= *max) {
            return false;
        }
        if let Err(at) = self.smallest.binary_search(&key) {
            if full {
                self.smallest.pop();
            }
            self.smallest.insert(at, key);
        }
        true
    }

    /// The largest leading word a value that may still enter can have: that
    /// of the maximum once the reservoir is full, anything before.
    fn lead_bound(&self, thresh: usize) -> u64 {
        match self.smallest.last() {
            Some(max) if self.smallest.len() >= thresh => max[0],
            _ => u64::MAX,
        }
    }
}

/// The `thresh` smallest distinct keys of two strictly ascending arrays, by
/// one linear merge.
fn merge_smallest(a: &[Key], b: &[Key], thresh: usize) -> Vec<Key> {
    let mut out = Vec::with_capacity(thresh.min(a.len() + b.len()));
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    while out.len() < thresh {
        let next = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Less => a.next(),
                Ordering::Greater => b.next(),
                Ordering::Equal => {
                    b.next();
                    a.next()
                }
            },
            _ => a.next().or_else(|| b.next()),
        };
        match next {
            Some(&key) => out.push(key),
            None => break,
        }
    }
    out
}

/// Whether `key` holds a `bits`-bit value: nothing set past bit `bits`.
fn key_fits(key: &Key, bits: usize) -> bool {
    key.iter().enumerate().all(|(w, &word)| {
        let used = bits.saturating_sub(64 * w).min(64);
        used == 64 || word << used == 0
    })
}

/// Estimate contributed by a set of `count` smallest hash values whose
/// maximum has the leading word `max_lead` (MSB-first; ignored unless the
/// set is full): `thresh / (max as a fraction of the output space)`, or the
/// set size when it holds fewer than `thresh` values. The one Minimum
/// estimator: the streaming sketch and the counting, distributed and
/// structured variants all compute through it. The 64 leading bits are
/// ample precision for the ratio; bits past the value's width are zero.
pub fn estimate_from_max_lead(count: usize, max_lead: u64, thresh: usize) -> f64 {
    if count < thresh {
        return count as f64;
    }
    let mut frac = 0.0f64;
    let mut weight = 0.5f64;
    for i in 0..64 {
        if max_lead >> (63 - i) & 1 == 1 {
            frac += weight;
        }
        weight *= 0.5;
    }
    if frac == 0.0 {
        f64::INFINITY
    } else {
        thresh as f64 / frac
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
                smallest: Vec::new(),
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

    /// Row `i`'s hash draw and current reservoir of smallest hash values
    /// (strictly ascending keys) — the complete per-row state, exported for
    /// snapshots.
    pub fn row_parts(&self, i: usize) -> (&ToeplitzHash, &[Key]) {
        (&self.rows[i].hash, &self.rows[i].smallest)
    }

    /// Rebuilds a sketch from exported per-row state (snapshot restore). The
    /// result is bit-identical to the sketch the parts were exported from.
    /// Each reservoir must be strictly ascending, hold at most `thresh`
    /// keys and only `3 · universe_bits`-bit values.
    pub fn from_parts(
        universe_bits: usize,
        thresh: usize,
        rows: Vec<(ToeplitzHash, Vec<Key>)>,
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
                    smallest.windows(2).all(|w| w[0] < w[1]),
                    "reservoir not strictly ascending"
                );
                assert!(
                    smallest.iter().all(|k| key_fits(k, 3 * universe_bits)),
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

    /// Merges into each row the strictly ascending keys that
    /// `offered(hash, thresh)` returns for the row's hash, by the same
    /// linear merge as [`MinimumF0::merge_from`]. The structured variant's
    /// per-item step: an item offers its `Thresh` smallest hash values.
    pub fn merge_rows(&mut self, mut offered: impl FnMut(&ToeplitzHash, usize) -> Vec<Key>) {
        for row in &mut self.rows {
            let keys = offered(&row.hash, self.thresh);
            debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "offer not ascending");
            if !keys.is_empty() {
                row.smallest = merge_smallest(&row.smallest, &keys, self.thresh);
            }
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
        for (mine, theirs) in self.rows.iter_mut().zip(&other.rows) {
            assert!(
                mine.hash == theirs.hash,
                "merge requires identical hash draws"
            );
            if !theirs.smallest.is_empty() {
                mine.smallest = merge_smallest(&mine.smallest, &theirs.smallest, self.thresh);
            }
        }
    }
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
            .map(|row| {
                let max_lead = row.smallest.last().map_or(0, |max| max[0]);
                estimate_from_max_lead(row.smallest.len(), max_lead, self.thresh)
            })
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
        // Full sets: Thresh over the maximum read as a binary fraction.
        assert_eq!(estimate_from_max_lead(4, 0, 4), f64::INFINITY);
        assert_eq!(estimate_from_max_lead(4, 1 << 63, 4), 8.0);
        assert_eq!(estimate_from_max_lead(3, 0b11 << 62, 3), 4.0);
        let ten_ones = !0u64 << 54;
        let frac = 1.0 - 2f64.powi(-10);
        assert!((estimate_from_max_lead(5, ten_ones, 5) - 5.0 / frac).abs() < 1e-12);
        // Sets short of Thresh count exactly, whatever the maximum.
        assert_eq!(estimate_from_max_lead(2, 1 << 63, 4), 2.0);
    }

    #[test]
    fn merges_keep_the_smallest_distinct_keys() {
        let keys = |v: &[u64]| -> Vec<Key> { v.iter().map(|&x| [x, 0, 0]).collect() };
        let (a, b) = (keys(&[1, 4, 6, 9]), keys(&[2, 4, 5]));
        assert_eq!(merge_smallest(&a, &b, 10), keys(&[1, 2, 4, 5, 6, 9]));
        assert_eq!(merge_smallest(&a, &b, 4), keys(&[1, 2, 4, 5]));
        assert_eq!(merge_smallest(&b, &a, 4), keys(&[1, 2, 4, 5]));
        assert_eq!(merge_smallest(&[], &b, 2), keys(&[2, 4]));
        assert!(key_fits(&[u64::MAX, 1 << 63, 0], 65));
        assert!(!key_fits(&[u64::MAX, 1 << 62, 0], 65));
        assert!(!key_fits(&[0, 0, 1], 128));
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
