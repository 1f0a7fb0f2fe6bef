//! The benchmark's own input generator (the `gen` layer).
//!
//! Every input is a pure function of `--seed` and built from this file's
//! SplitMix64 alone, never from the product's generators, so a change to
//! `mcf0::streaming::workloads` or `mcf0::formula::generators` cannot move
//! the benchmark's inputs under a later comparison.

use mcf0::formula::{Clause, CnfFormula, Literal};
use std::collections::HashSet;

/// Universe width of every stream item.
pub const UNIVERSE_BITS: usize = 32;

/// SplitMix64 (Steele, Lea, Flood): the whole benchmark's randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`; lanes keep the inputs of
    /// one connection or one instance from shifting when another grows.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias at these bounds is far below
    /// anything a sketch or a timer can see).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A stream of `length` 32-bit items with exactly `distinct` distinct
/// values: every value appears once, the rest are uniform repeats, and the
/// whole stream is shuffled. `distinct` is the planted F0 the estimates are
/// checked against.
pub fn planted_stream(rng: &mut Rng, distinct: usize, length: usize) -> Vec<u64> {
    assert!(distinct >= 1 && length >= distinct);
    let mut seen = HashSet::with_capacity(distinct);
    let mut stream = Vec::with_capacity(length);
    while stream.len() < distinct {
        let item = rng.next_u64() >> (64 - UNIVERSE_BITS);
        if seen.insert(item) {
            stream.push(item);
        }
    }
    while stream.len() < length {
        let again = stream[rng.below(distinct as u64) as usize];
        stream.push(again);
    }
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.below(i as u64 + 1) as usize);
    }
    stream
}

/// Share of a batched stream that survives per-batch deduplication: the
/// distinct items of each batch over the items sent. Exact, and the same on
/// every run of a seed.
pub fn dedup_ratio<'a>(batches: impl Iterator<Item = &'a [u64]>) -> f64 {
    let (mut kept, mut sent) = (0usize, 0usize);
    for batch in batches {
        kept += batch.iter().collect::<HashSet<_>>().len();
        sent += batch.len();
    }
    kept as f64 / sent.max(1) as f64
}

/// A random 3-CNF over `n` variables with `2n` clauses, each over three
/// distinct variables with fair signs.
pub fn random_3cnf(rng: &mut Rng, n: usize) -> CnfFormula {
    let clauses = (0..2 * n)
        .map(|_| {
            let mut vars: Vec<usize> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.below(n as u64) as usize;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            Clause::new(
                vars.into_iter()
                    .map(|v| {
                        if rng.next_u64() & 1 == 0 {
                            Literal::positive(v)
                        } else {
                            Literal::negative(v)
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    CnfFormula::new(n, clauses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_the_seed_with_the_planted_f0() {
        let a = planted_stream(&mut Rng::lane(1, 0), 500, 2000);
        let b = planted_stream(&mut Rng::lane(1, 0), 500, 2000);
        let c = planted_stream(&mut Rng::lane(2, 0), 500, 2000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 2000);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 500);
        assert!(a.iter().all(|&x| x < 1 << UNIVERSE_BITS));
    }

    #[test]
    fn dedup_ratio_counts_distinct_items_per_batch() {
        let items = [1u64, 1, 2, 3, 3, 3, 4, 5];
        let ratio = dedup_ratio(items.chunks(4));
        // {1,2,3} of the first four, {3,4,5} of the second.
        assert_eq!(ratio, 6.0 / 8.0);
    }

    #[test]
    fn formulas_repeat_per_seed() {
        let a = random_3cnf(&mut Rng::lane(7, 28), 28);
        let b = random_3cnf(&mut Rng::lane(7, 28), 28);
        assert_eq!(a.to_dimacs(), b.to_dimacs());
        assert_eq!(a.num_clauses(), 56);
        assert!(a.clauses().iter().all(|c| c.len() == 3));
    }
}
