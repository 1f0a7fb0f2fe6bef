//! The prefix-search primitive of Proposition 2, over an abstract oracle.
//!
//! The proof of Proposition 2 in the paper computes the `p`
//! lexicographically smallest elements of a set `C ⊆ {0,1}^m` using only one
//! primitive: *"given a prefix `y_1 … y_ℓ`, does some element of `C` start
//! with it?"*. For the hashed image of a DNF term or an affine space this
//! primitive is a Gaussian elimination; for a CNF formula it is one NP-oracle
//! (SAT) call. Formulating the search over a [`PrefixOracle`] trait lets the
//! polynomial-time and the NP-oracle backends share the exact same driver,
//! which is also how the two are property-tested against each other.

use crate::bitvec::BitVec;

/// A set `C ⊆ {0,1}^m` queried only through prefix-membership questions.
pub trait PrefixOracle {
    /// Width `m` of the elements of the set.
    fn width(&self) -> usize;

    /// Does some element of the set start with `prefix`?
    /// (`prefix.len()` may be anywhere in `0..=width()`; the empty prefix
    /// asks whether the set is non-empty.)
    fn exists_with_prefix(&mut self, prefix: &BitVec) -> bool;
}

/// Lexicographically smallest element of the set extending `prefix`,
/// or `None` if no element does. Issues at most `m` oracle queries beyond the
/// initial feasibility check.
pub fn lex_min_with_prefix<O: PrefixOracle + ?Sized>(
    oracle: &mut O,
    prefix: &BitVec,
) -> Option<BitVec> {
    let m = oracle.width();
    assert!(prefix.len() <= m, "prefix longer than element width");
    if !oracle.exists_with_prefix(prefix) {
        return None;
    }
    let mut current = prefix.clone();
    while current.len() < m {
        let with_zero = current.append_bit(false);
        if oracle.exists_with_prefix(&with_zero) {
            current = with_zero;
        } else {
            // The set is non-empty under `current`, so extending by 1 must work.
            current = current.append_bit(true);
        }
    }
    Some(current)
}

/// Lexicographically smallest element of the whole set.
pub fn lex_min<O: PrefixOracle + ?Sized>(oracle: &mut O) -> Option<BitVec> {
    lex_min_with_prefix(oracle, &BitVec::zeros(0))
}

/// Smallest element strictly greater than `current` (the paper's
/// "rightmost 0" extension step).
pub fn lex_successor<O: PrefixOracle + ?Sized>(oracle: &mut O, current: &BitVec) -> Option<BitVec> {
    let m = oracle.width();
    assert_eq!(current.len(), m, "successor requires a full-width element");
    // Scan prefixes from longest to shortest: at every position r where
    // current[r] == 0, try the prefix current[0..r] · 1.
    for r in (0..m).rev() {
        if current.get(r) {
            continue;
        }
        let candidate = current.prefix(r).append_bit(true);
        if let Some(found) = lex_min_with_prefix(oracle, &candidate) {
            return Some(found);
        }
    }
    None
}

/// The `p` lexicographically smallest elements of the set, in increasing
/// order (fewer if the set is smaller). This is the generic engine behind
/// `FindMin` (Proposition 2) and `AffineFindMin` (Proposition 4).
pub fn lex_enumerate<O: PrefixOracle + ?Sized>(oracle: &mut O, p: usize) -> Vec<BitVec> {
    let mut out = Vec::with_capacity(p.min(1024));
    if p == 0 {
        return out;
    }
    let Some(mut current) = lex_min(oracle) else {
        return out;
    };
    out.push(current.clone());
    while out.len() < p {
        match lex_successor(oracle, &current) {
            Some(next) => {
                current = next;
                out.push(current.clone());
            }
            None => break,
        }
    }
    out
}

/// A trivially explicit oracle over a list of elements; used in tests and as
/// a reference implementation for differential testing of cleverer oracles.
#[derive(Clone, Debug)]
pub struct ExplicitSetOracle {
    width: usize,
    elements: Vec<BitVec>,
}

impl ExplicitSetOracle {
    /// Builds an oracle over the given elements (all of width `width`).
    pub fn new(width: usize, elements: Vec<BitVec>) -> Self {
        assert!(elements.iter().all(|e| e.len() == width));
        ExplicitSetOracle { width, elements }
    }
}

impl PrefixOracle for ExplicitSetOracle {
    fn width(&self) -> usize {
        self.width
    }

    fn exists_with_prefix(&mut self, prefix: &BitVec) -> bool {
        self.elements
            .iter()
            .any(|e| e.prefix_eq(prefix, prefix.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_from_values(width: usize, values: &[u64]) -> ExplicitSetOracle {
        ExplicitSetOracle::new(
            width,
            values.iter().map(|&v| BitVec::from_u64(v, width)).collect(),
        )
    }

    #[test]
    fn lex_min_of_explicit_set() {
        let mut o = oracle_from_values(6, &[37, 12, 55, 12, 40]);
        assert_eq!(lex_min(&mut o).unwrap().to_u64(), 12);
    }

    #[test]
    fn lex_min_of_empty_set_is_none() {
        let mut o = oracle_from_values(6, &[]);
        assert!(lex_min(&mut o).is_none());
        assert!(lex_enumerate(&mut o, 5).is_empty());
    }

    #[test]
    fn successor_skips_duplicates_and_gaps() {
        let mut o = oracle_from_values(6, &[3, 9, 9, 33]);
        let start = BitVec::from_u64(3, 6);
        let next = lex_successor(&mut o, &start).unwrap();
        assert_eq!(next.to_u64(), 9);
        let next2 = lex_successor(&mut o, &next).unwrap();
        assert_eq!(next2.to_u64(), 33);
        assert!(lex_successor(&mut o, &next2).is_none());
    }

    #[test]
    fn enumerate_returns_sorted_distinct_prefix_of_set() {
        let values = [42u64, 7, 63, 0, 19, 7, 19];
        let mut o = oracle_from_values(6, &values);
        let got = lex_enumerate(&mut o, 4);
        let got_vals: Vec<u64> = got.iter().map(BitVec::to_u64).collect();
        assert_eq!(got_vals, vec![0, 7, 19, 42]);
        // Asking for more than the number of distinct elements returns all.
        let mut o = oracle_from_values(6, &values);
        let got = lex_enumerate(&mut o, 100);
        let got_vals: Vec<u64> = got.iter().map(BitVec::to_u64).collect();
        assert_eq!(got_vals, vec![0, 7, 19, 42, 63]);
    }

    #[test]
    fn lex_min_with_prefix_respects_prefix() {
        let mut o = oracle_from_values(6, &[42, 7, 63, 0, 19]);
        // Prefix "1" means values >= 32.
        let prefix = BitVec::from_u64(1, 1);
        let got = lex_min_with_prefix(&mut o, &prefix).unwrap();
        assert_eq!(got.to_u64(), 42);
        // Prefix "111111" matches only 63.
        let full = BitVec::from_u64(63, 6);
        assert_eq!(lex_min_with_prefix(&mut o, &full).unwrap().to_u64(), 63);
    }
}
