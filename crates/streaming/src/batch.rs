//! Support for the batched `process_stream` paths.
//!
//! Every F0 sketch in this crate is a function of the *set* of distinct
//! items seen (duplication- and order-invariant), so a batch may be
//! deduplicated once up front. Estimation and Flajolet–Martin do that; a
//! Minimum or Bucketing row handles a repeated item in less time than the
//! hash-set probe takes. The batched results are bit-for-bit identical to
//! the item-at-a-time ones (the parity proptests in `tests/proptests.rs`
//! pin this).

use std::collections::HashSet;

/// The distinct items of a batch, in first-occurrence order.
pub fn dedup_preserving_order(items: &[u64]) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(items.len());
    items.iter().copied().filter(|x| seen.insert(*x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        assert_eq!(
            dedup_preserving_order(&[5, 1, 5, 2, 1, 5, 9]),
            vec![5, 1, 2, 9]
        );
        assert!(dedup_preserving_order(&[]).is_empty());
    }
}
