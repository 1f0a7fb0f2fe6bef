//! Support for the batched / parallel `process_stream` paths.
//!
//! Every F0 sketch in this crate is a function of the *set* of distinct
//! items seen (duplication- and order-invariant), and its repetition rows
//! are mutually independent given their hash draws. The batched paths
//! exploit exactly those two facts: deduplicate the batch once up front
//! (Estimation and Flajolet–Martin only; a Minimum or Bucketing row handles
//! a repeated item in less time than the hash-set probe takes), and split
//! the rows across std threads with in-place updates — so the batched and
//! parallel results are bit-for-bit identical to the item-at-a-time
//! sequential ones (the parity proptests in `tests/proptests.rs` pin this).

use std::collections::HashSet;

/// The distinct items of a batch, in first-occurrence order.
pub fn dedup_preserving_order(items: &[u64]) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(items.len());
    items.iter().copied().filter(|x| seen.insert(*x)).collect()
}

/// Runs `body` over the rows of a sketch, split into at most `threads`
/// contiguous chunks processed by scoped std threads (`threads ≤ 1` runs
/// sequentially in place). Rows are updated in place, so the merge order is
/// fixed by construction and the result is deterministic. Shared with the
/// structured-stream sketches of `mcf0-structured`.
pub fn for_each_row_chunk<R: Send>(rows: &mut [R], threads: usize, body: impl Fn(&mut [R]) + Sync) {
    if threads <= 1 || rows.len() <= 1 {
        body(rows);
        return;
    }
    let chunk = rows.len().div_ceil(threads.min(rows.len()));
    let body = &body;
    std::thread::scope(|scope| {
        for part in rows.chunks_mut(chunk) {
            scope.spawn(move || body(part));
        }
    });
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

    #[test]
    fn row_chunks_cover_all_rows_exactly_once() {
        for threads in [0usize, 1, 2, 3, 7, 16] {
            let mut rows: Vec<u32> = vec![0; 11];
            for_each_row_chunk(&mut rows, threads, |chunk| {
                for r in chunk {
                    *r += 1;
                }
            });
            assert!(rows.iter().all(|&r| r == 1), "threads={threads}");
        }
    }
}
