//! The common interface of the F0 sketches.

/// A streaming sketch estimating the number of distinct elements of a stream
/// over the universe `{0,1}^n`, `n ≤ 64`.
pub trait F0Sketch {
    /// Universe width `n` in bits.
    fn universe_bits(&self) -> usize;

    /// Processes one stream item (only the low `n` bits are significant).
    fn process(&mut self, item: u64);

    /// Current estimate of F0 (may be called at any point in the stream).
    fn estimate(&self) -> f64;

    /// Approximate size of the sketch state, in bits, for the space
    /// experiments (hash-function representations included).
    fn space_bits(&self) -> usize;

    /// Processes a whole stream.
    ///
    /// **Batching contract** (DESIGN.md §6): the final sketch state must be
    /// bit-for-bit identical to calling [`F0Sketch::process`] on every item
    /// in order. Implementors override the default loop with batched
    /// engines — deduplicating the batch where an item costs more than the
    /// probe (every F0 sketch is a function of the distinct-item set),
    /// amortising per-item hash preparation across repetition rows — but
    /// the contract is pinned by parity proptests, so callers may mix
    /// `process` and `process_stream` freely.
    fn process_stream(&mut self, items: &[u64]) {
        for &item in items {
            self.process(item);
        }
    }
}
