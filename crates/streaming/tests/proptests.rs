//! Property-based tests for the streaming F0 sketches: estimates depend only
//! on the set of distinct items (order- and duplication-invariance), small
//! streams are counted exactly, and the sketches degrade gracefully on
//! adversarial inputs.

use proptest::prelude::*;

use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, Xoshiro256StarStar};
use mcf0_streaming::minimum::Key;
use mcf0_streaming::{
    compute_f0, AmsF2, BucketingF0, EstimationF0, ExactDistinct, F0Config, F0Sketch,
    FlajoletMartinF0, MinimumF0, SketchStrategy,
};
use std::collections::{BTreeSet, HashSet};

fn rng_from(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

/// A stream of up to `max_len` items over a `bits`-bit universe, plus a
/// permutation seed used by the order-invariance properties.
fn stream(bits: usize, max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    prop::collection::vec(any::<u64>().prop_map(move |v| v & mask), 0..max_len)
}

fn exact_f0(stream: &[u64]) -> usize {
    stream.iter().collect::<HashSet<_>>().len()
}

const BITS: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_distinct_counts_exactly(items in stream(BITS, 400)) {
        let mut sketch = ExactDistinct::new(BITS);
        sketch.process_stream(&items);
        prop_assert_eq!(sketch.estimate() as usize, exact_f0(&items));
    }

    #[test]
    fn minimum_sketch_is_order_and_duplication_invariant(items in stream(BITS, 200), seed in any::<u64>(), perm_seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 40, 5);
        let mut rng_a = rng_from(seed);
        let mut rng_b = rng_from(seed);
        let mut a = MinimumF0::new(BITS, &config, &mut rng_a);
        let mut b = MinimumF0::new(BITS, &config, &mut rng_b);

        // Same distinct set, permuted and with every item duplicated.
        let mut shuffled = items.clone();
        let mut perm_rng = rng_from(perm_seed);
        perm_rng.shuffle(&mut shuffled);
        let mut doubled = shuffled.clone();
        doubled.extend_from_slice(&items);

        a.process_stream(&items);
        b.process_stream(&doubled);
        prop_assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn bucketing_sketch_is_order_and_duplication_invariant(items in stream(BITS, 200), seed in any::<u64>(), perm_seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 40, 5);
        let mut rng_a = rng_from(seed);
        let mut rng_b = rng_from(seed);
        let mut a = BucketingF0::new(BITS, &config, &mut rng_a);
        let mut b = BucketingF0::new(BITS, &config, &mut rng_b);

        let mut shuffled = items.clone();
        let mut perm_rng = rng_from(perm_seed);
        perm_rng.shuffle(&mut shuffled);
        let mut doubled = shuffled.clone();
        doubled.extend_from_slice(&items);

        a.process_stream(&items);
        b.process_stream(&doubled);
        prop_assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn estimation_sketch_cells_are_duplication_invariant(items in stream(BITS, 120), seed in any::<u64>()) {
        let config = F0Config::explicit(0.5, 0.3, 12, 3);
        let mut rng_a = rng_from(seed);
        let mut rng_b = rng_from(seed);
        let mut a = EstimationF0::new(BITS, &config, &mut rng_a);
        let mut b = EstimationF0::new(BITS, &config, &mut rng_b);

        let mut doubled = items.clone();
        doubled.extend_from_slice(&items);
        doubled.reverse();

        a.process_stream(&items);
        b.process_stream(&doubled);
        for i in 0..a.num_rows() {
            for j in 0..a.thresh() {
                prop_assert_eq!(a.cell(i, j), b.cell(i, j));
            }
        }
    }

    #[test]
    fn small_streams_are_counted_exactly_by_minimum_and_bucketing(items in stream(BITS, 30), seed in any::<u64>()) {
        // F0 < Thresh means no row ever overflows/evicts, so both sketches
        // are exact regardless of the hash draws.
        let config = F0Config::explicit(0.8, 0.3, 64, 5);
        let truth = exact_f0(&items) as f64;

        let mut rng = rng_from(seed);
        let mut min_sketch = MinimumF0::new(BITS, &config, &mut rng);
        min_sketch.process_stream(&items);
        prop_assert_eq!(min_sketch.estimate(), truth);

        let mut rng = rng_from(seed);
        let mut bucket_sketch = BucketingF0::new(BITS, &config, &mut rng);
        bucket_sketch.process_stream(&items);
        prop_assert_eq!(bucket_sketch.estimate(), truth);
    }

    #[test]
    fn empty_streams_estimate_zero(seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 16, 3);
        let mut rng = rng_from(seed);
        prop_assert_eq!(MinimumF0::new(BITS, &config, &mut rng).estimate(), 0.0);
        let mut rng = rng_from(seed);
        prop_assert_eq!(BucketingF0::new(BITS, &config, &mut rng).estimate(), 0.0);
        let mut rng = rng_from(seed);
        let fm = FlajoletMartinF0::new(BITS, &mut rng);
        prop_assert_eq!(fm.estimate(), 0.0);
    }

    #[test]
    fn flajolet_martin_statistic_is_monotone(items in stream(BITS, 150), split in 0.0f64..=1.0, seed in any::<u64>()) {
        let cut = ((items.len() as f64) * split) as usize;
        let mut rng = rng_from(seed);
        let mut full = FlajoletMartinF0::new(BITS, &mut rng);
        let mut rng = rng_from(seed);
        let mut partial = FlajoletMartinF0::new(BITS, &mut rng);
        full.process_stream(&items);
        partial.process_stream(&items[..cut]);
        prop_assert!(full.estimate() >= partial.estimate());
    }

    #[test]
    fn sketch_space_is_reported_and_bounded(items in stream(BITS, 200), seed in any::<u64>()) {
        let config = F0Config::explicit(0.8, 0.3, 32, 4);
        let mut rng = rng_from(seed);
        let mut sketch = MinimumF0::new(BITS, &config, &mut rng);
        sketch.process_stream(&items);
        let space = sketch.space_bits();
        prop_assert!(space > 0);
        // The reservoir never stores more than rows × Thresh hashed values of
        // 3n bits each, plus Θ(n) representation bits per Toeplitz hash.
        let bound = 4 * (32 * 3 * BITS + 8 * BITS);
        prop_assert!(space <= bound, "space {space} exceeds bound {bound}");
    }
}

// ---------------------------------------------------------------------------
// Batched engine parity: the batched `process_stream` must reproduce the
// item-at-a-time state bit for bit, for every sketch (the F0Sketch batching
// contract, DESIGN.md §6). Width 24 exercises the wide-field (`w > 20`)
// window-table path, width 16 the discrete-log-table path.
// ---------------------------------------------------------------------------

/// Runs `items` through two identically-seeded copies of each sketch — one
/// item at a time, one batched — and asserts identical estimates, space,
/// and per-cell state.
fn assert_batched_matches_sequential(
    bits: usize,
    items: &[u64],
    seed: u64,
) -> Result<(), TestCaseError> {
    let config = F0Config::explicit(0.5, 0.3, 24, 5);

    // MinimumF0: estimate + space (space counts the stored minima).
    let mut a = MinimumF0::new(bits, &config, &mut rng_from(seed));
    let mut b = MinimumF0::new(bits, &config, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());

    // BucketingF0: estimate + space + every row's level.
    let mut a = BucketingF0::new(bits, &config, &mut rng_from(seed));
    let mut b = BucketingF0::new(bits, &config, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());
    for i in 0..5 {
        prop_assert_eq!(a.level(i), b.level(i));
    }

    // EstimationF0: every cell.
    let mut a = EstimationF0::new(bits, &config, &mut rng_from(seed));
    let mut b = EstimationF0::new(bits, &config, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());
    for i in 0..a.num_rows() {
        for j in 0..a.thresh() {
            prop_assert_eq!(a.cell(i, j), b.cell(i, j));
        }
    }

    // FlajoletMartinF0 (single row; batched = deduplicated).
    let mut a = FlajoletMartinF0::new(bits, &mut rng_from(seed));
    let mut b = FlajoletMartinF0::new(bits, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.max_trailing_zeros(), b.max_trailing_zeros());

    // ExactDistinct (trait-default loop — the contract's reference point).
    let mut a = ExactDistinct::new(bits);
    let mut b = ExactDistinct::new(bits);
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.space_bits(), b.space_bits());

    // AmsF2 (multiplicity-sensitive: batched path folds counts first).
    let mut a = AmsF2::new(bits, 3, 8, &mut rng_from(seed));
    let mut b = AmsF2::new(bits, 3, 8, &mut rng_from(seed));
    for &x in items {
        a.process(x);
    }
    b.process_stream(items);
    prop_assert_eq!(a.estimate(), b.estimate());
    prop_assert_eq!(a.items_processed(), b.items_processed());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_process_stream_matches_item_at_a_time(items in stream(BITS, 250), seed in any::<u64>()) {
        // Wide-field path (24 > 20).
        assert_batched_matches_sequential(BITS, &items, seed)?;
        // Discrete-log-table path.
        let narrow: Vec<u64> = items.iter().map(|x| x & 0xffff).collect();
        assert_batched_matches_sequential(16, &narrow, seed)?;
    }
}

// ---------------------------------------------------------------------------
// The Minimum sketch against its definition: hash every item in full with
// the bit-vector evaluation, keep the `Thresh` smallest values. The sketch
// itself rejects almost every item on the leading hash word alone, so the
// reservoirs are compared exactly, at widths whose hash values fill one word
// (8, 21), two (22, 24, 33, 42) and three (43, 64) — 21/22 and 42/43 are
// where a key gains a word (3n = 63, 66, 126, 129) and the tail mask matters.
// ---------------------------------------------------------------------------

fn assert_minimum_matches_naive(
    bits: usize,
    thresh: usize,
    items: &[u64],
    seed: u64,
) -> Result<(), TestCaseError> {
    let config = F0Config::explicit(0.5, 0.3, thresh, 3);
    let mut batched = MinimumF0::new(bits, &config, &mut rng_from(seed));
    let mut single = batched.clone();
    batched.process_stream(items);
    for &x in items {
        single.process(x);
    }
    for i in 0..batched.num_rows() {
        let (hash, reservoir) = batched.row_parts(i);
        let naive: BTreeSet<BitVec> = items
            .iter()
            .map(|&x| hash.eval(&BitVec::from_u64(x, bits)))
            .collect();
        // The reservoir's keys are the values' words, zero-padded to three.
        let naive: Vec<Key> = naive
            .iter()
            .take(thresh)
            .map(|v| {
                let mut key = Key::default();
                key[..v.words().len()].copy_from_slice(v.words());
                key
            })
            .collect();
        prop_assert_eq!(reservoir, &naive[..], "bits={} thresh={}", bits, thresh);
        prop_assert_eq!(single.row_parts(i).1, &naive[..]);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn minimum_reservoirs_match_the_naive_reference(raw in stream(64, 400), seed in any::<u64>()) {
        for bits in [8usize, 21, 22, 24, 33, 42, 43, 64] {
            // Up to 400 items: shorter than Thresh = 150 and longer, and at
            // width 8 mostly duplicates.
            let items: Vec<u64> = raw.iter().map(|x| x >> (64 - bits)).collect();
            // Heavy duplication at every width: a quarter of the items,
            // cycled to the full length.
            let pool = &items[..items.len().div_ceil(4)];
            let repeated: Vec<u64> = pool.iter().cycle().take(items.len()).copied().collect();
            for thresh in [1usize, 3, 150] {
                assert_minimum_matches_naive(bits, thresh, &items, seed)?;
                assert_minimum_matches_naive(bits, thresh, &repeated, seed)?;
            }
        }
    }
}

// The universe checks are hard asserts on every ingest path: the word-level
// hash kernels ignore bits at or above the universe width, so without them
// an out-of-range item would be sketched as some other item.

fn out_of_universe(sketch: &mut dyn F0Sketch, batched: bool) {
    let item = 1u64 << sketch.universe_bits();
    if batched {
        sketch.process_stream(&[1, 2, item, 3]);
    } else {
        sketch.process(item);
    }
}

fn small_config() -> F0Config {
    F0Config::explicit(0.8, 0.3, 8, 2)
}

#[test]
#[should_panic(expected = "outside the declared universe")]
fn minimum_process_rejects_an_item_outside_the_universe() {
    out_of_universe(
        &mut MinimumF0::new(12, &small_config(), &mut rng_from(1)),
        false,
    );
}

#[test]
#[should_panic(expected = "outside the declared universe")]
fn minimum_process_stream_rejects_an_item_outside_the_universe() {
    out_of_universe(
        &mut MinimumF0::new(12, &small_config(), &mut rng_from(1)),
        true,
    );
}

#[test]
#[should_panic(expected = "outside the declared universe")]
fn bucketing_process_rejects_an_item_outside_the_universe() {
    out_of_universe(
        &mut BucketingF0::new(12, &small_config(), &mut rng_from(1)),
        false,
    );
}

#[test]
#[should_panic(expected = "outside the declared universe")]
fn bucketing_process_stream_rejects_an_item_outside_the_universe() {
    out_of_universe(
        &mut BucketingF0::new(12, &small_config(), &mut rng_from(1)),
        true,
    );
}

// ---------------------------------------------------------------------------
// Merge semantics: merge(sketch(A), sketch(B)) == sketch(A ∪ B) for every
// mergeable sketch (distinct-union; multiset-sum for the linear AMS sketch),
// including empty streams and duplicate-heavy overlap. The two sketches must
// share their hash draws (same seed), which is exactly the service's
// merge-compatibility precondition.
// ---------------------------------------------------------------------------

/// The Minimum half of [`assert_merge_matches_union`]: estimate, space and
/// every reservoir, merged both ways.
fn assert_minimum_merge_matches_union(
    bits: usize,
    thresh: usize,
    a_items: &[u64],
    b_items: &[u64],
    seed: u64,
) -> Result<(), TestCaseError> {
    let config = F0Config::explicit(0.5, 0.3, thresh, 3);
    let union: Vec<u64> = a_items.iter().chain(b_items).copied().collect();
    let mut a = MinimumF0::new(bits, &config, &mut rng_from(seed));
    let mut b = MinimumF0::new(bits, &config, &mut rng_from(seed));
    let mut u = MinimumF0::new(bits, &config, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    let mut ba = b.clone();
    ba.merge_from(&a);
    a.merge_from(&b);
    prop_assert_eq!(a.estimate(), u.estimate());
    prop_assert_eq!(a.space_bits(), u.space_bits());
    // Merge is symmetric: B ← A reaches the identical state.
    prop_assert_eq!(ba.estimate(), u.estimate());
    prop_assert_eq!(ba.space_bits(), u.space_bits());
    for i in 0..u.num_rows() {
        let union_row = u.row_parts(i).1;
        prop_assert_eq!(
            a.row_parts(i).1,
            union_row,
            "bits={} thresh={}",
            bits,
            thresh
        );
        prop_assert_eq!(
            ba.row_parts(i).1,
            union_row,
            "bits={} thresh={}",
            bits,
            thresh
        );
    }
    Ok(())
}

/// Builds sketch(A), sketch(B) and sketch(A ++ B) from one seed, merges the
/// first pair both ways, and asserts full-state agreement with the third.
fn assert_merge_matches_union(
    a_items: &[u64],
    b_items: &[u64],
    seed: u64,
) -> Result<(), TestCaseError> {
    let config = F0Config::explicit(0.5, 0.3, 16, 3);
    let union: Vec<u64> = a_items.iter().chain(b_items).copied().collect();

    // MinimumF0, whose merge is a linear merge of sorted key arrays: at
    // reservoirs of one, two and three words, short of Thresh and past it.
    // Items are spread over each width by a fixed map, so A and B still
    // share exactly the items they shared before.
    for bits in [8usize, 22, 43, 64] {
        let spread = |items: &[u64]| -> Vec<u64> {
            items
                .iter()
                .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits))
                .collect()
        };
        for thresh in [1usize, 3, 150] {
            assert_minimum_merge_matches_union(
                bits,
                thresh,
                &spread(a_items),
                &spread(b_items),
                seed,
            )?;
        }
    }

    // BucketingF0: estimate + space + levels.
    let mut a = BucketingF0::new(BITS, &config, &mut rng_from(seed));
    let mut b = BucketingF0::new(BITS, &config, &mut rng_from(seed));
    let mut u = BucketingF0::new(BITS, &config, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    prop_assert_eq!(a.estimate(), u.estimate());
    prop_assert_eq!(a.space_bits(), u.space_bits());
    for i in 0..a.num_rows() {
        prop_assert_eq!(a.level(i), u.level(i));
    }

    // EstimationF0: every cell.
    let mut a = EstimationF0::new(BITS, &config, &mut rng_from(seed));
    let mut b = EstimationF0::new(BITS, &config, &mut rng_from(seed));
    let mut u = EstimationF0::new(BITS, &config, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    for i in 0..a.num_rows() {
        for j in 0..a.thresh() {
            prop_assert_eq!(a.cell(i, j), u.cell(i, j));
        }
    }

    // FlajoletMartinF0 (covers the empty-stream `saw_item` flag).
    let mut a = FlajoletMartinF0::new(BITS, &mut rng_from(seed));
    let mut b = FlajoletMartinF0::new(BITS, &mut rng_from(seed));
    let mut u = FlajoletMartinF0::new(BITS, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    prop_assert_eq!(a.max_trailing_zeros(), u.max_trailing_zeros());
    prop_assert_eq!(a.estimate(), u.estimate());

    // AmsF2: linear sketch, so merge is concatenation (multiset sum).
    let mut a = AmsF2::new(BITS, 3, 8, &mut rng_from(seed));
    let mut b = AmsF2::new(BITS, 3, 8, &mut rng_from(seed));
    let mut u = AmsF2::new(BITS, 3, 8, &mut rng_from(seed));
    a.process_stream(a_items);
    b.process_stream(b_items);
    u.process_stream(&union);
    a.merge_from(&b);
    prop_assert_eq!(a.estimate(), u.estimate());
    prop_assert_eq!(a.items_processed(), u.items_processed());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_sketches_match_the_union_stream(a_items in stream(BITS, 150), b_items in stream(BITS, 150), seed in any::<u64>()) {
        assert_merge_matches_union(&a_items, &b_items, seed)?;
    }

    #[test]
    fn merged_sketches_match_the_union_on_heavy_overlap(items in stream(8, 200), cut in 0.0f64..=1.0, seed in any::<u64>()) {
        // Both halves draw from a 256-item universe, so A ∩ B is large and
        // duplicates dominate; the halves also share a boundary region.
        let mid = ((items.len() as f64) * cut) as usize;
        assert_merge_matches_union(&items[..mid], &items[mid / 2..], seed)?;
    }

    #[test]
    fn merging_an_empty_sketch_is_the_identity(items in stream(BITS, 150), seed in any::<u64>()) {
        assert_merge_matches_union(&items, &[], seed)?;
        assert_merge_matches_union(&[], &items, seed)?;
        assert_merge_matches_union(&[], &[], seed)?;
    }
}

// ---------------------------------------------------------------------------
// The unified ComputeF0 driver
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn compute_f0_is_accurate_on_planted_streams(seed in any::<u64>(), truth in 50usize..400) {
        let mut rng = rng_from(seed);
        let stream = mcf0_streaming::workloads::planted_f0_stream(&mut rng, BITS, truth, truth + 50);
        for strategy in [SketchStrategy::Bucketing, SketchStrategy::Minimum] {
            let config = F0Config::explicit(0.5, 0.2, 128, 9);
            let mut rng = rng_from(seed ^ 0x5EED);
            let outcome = compute_f0(strategy, BITS, &config, &stream, &mut rng);
            let est = outcome.estimate;
            prop_assert!(
                est >= truth as f64 / 2.0 && est <= truth as f64 * 2.0,
                "strategy {strategy:?}: estimate {est} vs truth {truth}"
            );
        }
    }
}
