//! Property-based tests for structured set streams: the range→DNF encoding
//! of Lemma 4 is exact, the CNF encoding of Observation 2 agrees with it,
//! arithmetic progressions and affine sets describe exactly the sets they
//! claim, and the structured sketches reduce to exact counting on small
//! streams.

use proptest::prelude::*;

use mcf0_counting::CountingConfig;
use mcf0_formula::exact::{count_cnf_dpll, count_dnf_exact};
use mcf0_formula::Assignment;
use mcf0_gf2::{BitMatrix, BitVec};
use mcf0_hashing::Xoshiro256StarStar;
use mcf0_structured::{
    AffineSet, DnfSet, MultiDimProgression, MultiDimRange, Progression, RangeDim,
    StructuredMinimumF0, StructuredSet,
};

fn rng_from(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

fn assignment_from_u64_msb(value: u64, bits: usize) -> Assignment {
    // Structured encodings use variable i = i-th most significant bit.
    let mut a = Assignment::zeros(bits);
    for i in 0..bits {
        if (value >> (bits - 1 - i)) & 1 == 1 {
            a.set(i, true);
        }
    }
    a
}

/// Strategy for a single range dimension of at most `max_bits` bits.
fn range_dim(max_bits: usize) -> impl Strategy<Value = RangeDim> {
    (1usize..=max_bits, any::<u64>(), any::<u64>()).prop_map(|(bits, a, b)| {
        let mask = (1u64 << bits) - 1;
        let (a, b) = (a & mask, b & mask);
        RangeDim::new(a.min(b), a.max(b), bits)
    })
}

/// Strategy for a multidimensional range with `1..=max_d` dimensions.
fn multi_range(max_bits: usize, max_d: usize) -> impl Strategy<Value = MultiDimRange> {
    prop::collection::vec(range_dim(max_bits), 1..=max_d).prop_map(MultiDimRange::new)
}

// ---------------------------------------------------------------------------
// Ranges: dyadic decomposition, DNF and CNF encodings (Lemma 4, Obs. 2)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dyadic_blocks_partition_the_interval(dim in range_dim(12)) {
        let blocks = dim.dyadic_blocks();
        // Paper bound: at most 2·bits blocks.
        prop_assert!(blocks.len() <= 2 * dim.bits);
        let mut covered: Vec<u64> = Vec::new();
        for (start, log_size) in blocks {
            // Blocks are aligned to their size.
            prop_assert_eq!(start % (1u64 << log_size), 0);
            covered.extend(start..start + (1u64 << log_size));
        }
        covered.sort_unstable();
        let expected: Vec<u64> = (dim.lo..=dim.hi).collect();
        prop_assert_eq!(covered, expected);
    }

    #[test]
    fn single_dimension_dnf_encodes_membership(dim in range_dim(8)) {
        let range = MultiDimRange::new(vec![dim]);
        let dnf = range.to_dnf();
        for value in 0..(1u64 << dim.bits) {
            let a = assignment_from_u64_msb(value, dim.bits);
            prop_assert_eq!(dnf.eval(&a), value >= dim.lo && value <= dim.hi, "value {}", value);
        }
    }

    #[test]
    fn multi_dimensional_dnf_and_cnf_encodings_agree(range in multi_range(4, 3)) {
        let dnf = range.to_dnf();
        let cnf = range.to_cnf();
        let bits = range.total_bits();
        prop_assume!(bits <= 12);
        for value in 0..(1u64 << bits) {
            let a = assignment_from_u64_msb(value, bits);
            prop_assert_eq!(dnf.eval(&a), cnf.eval(&a), "value {:b}", value);
        }
    }

    #[test]
    fn range_cardinality_matches_the_dnf_model_count(range in multi_range(4, 3)) {
        prop_assume!(range.total_bits() <= 14);
        prop_assert_eq!(range.cardinality(), count_dnf_exact(&range.to_dnf()));
        prop_assert_eq!(range.cardinality(), count_cnf_dpll(&range.to_cnf()));
    }

    #[test]
    fn term_count_matches_lemma_4_bound(range in multi_range(10, 3)) {
        let claimed = range.term_count();
        prop_assert_eq!(claimed, range.to_dnf().num_terms() as u128);
        // Lemma 4: at most (2·bits)^d terms.
        let bound: u128 = range
            .dims()
            .iter()
            .map(|d| 2u128 * d.bits as u128)
            .product();
        prop_assert!(claimed <= bound);
    }

    #[test]
    fn encode_and_contains_agree(range in multi_range(6, 3), seed in any::<u64>()) {
        let mut rng = rng_from(seed);
        let point: Vec<u64> = range
            .dims()
            .iter()
            .map(|d| rng.gen_range(1u64 << d.bits))
            .collect();
        let inside = range.contains_point(&point);
        let expected = range
            .dims()
            .iter()
            .zip(&point)
            .all(|(d, &v)| v >= d.lo && v <= d.hi);
        prop_assert_eq!(inside, expected);
        // The encoded point satisfies the DNF exactly when it is inside.
        let encoded = range.encode_point(&point);
        prop_assert_eq!(range.to_dnf().eval(&encoded), expected);
    }

    #[test]
    fn worst_case_range_has_n_to_the_d_terms(bits in 2usize..6, d in 1usize..3) {
        // Observation 1: the range [1, 2^bits − 1]^d needs bits^d DNF terms,
        // while the CNF encoding stays linear in bits·d (Observation 2).
        let range = MultiDimRange::worst_case(bits, d);
        prop_assert_eq!(range.term_count(), (bits as u128).pow(d as u32));
        let cnf = range.to_cnf();
        prop_assert!(cnf.num_clauses() <= 2 * bits * d);
    }

    #[test]
    fn cnf_clause_count_is_linear_in_bits(dim in range_dim(32)) {
        // Observation 2 building block: O(bits) clauses per dimension.
        let clauses = dim.cnf_clauses(0);
        prop_assert!(clauses.len() <= 2 * dim.bits + 2);
    }
}

// ---------------------------------------------------------------------------
// Arithmetic progressions (Corollary 1)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn progression_dnf_encodes_membership(bits in 2usize..8, raw_a in any::<u64>(), raw_b in any::<u64>(), stride in 0u32..4) {
        let mask = (1u64 << bits) - 1;
        let (a, b) = ((raw_a & mask).min(raw_b & mask), (raw_a & mask).max(raw_b & mask));
        let stride = stride.min(bits as u32 - 1);
        let prog = Progression::new(a, b, stride, bits);
        let multi = MultiDimProgression::new(vec![prog]);
        let dnf = multi.to_dnf();
        for value in 0..(1u64 << bits) {
            let assignment = assignment_from_u64_msb(value, bits);
            prop_assert_eq!(dnf.eval(&assignment), prog.contains(value), "value {}", value);
        }
    }

    #[test]
    fn progression_cardinality_matches_membership_count(bits in 2usize..9, raw_a in any::<u64>(), raw_b in any::<u64>(), stride in 0u32..5) {
        let mask = (1u64 << bits) - 1;
        let (a, b) = ((raw_a & mask).min(raw_b & mask), (raw_a & mask).max(raw_b & mask));
        let stride = stride.min(bits as u32 - 1);
        let prog = Progression::new(a, b, stride, bits);
        let expected = (0..(1u64 << bits)).filter(|&v| prog.contains(v)).count() as u64;
        prop_assert_eq!(prog.len(), expected);
    }

    #[test]
    fn multi_progression_cardinality_is_the_product(
        bits in 2usize..6,
        dims in prop::collection::vec((any::<u64>(), any::<u64>(), 0u32..3), 1..3),
    ) {
        let mask = (1u64 << bits) - 1;
        let progressions: Vec<Progression> = dims
            .into_iter()
            .map(|(raw_a, raw_b, stride)| {
                let (a, b) = ((raw_a & mask).min(raw_b & mask), (raw_a & mask).max(raw_b & mask));
                Progression::new(a, b, stride.min(bits as u32 - 1), bits)
            })
            .collect();
        let expected: u128 = progressions.iter().map(|p| p.len() as u128).product();
        let multi = MultiDimProgression::new(progressions);
        prop_assert_eq!(multi.cardinality(), expected);
        prop_assume!(multi.total_bits() <= 12);
        prop_assert_eq!(count_dnf_exact(&multi.to_dnf()), expected);
    }
}

// ---------------------------------------------------------------------------
// Affine sets and DNF sets as structured stream items
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn affine_set_exact_size_matches_brute_force(seed in any::<u64>(), n in 2usize..7, rows in 1usize..7) {
        let mut rng = rng_from(seed);
        let a = BitMatrix::from_rows((0..rows).map(|_| rng.random_bitvec(n)).collect());
        let b = rng.random_bitvec(rows);
        let set = AffineSet::from_parts(a.clone(), b.clone());
        let expected = (0..(1u64 << n))
            .filter(|&v| a.mul_vec(&BitVec::from_u64(v, n)) == b)
            .count() as u128;
        prop_assert_eq!(set.exact_size(), Some(expected));
    }

    #[test]
    fn dnf_set_exact_size_matches_the_exact_counter(seed in any::<u64>(), n in 2usize..9, terms in 1usize..6) {
        let mut rng = rng_from(seed);
        let f = mcf0_formula::generators::random_dnf(&mut rng, n, terms, (1, 3.min(n)));
        let set = DnfSet::new(f.clone());
        prop_assert_eq!(set.exact_size(), Some(count_dnf_exact(&f)));
    }

    #[test]
    fn structured_items_report_consistent_smallest_hashes(seed in any::<u64>(), n in 3usize..7, terms in 1usize..4, p in 1usize..12) {
        use mcf0_hashing::{LinearHash, ToeplitzHash};
        // The p smallest hashed members reported by a DnfSet must equal the
        // brute-force p smallest hashes of its members.
        let mut rng = rng_from(seed);
        let f = mcf0_formula::generators::random_dnf(&mut rng, n, terms, (1, 2.min(n)));
        let set = DnfSet::new(f.clone());
        let hash = ToeplitzHash::sample(&mut rng, n, 3 * n);
        let reported = set.smallest_hashed(&hash, p);

        let mut truth: Vec<BitVec> = (0..(1u64 << n))
            .filter_map(|v| {
                let mut a = Assignment::zeros(n);
                for i in 0..n {
                    if (v >> i) & 1 == 1 {
                        a.set(i, true);
                    }
                }
                f.eval(&a).then(|| hash.eval(&a))
            })
            .collect();
        truth.sort();
        truth.dedup();
        truth.truncate(p);
        prop_assert_eq!(reported, truth);
    }
}

// ---------------------------------------------------------------------------
// The structured Minimum sketch reduces to exact counting on small unions
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn small_range_unions_are_counted_exactly(seed in any::<u64>(), ranges in prop::collection::vec((any::<u64>(), any::<u64>()), 1..6)) {
        // Each item is a 1-dimensional 8-bit range; the union has at most 256
        // elements, far below Thresh, so the Minimum sketch is exact.
        let bits = 8usize;
        let mask = (1u64 << bits) - 1;
        let items: Vec<MultiDimRange> = ranges
            .into_iter()
            .map(|(a, b)| {
                let (a, b) = ((a & mask).min(b & mask), (a & mask).max(b & mask));
                MultiDimRange::new(vec![RangeDim::new(a, b, bits)])
            })
            .collect();
        let mut exact = std::collections::HashSet::new();
        for r in &items {
            let d = &r.dims()[0];
            exact.extend(d.lo..=d.hi);
        }

        let config = CountingConfig::explicit(0.5, 0.3, 300, 5);
        let mut rng = rng_from(seed);
        let mut sketch = StructuredMinimumF0::new(bits, &config, &mut rng);
        for r in &items {
            sketch.process_item(r);
        }
        prop_assert_eq!(sketch.estimate(), exact.len() as f64);
        prop_assert_eq!(sketch.items_processed(), items.len() as u64);
    }
}

// ---------------------------------------------------------------------------
// Merge semantics: merging two same-draw structured sketches equals the
// sketch of the concatenated item streams (distinct-union over the items'
// element sets), including the empty-stream and shared-item cases.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn structured_merge_matches_the_union_stream(seed in any::<u64>(), item_seed in any::<u64>(), split in 0usize..=6, overlap in 0usize..=3) {
        use mcf0_formula::generators::random_dnf;
        use mcf0_structured::StructuredBucketingF0;

        let n = 10usize;
        let mut items_rng = rng_from(item_seed);
        let items: Vec<DnfSet> = (0..6)
            .map(|_| DnfSet::new(random_dnf(&mut items_rng, n, 3, (2, 5))))
            .collect();
        // A and B share `overlap` items around the split (duplicate-heavy
        // merge input); either side may be empty.
        let split = split.min(items.len());
        let a_items = &items[..split];
        let b_items = &items[split.saturating_sub(overlap)..];
        let both: Vec<&DnfSet> = a_items.iter().chain(b_items).collect();

        let config = CountingConfig::explicit(0.8, 0.3, 24, 3);
        let mut a = StructuredMinimumF0::new(n, &config, &mut rng_from(seed));
        let mut b = StructuredMinimumF0::new(n, &config, &mut rng_from(seed));
        let mut u = StructuredMinimumF0::new(n, &config, &mut rng_from(seed));
        for item in a_items { a.process_item(item); }
        for item in b_items { b.process_item(item); }
        for item in &both { u.process_item(*item); }
        a.merge_from(&b);
        prop_assert_eq!(a.estimate(), u.estimate());
        prop_assert_eq!(a.space_bits(), u.space_bits());
        prop_assert_eq!(a.items_processed(), u.items_processed());
        for i in 0..a.minimum().num_rows() {
            prop_assert_eq!(a.minimum().row_parts(i).1, u.minimum().row_parts(i).1);
        }

        let mut a = StructuredBucketingF0::new(n, &config, &mut rng_from(seed));
        let mut b = StructuredBucketingF0::new(n, &config, &mut rng_from(seed));
        let mut u = StructuredBucketingF0::new(n, &config, &mut rng_from(seed));
        for item in a_items { a.process_item(item); }
        for item in b_items { b.process_item(item); }
        for item in &both { u.process_item(*item); }
        a.merge_from(&b);
        prop_assert_eq!(a.estimate(), u.estimate());
    }
}
