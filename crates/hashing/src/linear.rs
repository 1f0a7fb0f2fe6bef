//! Affine hash families over GF(2): `H_Toeplitz(n, m)` and `H_xor(n, m)`.
//!
//! Both families consist of maps `h(x) = Ax + b` from `{0,1}^n` to `{0,1}^m`
//! and are 2-wise independent. They differ only in how `A` is drawn:
//! a uniformly random Toeplitz matrix (Θ(n + m) bits of randomness) versus a
//! fully random matrix (Θ(n·m) bits). The `m'`-th *prefix slice* `h_{m'}` is
//! the map given by the first `m'` rows of `A` and the first `m'` bits of
//! `b` — the structural property that lets the bucketing algorithms tighten
//! cells one level at a time without redrawing hash functions.

use crate::rng::Xoshiro256StarStar;
use mcf0_gf2::{AffineSubspace, BitMatrix, BitVec};
use std::sync::{Arc, OnceLock};

/// Common interface of the affine (2-wise independent) hash families.
pub trait LinearHash {
    /// Input width `n`.
    fn input_bits(&self) -> usize;

    /// Output width `m`.
    fn output_bits(&self) -> usize;

    /// Row `i` of the matrix `A` (a vector of `n` bits).
    fn matrix_row(&self, i: usize) -> BitVec;

    /// Offset bit `b_i`.
    fn offset_bit(&self, i: usize) -> bool;

    /// Evaluates the full hash `h(x) = Ax + b`.
    fn eval(&self, x: &BitVec) -> BitVec {
        let n = self.input_bits();
        let m = self.output_bits();
        assert_eq!(x.len(), n, "input width mismatch");
        let mut out = BitVec::zeros(m);
        for i in 0..m {
            let bit = self.matrix_row(i).dot(x) ^ self.offset_bit(i);
            out.set(i, bit);
        }
        out
    }

    /// Evaluates the prefix slice `h_{m'}(x)` (first `m'` output bits).
    fn eval_prefix(&self, x: &BitVec, m_prime: usize) -> BitVec {
        assert!(m_prime <= self.output_bits());
        let mut out = BitVec::zeros(m_prime);
        for i in 0..m_prime {
            let bit = self.matrix_row(i).dot(x) ^ self.offset_bit(i);
            out.set(i, bit);
        }
        out
    }

    /// True iff `h_{m'}(x) = 0^{m'}` — the cell-membership test used by the
    /// Bucketing strategy and by `ApproxMC`.
    fn prefix_is_zero(&self, x: &BitVec, m_prime: usize) -> bool {
        (0..m_prime).all(|i| self.matrix_row(i).dot(x) == self.offset_bit(i))
    }

    /// The affine representation `(A, b)` of the full hash.
    fn to_affine(&self) -> (BitMatrix, BitVec) {
        let m = self.output_bits();
        let rows: Vec<BitVec> = (0..m).map(|i| self.matrix_row(i)).collect();
        let mut b = BitVec::zeros(m);
        for i in 0..m {
            b.set(i, self.offset_bit(i));
        }
        (BitMatrix::from_rows(rows), b)
    }

    /// The affine representation of the prefix slice `h_{m'}`.
    fn prefix_affine(&self, m_prime: usize) -> (BitMatrix, BitVec) {
        assert!(m_prime <= self.output_bits());
        let rows: Vec<BitVec> = (0..m_prime).map(|i| self.matrix_row(i)).collect();
        let mut b = BitVec::zeros(m_prime);
        for i in 0..m_prime {
            b.set(i, self.offset_bit(i));
        }
        (BitMatrix::from_rows(rows), b)
    }

    /// Image of a sub-cube of the input space under the hash, as an affine
    /// subspace of `{0,1}^m`.
    ///
    /// `fixed` assigns some input variables a constant; the remaining
    /// variables are free. This is the "hashed solution set of a DNF term"
    /// construction from the proof of Proposition 2.
    fn image_of_cube(&self, fixed: &[(usize, bool)]) -> AffineSubspace {
        let n = self.input_bits();
        let m = self.output_bits();
        let mut is_fixed = vec![false; n];
        let mut x0 = BitVec::zeros(n);
        for &(var, value) in fixed {
            assert!(var < n, "fixed variable index out of range");
            is_fixed[var] = true;
            x0.set(var, value);
        }
        // Offset = h(x0) where free variables are zero.
        let offset = self.eval(&x0);
        // Generators: for each free variable j, the column A·e_j.
        let mut generators = Vec::new();
        for (j, _) in is_fixed.iter().enumerate().filter(|&(_, &fixed)| !fixed) {
            let mut col = BitVec::zeros(m);
            for i in 0..m {
                if self.matrix_row(i).get(j) {
                    col.set(i, true);
                }
            }
            generators.push(col);
        }
        AffineSubspace::new(offset, generators)
    }
}

/// A hash drawn from `H_Toeplitz(n, m)`: `A` is a random Toeplitz matrix
/// (constant along diagonals), `b` a random vector. The randomness is the
/// `n + m − 1` diagonal bits plus `b`, i.e. Θ(n + m) bits as in the paper.
///
/// Everything else is derived from `(diag, b)` once per draw and shared by
/// every clone through one `Arc` (the window ring and every partial-sketch
/// extraction clone hashes, so a clone copies the randomness and a
/// pointer): the rows (dot-product evaluation of prefix slices), the
/// *columns* (`h(x)` is the word-wise XOR of `popcount(x)` columns into `b`,
/// the `BitVec` evaluation and `image_of_cube`), and, when `n ≤ 64`, the
/// byte-indexed tables of [`ToeplitzHash::lead_u64`], the kernel both
/// streaming hot loops run per item, plus nibble-indexed tables for the
/// later words of [`ToeplitzHash::eval_u64_into`].
#[derive(Clone, Debug)]
pub struct ToeplitzHash {
    n: usize,
    m: usize,
    /// `diag[k]` is the matrix entry `A[i][j]` for all `i − j = k − (n − 1)`.
    diag: BitVec,
    b: BitVec,
    derived: Arc<Derived>,
}

/// The expansions of one draw; a function of `(n, m, diag, b)` only.
#[derive(Debug)]
struct Derived {
    rows: Vec<BitVec>,
    /// Column `j` of `A` as an `m`-bit vector.
    cols: Vec<BitVec>,
    /// `lead[k][v]` is the first word of the XOR of the columns selected by
    /// byte `k` (little-endian) of a `u64` item holding the value `v`, with
    /// the first word of `b` folded into `lead[0]`. `⌈n/8⌉` tables when
    /// `n ≤ 64`, none otherwise; bits of the top byte beyond `n` select
    /// nothing.
    lead: Vec<[u64; 256]>,
    /// `tail[w − 1]` is the same for output word `w ≥ 1`, indexed by the
    /// item's nibbles instead of its bytes: the later words of
    /// [`ToeplitzHash::eval_u64_into`] at a sixteenth of the memory of byte
    /// tables. Built by its first call, so the many draws that never
    /// call it (Bucketing cells, the counters' hashes) allocate nothing;
    /// empty unless `m > 64`.
    tail: OnceLock<Vec<Vec<[u64; 16]>>>,
}

impl ToeplitzHash {
    /// Samples a uniformly random member of `H_Toeplitz(n, m)`.
    pub fn sample(rng: &mut Xoshiro256StarStar, n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0);
        let diag = rng.random_bitvec(n + m - 1);
        let b = rng.random_bitvec(m);
        Self::from_parts(n, m, diag, b)
    }

    /// Rebuilds the hash from its randomness `(diag, b)` — the lossless
    /// import matching [`ToeplitzHash::diagonal`] / [`ToeplitzHash::offset`],
    /// used by the sketch-service snapshot restore path. The expansions are
    /// rederived, so a round trip is bit-identical to the originally sampled
    /// hash.
    pub fn from_parts(n: usize, m: usize, diag: BitVec, b: BitVec) -> Self {
        assert!(n > 0 && m > 0);
        assert_eq!(diag.len(), n + m - 1, "diagonal width mismatch");
        assert_eq!(b.len(), m, "offset width mismatch");
        let rows: Vec<BitVec> = (0..m)
            .map(|i| {
                let mut row = BitVec::zeros(n);
                for j in 0..n {
                    // index into diag: (i - j) + (n - 1) ∈ 0..n+m-1
                    if diag.get(i + (n - 1) - j) {
                        row.set(j, true);
                    }
                }
                row
            })
            .collect();
        let cols: Vec<BitVec> = (0..n)
            .map(|j| {
                let mut col = BitVec::zeros(m);
                for i in 0..m {
                    if diag.get(i + (n - 1) - j) {
                        col.set(i, true);
                    }
                }
                col
            })
            .collect();
        let lead = if n <= 64 {
            word_tables(&cols, &b, 0)
        } else {
            Vec::new()
        };
        ToeplitzHash {
            n,
            m,
            diag,
            b,
            derived: Arc::new(Derived {
                rows,
                cols,
                lead,
                tail: OnceLock::new(),
            }),
        }
    }

    /// Number of random bits this representation stores (Θ(n + m)); the
    /// shared expansions are derived data, not randomness.
    pub fn representation_bits(&self) -> usize {
        self.diag.len() + self.b.len()
    }

    /// The diagonal bits of `A` (the matrix half of the hash's randomness).
    pub fn diagonal(&self) -> &BitVec {
        &self.diag
    }

    /// The offset vector `b` (the other half of the randomness).
    pub fn offset(&self) -> &BitVec {
        &self.b
    }

    /// Evaluates `h(x)` for an item given as the low-`n`-bit integer `x`
    /// (the streaming-sketch item encoding; requires `n ≤ 64`): the words of
    /// [`ToeplitzHash::eval_u64_into`] as a bit vector.
    pub fn eval_u64(&self, x: u64) -> BitVec {
        let mut words = vec![0; self.m.div_ceil(64)];
        self.eval_u64_into(x, &mut words);
        BitVec::from_word_vec(self.m, words)
    }

    /// Writes the `⌈m/64⌉` words of `h(x)` into `out` in the
    /// [`BitVec::words`] layout (MSB-first, tail bits zero), allocating
    /// nothing: the first word is [`ToeplitzHash::lead_u64`], each later
    /// word one nibble-table lookup per four bits of `x` (requires `n ≤ 64`
    /// and `out.len() = ⌈m/64⌉`).
    pub fn eval_u64_into(&self, x: u64, out: &mut [u64]) {
        assert_eq!(out.len(), self.b.words().len(), "output word count");
        let (lead, later) = out.split_first_mut().expect("m > 0");
        *lead = self.lead_u64(x);
        if later.is_empty() {
            return;
        }
        let tail = self.derived.tail.get_or_init(|| {
            let later = 1..self.b.words().len();
            later
                .map(|w| word_tables(&self.derived.cols, &self.b, w))
                .collect()
        });
        // The tables are XORs of column and offset words, whose tails are
        // zero, so the output's tail is too.
        for (word, tables) in later.iter_mut().zip(tail) {
            *word = tables.iter().enumerate().fold(0, |acc, (k, table)| {
                acc ^ table[(x >> (4 * k)) as usize & 15]
            });
        }
    }

    /// The first `min(m, 64)` bits of `h(x)`, MSB-aligned in one word — the
    /// first word of [`ToeplitzHash::eval_u64`] — from `⌈n/8⌉` table
    /// lookups, with nothing materialised (requires `n ≤ 64`). Bits of `x`
    /// at or above `n` are ignored; callers check the universe.
    #[inline]
    pub fn lead_u64(&self, x: u64) -> u64 {
        let lead = &self.derived.lead;
        assert!(
            !lead.is_empty(),
            "lead_u64 requires an input width of at most 64"
        );
        debug_assert!(self.n == 64 || x < (1u64 << self.n), "item out of range");
        lead.iter()
            .zip(x.to_le_bytes())
            .fold(0, |acc, (table, byte)| acc ^ table[usize::from(byte)])
    }

    /// `h_{m'}(x) = 0^{m'}` for a `u64`-encoded item, for levels within the
    /// leading word (`m' ≤ min(m, 64)`; requires `n ≤ 64`).
    #[inline]
    pub fn prefix_is_zero_u64(&self, x: u64, m_prime: usize) -> bool {
        assert!(
            m_prime <= self.m.min(64),
            "prefix level beyond the leading word"
        );
        m_prime == 0 || self.lead_u64(x) >> (64 - m_prime) == 0
    }
}

/// Builds the tables of output word `w` of an `n ≤ 64` draw, one per
/// `log2 V`-bit chunk of the item (least significant first): each entry
/// extends the entry with its lowest set bit cleared by one column word.
fn word_tables<const V: usize>(cols: &[BitVec], b: &BitVec, w: usize) -> Vec<[u64; V]> {
    let n = cols.len();
    let bits = V.trailing_zeros() as usize;
    let mut tables = vec![[0u64; V]; n.div_ceil(bits)];
    for (k, table) in tables.iter_mut().enumerate() {
        table[0] = if k == 0 { b.words()[w] } else { 0 };
        for v in 1..V {
            // u64 bit p is MSB-first index n − 1 − p (see BitVec::from_u64).
            let p = bits * k + v.trailing_zeros() as usize;
            let col = if p < n { cols[n - 1 - p].words()[w] } else { 0 };
            table[v] = table[v & (v - 1)] ^ col;
        }
    }
    tables
}

impl PartialEq for ToeplitzHash {
    /// Two hashes are equal iff they were drawn identically: same dimensions
    /// and same randomness `(diag, b)`. The cached expansions are derived
    /// data, so they are not compared. This is the compatibility check the
    /// mergeable sketches use — distinct-union merge semantics only make
    /// sense between sketches sharing their hash draws.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.m == other.m && self.diag == other.diag && self.b == other.b
    }
}

impl Eq for ToeplitzHash {}

impl LinearHash for ToeplitzHash {
    fn input_bits(&self) -> usize {
        self.n
    }

    fn output_bits(&self) -> usize {
        self.m
    }

    fn matrix_row(&self, i: usize) -> BitVec {
        self.derived.rows[i].clone()
    }

    fn offset_bit(&self, i: usize) -> bool {
        self.b.get(i)
    }

    fn eval(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.n, "input width mismatch");
        // Column-wise: XOR the columns picked out by the set bits of `x`
        // into `b` — word operations instead of `m` row dot products.
        let mut out = self.b.clone();
        for j in x.iter_ones() {
            out.xor_assign(&self.derived.cols[j]);
        }
        out
    }

    fn eval_prefix(&self, x: &BitVec, m_prime: usize) -> BitVec {
        assert!(m_prime <= self.m);
        let mut out = self.b.prefix(m_prime);
        for (i, row) in self.derived.rows[..m_prime].iter().enumerate() {
            if row.dot(x) {
                out.flip(i);
            }
        }
        out
    }

    fn prefix_is_zero(&self, x: &BitVec, m_prime: usize) -> bool {
        self.derived.rows[..m_prime]
            .iter()
            .enumerate()
            .all(|(i, row)| row.dot(x) == self.b.get(i))
    }

    fn image_of_cube(&self, fixed: &[(usize, bool)]) -> AffineSubspace {
        // The generators are exactly the cached columns of the free
        // variables; the default trait implementation would rebuild each one
        // bit by bit from `m` row clones.
        let mut is_fixed = vec![false; self.n];
        let mut x0 = BitVec::zeros(self.n);
        for &(var, value) in fixed {
            assert!(var < self.n, "fixed variable index out of range");
            is_fixed[var] = true;
            x0.set(var, value);
        }
        let offset = self.eval(&x0);
        let generators = is_fixed
            .iter()
            .enumerate()
            .filter(|&(_, &f)| !f)
            .map(|(j, _)| self.derived.cols[j].clone())
            .collect();
        AffineSubspace::new(offset, generators)
    }
}

/// A hash drawn from `H_xor(n, m)`: `A` fully random, `b` random
/// (Θ(n·m) representation bits).
#[derive(Clone, Debug)]
pub struct XorHash {
    a: BitMatrix,
    b: BitVec,
}

impl XorHash {
    /// Samples a uniformly random member of `H_xor(n, m)`.
    pub fn sample(rng: &mut Xoshiro256StarStar, n: usize, m: usize) -> Self {
        assert!(n > 0 && m > 0);
        let a = BitMatrix::from_rows((0..m).map(|_| rng.random_bitvec(n)).collect());
        XorHash {
            a,
            b: rng.random_bitvec(m),
        }
    }

    /// Builds a hash from an explicit affine representation (used in tests
    /// and by the structured-stream reductions).
    pub fn from_affine(a: BitMatrix, b: BitVec) -> Self {
        assert_eq!(a.nrows(), b.len());
        XorHash { a, b }
    }

    /// Number of random bits this representation stores (Θ(n·m)).
    pub fn representation_bits(&self) -> usize {
        self.a.nrows() * self.a.ncols() + self.b.len()
    }
}

impl LinearHash for XorHash {
    fn input_bits(&self) -> usize {
        self.a.ncols()
    }

    fn output_bits(&self) -> usize {
        self.a.nrows()
    }

    fn matrix_row(&self, i: usize) -> BitVec {
        self.a.row(i).clone()
    }

    fn offset_bit(&self, i: usize) -> bool {
        self.b.get(i)
    }

    fn eval(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.a.ncols(), "input width mismatch");
        let mut out = self.b.clone();
        for i in 0..self.a.nrows() {
            if self.a.row(i).dot(x) {
                out.flip(i);
            }
        }
        out
    }

    fn eval_prefix(&self, x: &BitVec, m_prime: usize) -> BitVec {
        assert!(m_prime <= self.a.nrows());
        let mut out = self.b.prefix(m_prime);
        for i in 0..m_prime {
            if self.a.row(i).dot(x) {
                out.flip(i);
            }
        }
        out
    }

    fn prefix_is_zero(&self, x: &BitVec, m_prime: usize) -> bool {
        (0..m_prime).all(|i| self.a.row(i).dot(x) == self.b.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(0xC0FF_EE00)
    }

    #[test]
    fn eval_matches_affine_representation() {
        let mut rng = rng();
        for _ in 0..5 {
            let h = ToeplitzHash::sample(&mut rng, 12, 8);
            let (a, b) = h.to_affine();
            for _ in 0..20 {
                let x = rng.random_bitvec(12);
                assert_eq!(h.eval(&x), a.mul_vec(&x).xor(&b));
            }
            let g = XorHash::sample(&mut rng, 12, 8);
            let (a, b) = g.to_affine();
            for _ in 0..20 {
                let x = rng.random_bitvec(12);
                assert_eq!(g.eval(&x), a.mul_vec(&x).xor(&b));
            }
        }
    }

    #[test]
    fn prefix_slice_is_prefix_of_full_hash() {
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 16, 10);
        for _ in 0..20 {
            let x = rng.random_bitvec(16);
            let full = h.eval(&x);
            for m in 0..=10 {
                assert_eq!(h.eval_prefix(&x, m), full.prefix(m));
                assert_eq!(h.prefix_is_zero(&x, m), full.prefix_is_zero(m));
            }
        }
    }

    #[test]
    fn u64_fast_paths_match_bitvec_paths() {
        let mut rng = rng();
        for n in [1usize, 7, 8, 9, 12, 33, 63, 64] {
            for m in [1usize, 63, 64, 65, 96, 192] {
                let sampled = ToeplitzHash::sample(&mut rng, n, m);
                let rebuilt = ToeplitzHash::from_parts(
                    n,
                    m,
                    sampled.diagonal().clone(),
                    sampled.offset().clone(),
                );
                let top = m.min(64);
                // All-ones reaches every table's last entry, 0 the offset.
                let mut items = vec![0, u64::MAX >> (64 - n)];
                items.extend((0..30).map(|_| rng.next_u64() >> (64 - n)));
                for x in items {
                    let full = sampled.eval(&BitVec::from_u64(x, n));
                    for h in [&sampled, &rebuilt, &sampled.clone()] {
                        assert_eq!(h.eval_u64(x), full, "n={n} m={m}");
                        assert_eq!(h.lead_u64(x), full.words()[0], "n={n} m={m}");
                        // `top` is 64 whenever m ≥ 64: the `>> 64` shift trap.
                        for level in [0, 1, top - 1, top] {
                            assert_eq!(
                                h.prefix_is_zero_u64(x, level),
                                full.prefix_is_zero(level),
                                "n={n} m={m} level={level}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_word_kernel_writes_the_bitvec_words() {
        // Over the grid above, including the widths where the output gains
        // a word and the tail mask matters: every word is written (the
        // buffer starts as all ones) and the tail bits come out zero.
        let mut rng = rng();
        for n in [1usize, 7, 8, 9, 12, 33, 63, 64] {
            for m in [1usize, 63, 64, 65, 96, 192] {
                let h = ToeplitzHash::sample(&mut rng, n, m);
                for x in [0, u64::MAX >> (64 - n), rng.next_u64() >> (64 - n)] {
                    let mut words = vec![u64::MAX; m.div_ceil(64)];
                    h.eval_u64_into(x, &mut words);
                    assert_eq!(words, h.eval_u64(x).words(), "n={n} m={m}");
                    assert_eq!(words, h.eval(&BitVec::from_u64(x, n)).words());
                }
            }
        }
    }

    #[test]
    fn the_cell_test_matches_the_bitvec_cell_over_a_whole_universe() {
        // The parity test above would pass on a kernel that never reports a
        // zero prefix at deep levels if no sampled item had one; here every
        // level of an 8-bit draw is checked over the whole universe.
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 8, 8);
        for level in 0..=8 {
            let cell: Vec<u64> = (0..256)
                .filter(|&x| h.prefix_is_zero_u64(x, level))
                .collect();
            let expected: Vec<u64> = (0..256)
                .filter(|&x| h.prefix_is_zero(&BitVec::from_u64(x, 8), level))
                .collect();
            assert_eq!(cell, expected, "level={level}");
        }
    }

    #[test]
    #[should_panic(expected = "prefix level beyond the leading word")]
    fn the_cell_test_refuses_levels_past_the_leading_word() {
        let h = ToeplitzHash::sample(&mut rng(), 8, 72);
        h.prefix_is_zero_u64(0, 65);
    }

    #[test]
    #[should_panic(expected = "input width of at most 64")]
    fn the_word_kernel_refuses_wide_inputs() {
        let h = ToeplitzHash::sample(&mut rng(), 65, 8);
        h.lead_u64(0);
    }

    #[test]
    fn cached_column_image_of_cube_matches_default_impl() {
        // The ToeplitzHash override must produce the exact subspace the
        // generic row-by-row construction yields (same offset, same
        // generator order).
        struct RowView<'a>(&'a ToeplitzHash);
        impl LinearHash for RowView<'_> {
            fn input_bits(&self) -> usize {
                self.0.input_bits()
            }
            fn output_bits(&self) -> usize {
                self.0.output_bits()
            }
            fn matrix_row(&self, i: usize) -> BitVec {
                self.0.matrix_row(i)
            }
            fn offset_bit(&self, i: usize) -> bool {
                self.0.offset_bit(i)
            }
        }
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 10, 14);
        let fixed = [(0usize, true), (4usize, false), (9usize, true)];
        let fast = h.image_of_cube(&fixed);
        let slow = RowView(&h).image_of_cube(&fixed);
        assert_eq!(fast.offset(), slow.offset());
        assert_eq!(fast.basis(), slow.basis());
    }

    #[test]
    fn toeplitz_matrix_is_constant_on_diagonals() {
        let mut rng = rng();
        let h = ToeplitzHash::sample(&mut rng, 10, 7);
        let (a, _) = h.to_affine();
        for i in 1..7 {
            for j in 1..10 {
                assert_eq!(a.get(i, j), a.get(i - 1, j - 1), "i={i} j={j}");
            }
        }
    }

    #[test]
    fn representation_sizes_match_paper_claims() {
        let mut rng = rng();
        let t = ToeplitzHash::sample(&mut rng, 100, 60);
        let x = XorHash::sample(&mut rng, 100, 60);
        assert_eq!(t.representation_bits(), 100 + 60 - 1 + 60);
        assert_eq!(x.representation_bits(), 100 * 60 + 60);
        assert!(t.representation_bits() < x.representation_bits());
    }

    #[test]
    fn image_of_cube_matches_exhaustive_image() {
        let mut rng = rng();
        let h = XorHash::sample(&mut rng, 6, 5);
        // Fix x0 = 1, x3 = 0; free variables are x1, x2, x4, x5.
        let fixed = [(0usize, true), (3usize, false)];
        let image = h.image_of_cube(&fixed);
        let mut expected: Vec<u64> = Vec::new();
        for v in 0..64u64 {
            let x = BitVec::from_u64(v, 6);
            if x.get(0) && !x.get(3) {
                let y = h.eval(&x).to_u64();
                if !expected.contains(&y) {
                    expected.push(y);
                }
            }
        }
        expected.sort_unstable();
        let got: Vec<u64> = image
            .lex_smallest(usize::MAX >> 1)
            .iter()
            .map(BitVec::to_u64)
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empirical_pairwise_independence_of_toeplitz() {
        // For distinct x ≠ y, Pr[h(x) = h(y)] should be close to 2^-m.
        let mut rng = rng();
        let n = 10;
        let m = 4;
        let trials = 4000;
        let x = BitVec::from_u64(0b1011001110, n);
        let y = BitVec::from_u64(0b0000000001, n);
        let mut collisions = 0;
        for _ in 0..trials {
            let h = ToeplitzHash::sample(&mut rng, n, m);
            if h.eval(&x) == h.eval(&y) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / 16.0;
        assert!(
            (rate - expected).abs() < 0.02,
            "collision rate {rate} should be near {expected}"
        );
    }
}
