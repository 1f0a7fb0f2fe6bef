//! Multidimensional ranges and the Lemma 4 range→DNF decomposition.
//!
//! A d-dimensional range `[a_1, b_1] × … × [a_d, b_d]` over per-dimension
//! `n_j`-bit integers is a structured stream item. Each one-dimensional
//! interval decomposes into at most `2·n_j` aligned dyadic blocks, every
//! block being a cube that fixes a prefix of the dimension's bits
//! (Lemma 4); the d-dimensional range is the cross product, i.e. a DNF with
//! at most `Π_j 2·n_j ≤ (2n)^d` terms over `Σ_j n_j` variables. The terms
//! are generated lazily so an item never needs more than `O(Σ_j n_j)` working
//! space, as the lemma requires.
//!
//! [`MultiDimRange::worst_case`] builds the `[1, 2^n − 1]^d` range of
//! Observation 1, whose minimal DNF has `n^d` terms, and
//! [`MultiDimRange::to_cnf`] builds the `O(n·d)`-clause CNF encoding of
//! Observation 2 — the pair quantifying the DNF/CNF representation gap the
//! paper discusses.

use crate::stream_f0::StructuredSet;
use mcf0_formula::{Clause, CnfFormula, DnfFormula, Literal, Term};
use mcf0_gf2::BitVec;
use mcf0_hashing::ToeplitzHash;
use mcf0_sat::{bounded_sat_terms, find_min_terms};

/// One dimension of a range: the inclusive interval `[lo, hi]` over
/// `bits`-bit unsigned integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeDim {
    /// Lower endpoint (inclusive).
    pub lo: u64,
    /// Upper endpoint (inclusive).
    pub hi: u64,
    /// Number of bits of this dimension.
    pub bits: usize,
}

impl RangeDim {
    /// Creates a dimension, checking `lo ≤ hi < 2^bits`.
    pub fn new(lo: u64, hi: u64, bits: usize) -> Self {
        assert!(
            (1..=48).contains(&bits),
            "dimension width must be 1..=48 bits"
        );
        assert!(lo <= hi, "empty interval [{lo}, {hi}]");
        assert!(
            hi < (1u64 << bits),
            "endpoint {hi} does not fit in {bits} bits"
        );
        RangeDim { lo, hi, bits }
    }

    /// Number of integers in the interval.
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// True only for degenerate zero-width intervals (cannot occur through
    /// [`RangeDim::new`]).
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Dyadic decomposition of the interval: aligned blocks
    /// `(start, log2(size))`, at most `2·bits` of them.
    pub fn dyadic_blocks(&self) -> Vec<(u64, u32)> {
        let mut blocks = Vec::new();
        let mut lo = self.lo;
        let hi = self.hi;
        loop {
            // Largest aligned block starting at `lo` …
            let mut size: u64 = if lo == 0 {
                1u64 << self.bits
            } else {
                lo & lo.wrapping_neg()
            };
            // … that does not overshoot `hi`.
            while lo + (size - 1) > hi {
                size /= 2;
            }
            blocks.push((lo, size.trailing_zeros()));
            let next = lo + size;
            if next > hi {
                break;
            }
            lo = next;
        }
        blocks
    }

    /// The cube (term) corresponding to one dyadic block, over the variables
    /// `var_offset..var_offset + bits` (variable `var_offset + i` is the
    /// i-th most significant bit of the dimension's value).
    pub fn block_term(&self, block: (u64, u32), var_offset: usize) -> Term {
        let (start, log_size) = block;
        let fixed_bits = self.bits - log_size as usize;
        let mut literals = Vec::with_capacity(fixed_bits);
        for i in 0..fixed_bits {
            let bit = (start >> (self.bits - 1 - i)) & 1 == 1;
            literals.push(if bit {
                Literal::positive(var_offset + i)
            } else {
                Literal::negative(var_offset + i)
            });
        }
        Term::new(literals)
    }

    /// All cube terms of this dimension (≤ `2·bits` of them).
    pub fn terms(&self, var_offset: usize) -> Vec<Term> {
        self.dyadic_blocks()
            .into_iter()
            .map(|b| self.block_term(b, var_offset))
            .collect()
    }

    /// CNF clauses encoding `lo ≤ value ≤ hi` over the dimension's variables
    /// (`O(bits)` clauses — Observation 2's building block).
    pub fn cnf_clauses(&self, var_offset: usize) -> Vec<Clause> {
        let mut clauses = Vec::new();
        // value ≤ hi: for every position i with hi_i = 0, forbid matching hi
        // on all earlier bits while setting bit i.
        for i in 0..self.bits {
            let hi_bit = (self.hi >> (self.bits - 1 - i)) & 1 == 1;
            if hi_bit {
                continue;
            }
            let mut lits = vec![Literal::negative(var_offset + i)];
            for j in 0..i {
                let hj = (self.hi >> (self.bits - 1 - j)) & 1 == 1;
                lits.push(if hj {
                    Literal::negative(var_offset + j)
                } else {
                    Literal::positive(var_offset + j)
                });
            }
            clauses.push(Clause::new(lits));
        }
        // value ≥ lo: symmetric — for every position i with lo_i = 1, forbid
        // matching lo on all earlier bits while clearing bit i.
        for i in 0..self.bits {
            let lo_bit = (self.lo >> (self.bits - 1 - i)) & 1 == 1;
            if !lo_bit {
                continue;
            }
            let mut lits = vec![Literal::positive(var_offset + i)];
            for j in 0..i {
                let lj = (self.lo >> (self.bits - 1 - j)) & 1 == 1;
                lits.push(if lj {
                    Literal::negative(var_offset + j)
                } else {
                    Literal::positive(var_offset + j)
                });
            }
            clauses.push(Clause::new(lits));
        }
        clauses
    }
}

/// A d-dimensional range `[a_1, b_1] × … × [a_d, b_d]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiDimRange {
    dims: Vec<RangeDim>,
}

impl MultiDimRange {
    /// Creates a range from its dimensions (at least one).
    pub fn new(dims: Vec<RangeDim>) -> Self {
        assert!(!dims.is_empty(), "a range needs at least one dimension");
        MultiDimRange { dims }
    }

    /// The Observation 1 worst case `[1, 2^bits − 1]^d`, whose minimal DNF
    /// representation has `bits^d` terms.
    pub fn worst_case(bits: usize, d: usize) -> Self {
        MultiDimRange::new(vec![RangeDim::new(1, (1u64 << bits) - 1, bits); d])
    }

    /// The dimensions.
    pub fn dims(&self) -> &[RangeDim] {
        &self.dims
    }

    /// Number of dimensions `d`.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of Boolean variables `Σ_j bits_j`.
    pub fn total_bits(&self) -> usize {
        self.dims.iter().map(|d| d.bits).sum()
    }

    /// Variable offset of dimension `j`.
    fn offset_of(&self, j: usize) -> usize {
        self.dims[..j].iter().map(|d| d.bits).sum()
    }

    /// Exact number of points in the range.
    pub fn cardinality(&self) -> u128 {
        self.dims.iter().map(|d| d.len() as u128).product()
    }

    /// Number of DNF terms the Lemma 4 decomposition produces
    /// (`Π_j #blocks_j`).
    pub fn term_count(&self) -> u128 {
        self.dims
            .iter()
            .map(|d| d.dyadic_blocks().len() as u128)
            .product()
    }

    /// Membership test for a point (one coordinate per dimension).
    pub fn contains_point(&self, point: &[u64]) -> bool {
        assert_eq!(point.len(), self.dims.len());
        self.dims
            .iter()
            .zip(point)
            .all(|(d, &v)| v >= d.lo && v <= d.hi)
    }

    /// Encodes a point as an assignment over the range's variables.
    pub fn encode_point(&self, point: &[u64]) -> BitVec {
        assert_eq!(point.len(), self.dims.len());
        let mut out = BitVec::zeros(self.total_bits());
        for (j, (&v, dim)) in point.iter().zip(&self.dims).enumerate() {
            let off = self.offset_of(j);
            for i in 0..dim.bits {
                if (v >> (dim.bits - 1 - i)) & 1 == 1 {
                    out.set(off + i, true);
                }
            }
        }
        out
    }

    /// Lazily iterates the DNF terms of the Lemma 4 decomposition (cross
    /// product of the per-dimension cube lists), using `O(Σ_j bits_j)` extra
    /// space independent of the `(2n)^d` term count.
    pub fn terms_iter(&self) -> impl Iterator<Item = Term> + '_ {
        let per_dim: Vec<Vec<Term>> = self
            .dims
            .iter()
            .enumerate()
            .map(|(j, d)| d.terms(self.offset_of(j)))
            .collect();
        CrossProductTerms {
            per_dim,
            indices: vec![0; self.dims.len()],
            done: false,
        }
    }

    /// Materialises the full DNF formula (only sensible for small term
    /// counts; the streaming paths use [`MultiDimRange::terms_iter`]).
    pub fn to_dnf(&self) -> DnfFormula {
        DnfFormula::new(self.total_bits(), self.terms_iter().collect())
    }

    /// The `O(Σ_j bits_j)`-clause CNF encoding of the range (Observation 2).
    pub fn to_cnf(&self) -> CnfFormula {
        let mut clauses = Vec::new();
        for (j, d) in self.dims.iter().enumerate() {
            clauses.extend(d.cnf_clauses(self.offset_of(j)));
        }
        CnfFormula::new(self.total_bits(), clauses)
    }
}

struct CrossProductTerms {
    per_dim: Vec<Vec<Term>>,
    indices: Vec<usize>,
    done: bool,
}

impl Iterator for CrossProductTerms {
    type Item = Term;

    fn next(&mut self) -> Option<Term> {
        if self.done {
            return None;
        }
        // Combine the current selection into a single term.
        let mut combined = Term::empty();
        for (dim_terms, &idx) in self.per_dim.iter().zip(&self.indices) {
            combined = combined
                .conjoin(&dim_terms[idx])
                .expect("terms of distinct dimensions use disjoint variables");
        }
        // Advance the mixed-radix counter.
        let mut carry = true;
        for (idx, dim_terms) in self.indices.iter_mut().zip(&self.per_dim) {
            if carry {
                *idx += 1;
                if *idx == dim_terms.len() {
                    *idx = 0;
                } else {
                    carry = false;
                }
            }
        }
        if carry {
            self.done = true;
        }
        Some(combined)
    }
}

impl StructuredSet for MultiDimRange {
    fn num_vars(&self) -> usize {
        self.total_bits()
    }

    fn smallest_hashed(&self, hash: &ToeplitzHash, p: usize) -> Vec<BitVec> {
        find_min_terms(self.terms_iter(), hash, p)
    }

    fn members_in_cell(&self, hash: &ToeplitzHash, level: usize, limit: usize) -> Vec<BitVec> {
        bounded_sat_terms(self.terms_iter(), hash, level, limit).solutions
    }

    fn exact_size(&self) -> Option<u128> {
        Some(self.cardinality())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadic_blocks_cover_exactly_the_interval() {
        for (lo, hi, bits) in [
            (0u64, 15u64, 4usize),
            (1, 14, 4),
            (5, 5, 4),
            (3, 200, 8),
            (0, 0, 6),
            (17, 93, 7),
        ] {
            let dim = RangeDim::new(lo, hi, bits);
            let blocks = dim.dyadic_blocks();
            assert!(blocks.len() <= 2 * bits, "too many blocks for [{lo},{hi}]");
            let mut covered = vec![false; 1 << bits];
            for (start, log_size) in blocks {
                for v in start..start + (1 << log_size) {
                    assert!(!covered[v as usize], "block overlap at {v}");
                    covered[v as usize] = true;
                }
            }
            for v in 0..(1u64 << bits) {
                assert_eq!(covered[v as usize], v >= lo && v <= hi, "v={v}");
            }
        }
    }

    #[test]
    fn dnf_solutions_are_exactly_the_range_points() {
        let range = MultiDimRange::new(vec![RangeDim::new(2, 11, 4), RangeDim::new(5, 6, 3)]);
        let dnf = range.to_dnf();
        assert_eq!(dnf.num_vars(), 7);
        assert_eq!(
            mcf0_formula::exact::count_dnf_exact(&dnf),
            range.cardinality()
        );
        for x in 0..16u64 {
            for y in 0..8u64 {
                let assignment = range.encode_point(&[x, y]);
                assert_eq!(
                    dnf.eval(&assignment),
                    range.contains_point(&[x, y]),
                    "x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn cnf_solutions_are_exactly_the_range_points() {
        let range = MultiDimRange::new(vec![RangeDim::new(3, 12, 4), RangeDim::new(1, 5, 3)]);
        let cnf = range.to_cnf();
        assert_eq!(
            mcf0_formula::exact::count_cnf_brute_force(&cnf),
            range.cardinality()
        );
        for x in 0..16u64 {
            for y in 0..8u64 {
                let assignment = range.encode_point(&[x, y]);
                assert_eq!(
                    cnf.eval(&assignment),
                    range.contains_point(&[x, y]),
                    "x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn observation_1_and_2_representation_gap() {
        // The worst-case range has n^d DNF terms but only O(n·d) CNF clauses.
        let n = 6;
        for d in [1usize, 2, 3] {
            let range = MultiDimRange::worst_case(n, d);
            assert_eq!(range.term_count(), (n as u128).pow(d as u32));
            let cnf = range.to_cnf();
            assert!(cnf.num_clauses() <= n * d);
            assert_eq!(range.cardinality(), ((1u128 << n) - 1).pow(d as u32));
        }
    }

    #[test]
    fn term_count_matches_lazy_iterator_length() {
        let range = MultiDimRange::new(vec![
            RangeDim::new(1, 14, 4),
            RangeDim::new(0, 5, 3),
            RangeDim::new(7, 9, 4),
        ]);
        assert_eq!(range.terms_iter().count() as u128, range.term_count());
        assert!(range.term_count() <= (2 * 4 * 2 * 3 * 2 * 4) as u128);
    }

    #[test]
    fn structured_set_interface_reports_exact_size() {
        let range = MultiDimRange::new(vec![RangeDim::new(10, 1000, 12)]);
        assert_eq!(range.exact_size(), Some(991));
        assert_eq!(range.num_vars(), 12);
    }
}
