//! Multidimensional arithmetic progressions with power-of-two strides
//! (Corollary 1).
//!
//! The progression `[a, b, 2^ℓ]` is the set `{a, a + 2^ℓ, a + 2·2^ℓ, …} ∩
//! [a, b]`; equivalently, the range `[a, b]` intersected with "the last ℓ
//! bits equal the last ℓ bits of a". Its DNF is obtained by conjoining the
//! suffix cube onto every term of the range's Lemma 4 decomposition, so the
//! term count stays `O(2n)` per dimension and the d-dimensional product has
//! at most `(2n)^d` terms — exactly the paper's construction.

use crate::ranges::RangeDim;
use crate::stream_f0::StructuredSet;
use mcf0_formula::{DnfFormula, Literal, Term};
use mcf0_gf2::BitVec;
use mcf0_hashing::ToeplitzHash;
use mcf0_sat::{bounded_sat_terms, find_min_terms};

/// A one-dimensional arithmetic progression `[a, b, 2^ℓ]` over `bits`-bit
/// integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progression {
    /// The enclosing interval.
    pub range: RangeDim,
    /// Log₂ of the stride (stride = `2^log_stride`).
    pub log_stride: u32,
}

impl Progression {
    /// Creates the progression `a, a + 2^ℓ, … ≤ b`.
    pub fn new(a: u64, b: u64, log_stride: u32, bits: usize) -> Self {
        assert!(
            (log_stride as usize) < bits,
            "stride 2^{log_stride} too large for a {bits}-bit dimension"
        );
        Progression {
            range: RangeDim::new(a, b, bits),
            log_stride,
        }
    }

    /// Number of elements of the progression.
    pub fn len(&self) -> u64 {
        (self.range.hi - self.range.lo) / (1u64 << self.log_stride) + 1
    }

    /// True if the progression is empty (cannot occur through
    /// [`Progression::new`]).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: u64) -> bool {
        v >= self.range.lo
            && v <= self.range.hi
            && (v % (1u64 << self.log_stride)) == (self.range.lo % (1u64 << self.log_stride))
    }

    /// The suffix cube fixing the last `log_stride` bits to those of `a`.
    fn suffix_term(&self, var_offset: usize) -> Term {
        let bits = self.range.bits;
        let l = self.log_stride as usize;
        let mut literals = Vec::with_capacity(l);
        for i in (bits - l)..bits {
            let bit = (self.range.lo >> (bits - 1 - i)) & 1 == 1;
            literals.push(if bit {
                Literal::positive(var_offset + i)
            } else {
                Literal::negative(var_offset + i)
            });
        }
        Term::new(literals)
    }

    /// DNF terms of the progression over variables
    /// `var_offset..var_offset + bits` (at most `2·bits` of them).
    pub fn terms(&self, var_offset: usize) -> Vec<Term> {
        let suffix = self.suffix_term(var_offset);
        self.range
            .terms(var_offset)
            .into_iter()
            .filter_map(|t| t.conjoin(&suffix))
            .collect()
    }
}

/// A d-dimensional arithmetic progression (cross product of per-dimension
/// progressions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiDimProgression {
    dims: Vec<Progression>,
}

impl MultiDimProgression {
    /// Creates the product progression (at least one dimension).
    pub fn new(dims: Vec<Progression>) -> Self {
        assert!(
            !dims.is_empty(),
            "a progression needs at least one dimension"
        );
        MultiDimProgression { dims }
    }

    /// The dimensions.
    pub fn dims(&self) -> &[Progression] {
        &self.dims
    }

    /// Total number of Boolean variables.
    pub fn total_bits(&self) -> usize {
        self.dims.iter().map(|p| p.range.bits).sum()
    }

    fn offset_of(&self, j: usize) -> usize {
        self.dims[..j].iter().map(|p| p.range.bits).sum()
    }

    /// Exact number of points.
    pub fn cardinality(&self) -> u128 {
        self.dims.iter().map(|p| p.len() as u128).product()
    }

    /// Membership test for a point.
    pub fn contains_point(&self, point: &[u64]) -> bool {
        assert_eq!(point.len(), self.dims.len());
        self.dims.iter().zip(point).all(|(p, &v)| p.contains(v))
    }

    /// Encodes a point as an assignment over the progression's variables.
    pub fn encode_point(&self, point: &[u64]) -> BitVec {
        assert_eq!(point.len(), self.dims.len());
        let mut out = BitVec::zeros(self.total_bits());
        for (j, (&v, p)) in point.iter().zip(&self.dims).enumerate() {
            let off = self.offset_of(j);
            for i in 0..p.range.bits {
                if (v >> (p.range.bits - 1 - i)) & 1 == 1 {
                    out.set(off + i, true);
                }
            }
        }
        out
    }

    /// All DNF terms (cross product of per-dimension term lists).
    pub fn terms(&self) -> Vec<Term> {
        let per_dim: Vec<Vec<Term>> = self
            .dims
            .iter()
            .enumerate()
            .map(|(j, p)| p.terms(self.offset_of(j)))
            .collect();
        let mut out: Vec<Term> = vec![Term::empty()];
        for dim_terms in per_dim {
            let mut next = Vec::with_capacity(out.len() * dim_terms.len());
            for base in &out {
                for t in &dim_terms {
                    next.push(
                        base.conjoin(t)
                            .expect("distinct dimensions use disjoint variables"),
                    );
                }
            }
            out = next;
        }
        out
    }

    /// Materialises the DNF formula of the progression.
    pub fn to_dnf(&self) -> DnfFormula {
        DnfFormula::new(self.total_bits(), self.terms())
    }
}

impl StructuredSet for MultiDimProgression {
    fn num_vars(&self) -> usize {
        self.total_bits()
    }

    fn smallest_hashed(&self, hash: &ToeplitzHash, p: usize) -> Vec<BitVec> {
        find_min_terms(self.terms(), hash, p)
    }

    fn members_in_cell(&self, hash: &ToeplitzHash, level: usize, limit: usize) -> Vec<BitVec> {
        bounded_sat_terms(self.terms(), hash, level, limit).solutions
    }

    fn exact_size(&self) -> Option<u128> {
        Some(self.cardinality())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dimensional_progression_membership_and_length() {
        let p = Progression::new(3, 40, 2, 6); // 3, 7, 11, …, 39
        assert_eq!(p.len(), 10);
        for v in 0..64u64 {
            let expected = (3..=40).contains(&v) && v % 4 == 3;
            assert_eq!(p.contains(v), expected, "v={v}");
        }
    }

    #[test]
    fn dnf_solutions_are_exactly_the_progression_points() {
        let p = MultiDimProgression::new(vec![
            Progression::new(3, 40, 2, 6),
            Progression::new(1, 7, 1, 3),
        ]);
        let dnf = p.to_dnf();
        assert_eq!(mcf0_formula::exact::count_dnf_exact(&dnf), p.cardinality());
        for x in 0..64u64 {
            for y in 0..8u64 {
                let assignment = p.encode_point(&[x, y]);
                assert_eq!(
                    dnf.eval(&assignment),
                    p.contains_point(&[x, y]),
                    "x={x} y={y}"
                );
            }
        }
    }

    #[test]
    fn term_count_stays_linear_per_dimension() {
        let p = Progression::new(5, 250, 3, 8);
        assert!(p.terms(0).len() <= 2 * 8);
        let multi = MultiDimProgression::new(vec![p, Progression::new(0, 200, 4, 8)]);
        assert!(multi.terms().len() <= (2 * 8) * (2 * 8));
    }

    #[test]
    fn stride_one_recovers_the_plain_range() {
        // With stride 2^0 = 1 the progression is the whole interval.
        let p = Progression::new(10, 90, 0, 7);
        assert_eq!(p.len(), 81);
        let dnf = MultiDimProgression::new(vec![p]).to_dnf();
        assert_eq!(mcf0_formula::exact::count_dnf_exact(&dnf), 81);
    }
}
