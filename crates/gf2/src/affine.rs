//! Affine subspaces of GF(2)^m and lexicographic enumeration of their
//! elements.
//!
//! Under a linear/affine hash `h(x) = Ax + b`, the image of a DNF term (a
//! sub-cube of `{0,1}^n`) and the image of the solution set of a linear
//! system `A'x = b'` are affine subspaces of `{0,1}^m`. [`AffineSubspace`]
//! represents `offset + span(basis)` and supports exactly the queries the
//! paper's `FindMin` / `AffineFindMin` subroutines need:
//!
//! * prefix feasibility ("is there an element starting with `y_1 … y_ℓ`?") by
//!   solving a small linear system — this is the polynomial-time
//!   [`PrefixOracle`] backend;
//! * the `p` lexicographically smallest elements, either through the generic
//!   prefix-search driver ([`AffineSubspace::lex_smallest`]) or through a
//!   direct greedy walk over a reduced basis
//!   ([`AffineSubspace::lex_smallest_direct`]), the latter serving as a fast
//!   path and as a differential-testing partner for the former.

use crate::bitvec::BitVec;
use crate::matrix::BitMatrix;
use crate::prefix::{lex_enumerate, PrefixOracle};

/// An affine subspace `offset + span(basis)` of GF(2)^m.
///
/// The basis is kept in a reduced form: each basis vector has a distinct
/// leading-one position, and the offset has been reduced against the basis so
/// that membership and prefix queries are cheap and the representation of a
/// given subspace is canonical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffineSubspace {
    width: usize,
    offset: BitVec,
    /// Basis vectors sorted by leading-one position (most significant first).
    basis: Vec<BitVec>,
}

impl AffineSubspace {
    /// Builds the subspace `offset + span(vectors)`, reducing the generating
    /// set to a canonical basis.
    pub fn new(offset: BitVec, vectors: Vec<BitVec>) -> Self {
        let width = offset.len();
        let mut basis: Vec<BitVec> = Vec::new();
        for v in vectors {
            assert_eq!(v.len(), width, "basis vector width mismatch");
            let mut candidate = v;
            for b in &basis {
                let lead = b.leading_one().expect("basis vectors are non-zero");
                if candidate.get(lead) {
                    candidate.xor_assign(b);
                }
            }
            if !candidate.is_zero() {
                basis.push(candidate);
                // Keep sorted by leading-one and re-reduce earlier vectors so
                // the basis stays in reduced row-echelon form.
                basis.sort_by_key(|b| b.leading_one().unwrap());
                let snapshot = basis.clone();
                for (i, b) in basis.iter_mut().enumerate() {
                    for (j, other) in snapshot.iter().enumerate() {
                        if i != j {
                            let lead = other.leading_one().unwrap();
                            if b.get(lead) {
                                b.xor_assign(other);
                            }
                        }
                    }
                }
                basis.retain(|b| !b.is_zero());
                basis.sort_by_key(|b| b.leading_one().unwrap());
            }
        }
        // Reduce the offset against the basis: canonical coset representative.
        let mut offset = offset;
        for b in &basis {
            let lead = b.leading_one().unwrap();
            if offset.get(lead) {
                offset.xor_assign(b);
            }
        }
        AffineSubspace {
            width,
            offset,
            basis,
        }
    }

    /// The single-point subspace `{point}`.
    pub fn point(point: BitVec) -> Self {
        AffineSubspace::new(point, Vec::new())
    }

    /// Ambient dimension `m`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Dimension of the subspace (number of basis vectors).
    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// Canonical coset representative (offset reduced against the basis).
    pub fn offset(&self) -> &BitVec {
        &self.offset
    }

    /// The reduced basis vectors.
    pub fn basis(&self) -> &[BitVec] {
        &self.basis
    }

    /// Number of elements, if it fits in `u128` (dimension ≤ 127).
    pub fn size_hint(&self) -> Option<u128> {
        if self.basis.len() < 128 {
            Some(1u128 << self.basis.len())
        } else {
            None
        }
    }

    /// Membership test.
    pub fn contains(&self, v: &BitVec) -> bool {
        assert_eq!(v.len(), self.width);
        let mut residual = v.xor(&self.offset);
        for b in &self.basis {
            let lead = b.leading_one().unwrap();
            if residual.get(lead) {
                residual.xor_assign(b);
            }
        }
        residual.is_zero()
    }

    /// Does some element of the subspace start with `prefix`?
    ///
    /// Solvability of the linear system `Σ_j c_j basis_j[i] = prefix[i] ⊕
    /// offset[i]` for `i < ℓ` (an `ℓ × dim` Gaussian elimination).
    pub fn prefix_feasible(&self, prefix: &BitVec) -> bool {
        let l = prefix.len();
        assert!(l <= self.width, "prefix longer than ambient width");
        if l == 0 {
            return true;
        }
        if self.basis.is_empty() {
            return self.offset.prefix_eq(prefix, l);
        }
        let m = BitMatrix::from_fn(l, self.basis.len(), |i, j| self.basis[j].get(i));
        let mut rhs = BitVec::zeros(l);
        for i in 0..l {
            rhs.set(i, prefix.get(i) ^ self.offset.get(i));
        }
        m.is_consistent(&rhs)
    }

    /// The `p` lexicographically smallest elements (ascending), computed with
    /// the paper's prefix-search driver (Proposition 2 / Proposition 4).
    pub fn lex_smallest(&self, p: usize) -> Vec<BitVec> {
        let mut oracle = self.clone();
        lex_enumerate(&mut oracle, p)
    }

    /// The `p` lexicographically smallest elements (ascending), computed by a
    /// direct depth-first walk over the reduced basis.
    ///
    /// Because the basis is in reduced row-echelon form (each vector's
    /// leading one sits at a distinct pivot position, all other basis vectors
    /// and the offset are zero there), the element's bit at pivot `j` equals
    /// the `j`-th combination bit, and every earlier bit is already fixed by
    /// the earlier combination bits. Exploring the `c_j = 0` branch before
    /// the `c_j = 1` branch therefore emits elements in exactly ascending
    /// lexicographic order, touching `O(p · dim)` vectors regardless of the
    /// subspace's size — this is the fast path behind every `FindMin`-style
    /// subroutine. [`Self::lex_smallest`] (the paper's prefix-search driver)
    /// is retained as the differential-testing partner.
    pub fn lex_smallest_direct(&self, p: usize) -> Vec<BitVec> {
        if p == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(p.min(1 << self.basis.len().min(20)));
        let mut current = self.offset.clone();
        Self::lex_walk(&self.basis, 0, &mut current, p, &mut out);
        out
    }

    fn lex_walk(
        basis: &[BitVec],
        next: usize,
        current: &mut BitVec,
        p: usize,
        out: &mut Vec<BitVec>,
    ) {
        if out.len() >= p {
            return;
        }
        if next == basis.len() {
            out.push(current.clone());
            return;
        }
        // c_next = 0: the pivot bit stays 0, so this whole subtree precedes
        // the c_next = 1 subtree lexicographically.
        Self::lex_walk(basis, next + 1, current, p, out);
        if out.len() >= p {
            return;
        }
        current.xor_assign(&basis[next]);
        Self::lex_walk(basis, next + 1, current, p, out);
        current.xor_assign(&basis[next]);
    }

    /// Intersection with the constraint "the first `m` bits equal `prefix`"
    /// returned as a new affine subspace of the same ambient width, or `None`
    /// if empty. Used by the structured-stream algorithms when tightening the
    /// bucketing level.
    pub fn with_prefix_constraint(&self, prefix: &BitVec) -> Option<AffineSubspace> {
        let l = prefix.len();
        assert!(l <= self.width);
        if l == 0 {
            return Some(self.clone());
        }
        if self.basis.is_empty() {
            return if self.offset.prefix_eq(prefix, l) {
                Some(self.clone())
            } else {
                None
            };
        }
        let m = BitMatrix::from_fn(l, self.basis.len(), |i, j| self.basis[j].get(i));
        let mut rhs = BitVec::zeros(l);
        for i in 0..l {
            rhs.set(i, prefix.get(i) ^ self.offset.get(i));
        }
        let (c0, null) = m.solve(&rhs)?;
        // New offset = offset + Σ c0_j basis_j; new basis from nullspace combos.
        let mut new_offset = self.offset.clone();
        for j in 0..self.basis.len() {
            if c0.get(j) {
                new_offset.xor_assign(&self.basis[j]);
            }
        }
        let mut new_vectors = Vec::with_capacity(null.len());
        for coeffs in null {
            let mut v = BitVec::zeros(self.width);
            for j in 0..self.basis.len() {
                if coeffs.get(j) {
                    v.xor_assign(&self.basis[j]);
                }
            }
            new_vectors.push(v);
        }
        Some(AffineSubspace::new(new_offset, new_vectors))
    }
}

impl PrefixOracle for AffineSubspace {
    fn width(&self) -> usize {
        self.width
    }

    fn exists_with_prefix(&mut self, prefix: &BitVec) -> bool {
        self.prefix_feasible(prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subspace_from_u64(width: usize, offset: u64, gens: &[u64]) -> AffineSubspace {
        AffineSubspace::new(
            BitVec::from_u64(offset, width),
            gens.iter().map(|&g| BitVec::from_u64(g, width)).collect(),
        )
    }

    fn brute_force_elements(s: &AffineSubspace) -> Vec<u64> {
        let k = s.dim();
        let mut out = Vec::new();
        for mask in 0..(1usize << k) {
            let mut v = s.offset().clone();
            for (j, b) in s.basis().iter().enumerate() {
                if (mask >> j) & 1 == 1 {
                    v.xor_assign(b);
                }
            }
            out.push(v.to_u64());
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn prefix_queries_leave_equality_unchanged() {
        // Two generating sets of one subspace compare equal, and a prefix
        // query on one of them must not change that.
        let mut s = subspace_from_u64(6, 0b100001, &[0b000011, 0b000110]);
        let t = subspace_from_u64(6, 0b100010, &[0b000101, 0b000011]);
        assert_eq!(s, t);
        assert!(s.exists_with_prefix(&BitVec::from_u64(0b10, 2)));
        assert_eq!(s, t);
    }

    #[test]
    fn canonicalisation_removes_dependent_generators() {
        let s = subspace_from_u64(6, 0b100000, &[0b000011, 0b000110, 0b000101]);
        // third generator = first ⊕ second
        assert_eq!(s.dim(), 2);
        assert_eq!(s.size_hint(), Some(4));
    }

    #[test]
    fn membership_matches_enumeration() {
        let s = subspace_from_u64(8, 0b1010_0001, &[0b0000_1111, 0b1100_0000]);
        let elems = brute_force_elements(&s);
        for v in 0..256u64 {
            let bv = BitVec::from_u64(v, 8);
            assert_eq!(s.contains(&bv), elems.contains(&v), "v={v:08b}");
        }
    }

    #[test]
    fn prefix_search_and_direct_enumeration_agree() {
        let cases = [
            (8u64, 0b1010_0001u64, vec![0b0000_1111u64, 0b1100_0000]),
            (8, 0, vec![0b1000_0000, 0b0100_0000, 0b0010_0000]),
            (8, 0b1111_1111, vec![]),
            (
                10,
                0b11_0000_0001,
                vec![0b00_0000_0111, 0b10_1010_1010, 0b01_0101_0101],
            ),
        ];
        for (width, offset, gens) in cases {
            let s = subspace_from_u64(width as usize, offset, &gens);
            for p in [1usize, 2, 3, 7, 100] {
                let a: Vec<u64> = s.lex_smallest(p).iter().map(BitVec::to_u64).collect();
                let b: Vec<u64> = s
                    .lex_smallest_direct(p)
                    .iter()
                    .map(BitVec::to_u64)
                    .collect();
                assert_eq!(a, b, "width={width} offset={offset:b} p={p}");
                let expected: Vec<u64> = brute_force_elements(&s).into_iter().take(p).collect();
                assert_eq!(a, expected);
            }
        }
    }

    #[test]
    fn single_point_subspace() {
        let s = AffineSubspace::point(BitVec::from_u64(13, 6));
        assert_eq!(s.dim(), 0);
        assert_eq!(s.size_hint(), Some(1));
        assert!(s.contains(&BitVec::from_u64(13, 6)));
        assert!(!s.contains(&BitVec::from_u64(12, 6)));
        assert_eq!(s.lex_smallest(5).len(), 1);
    }

    #[test]
    fn prefix_constraint_restricts_correctly() {
        let s = subspace_from_u64(8, 0b1010_0001, &[0b0000_1111, 0b1100_0000]);
        // Constrain first bit to 0.
        let constrained = s
            .with_prefix_constraint(&BitVec::from_u64(0, 1))
            .expect("some elements start with 0");
        let elems = brute_force_elements(&s);
        let expected: Vec<u64> = elems.iter().copied().filter(|v| v < &128).collect();
        let got = brute_force_elements(&constrained);
        assert_eq!(got, expected);
        // An infeasible prefix yields None.
        let s2 = subspace_from_u64(4, 0b1000, &[]);
        assert!(s2.with_prefix_constraint(&BitVec::from_u64(0, 1)).is_none());
    }

    #[test]
    fn prefix_feasible_matches_membership_prefixes() {
        let s = subspace_from_u64(6, 0b000001, &[0b001010, 0b010001]);
        let elems = brute_force_elements(&s);
        for l in 0..=6usize {
            for pv in 0..(1u64 << l) {
                let prefix = BitVec::from_u64(pv, l);
                let expected = elems.iter().any(|&e| {
                    let e_bits = BitVec::from_u64(e, 6);
                    e_bits.prefix_eq(&prefix, l)
                });
                assert_eq!(s.prefix_feasible(&prefix), expected, "l={l} pv={pv:b}");
            }
        }
    }
}
