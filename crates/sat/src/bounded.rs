//! `BoundedSAT` (Proposition 1): up to `p` solutions of `φ ∧ h_m(x) = 0^m`.
//!
//! For CNF the query is delegated to the NP oracle (the hash-prefix
//! constraint is a conjunction of XOR rows). For DNF the paper observes the
//! problem is polynomial: restricted to a single term, the constraint
//! `h_m(x) = 0^m` becomes an affine system over the term's free variables,
//! whose solutions can be enumerated directly; the per-term results are
//! merged and deduplicated up to the cutoff `p`.

use crate::oracle::SolutionOracle;
use crate::solver::XorConstraint;
use mcf0_formula::{Assignment, DnfFormula, Term};
use mcf0_gf2::{BitMatrix, BitVec};
use mcf0_hashing::LinearHash;
use std::borrow::Borrow;
use std::collections::BTreeSet;

/// Result of a BoundedSAT query.
#[derive(Clone, Debug)]
pub struct BoundedSatResult {
    /// The solutions found (at most the requested bound, all distinct).
    pub solutions: Vec<Assignment>,
    /// True if the bound was reached (i.e. the cell may contain more
    /// solutions than were returned).
    pub saturated: bool,
}

impl BoundedSatResult {
    /// `min(p, |Sol(φ ∧ h_m(x)=0^m)|)` — the quantity Proposition 1 returns.
    pub fn count(&self) -> usize {
        self.solutions.len()
    }
}

/// Builds the XOR constraints encoding `h_{m}(x) = 0^{m}` for an affine hash.
pub fn hash_prefix_zero_constraints<H: LinearHash>(hash: &H, m: usize) -> Vec<XorConstraint> {
    (0..m)
        .map(|i| {
            // h_i(x) = row_i·x ⊕ b_i = 0  ⇔  row_i·x = b_i
            XorConstraint::from_row(&hash.matrix_row(i), hash.offset_bit(i))
        })
        .collect()
}

/// BoundedSAT for a formula behind an oracle (the CNF case of Proposition 1):
/// returns up to `p` solutions of `φ ∧ h_m(x) = 0^m` using `O(p)` oracle
/// calls.
pub fn bounded_sat_cnf<H: LinearHash>(
    oracle: &mut dyn SolutionOracle,
    hash: &H,
    m: usize,
    p: usize,
) -> BoundedSatResult {
    assert_eq!(
        oracle.num_vars(),
        hash.input_bits(),
        "hash/formula width mismatch"
    );
    let xors = hash_prefix_zero_constraints(hash, m);
    let solutions = oracle.enumerate_with_xors(&xors, p);
    let saturated = solutions.len() >= p;
    BoundedSatResult {
        solutions,
        saturated,
    }
}

/// BoundedSAT for DNF (the polynomial-time case of Proposition 1): returns up
/// to `p` distinct solutions of `φ ∧ h_m(x) = 0^m` without any oracle.
pub fn bounded_sat_dnf<H: LinearHash>(
    formula: &DnfFormula,
    hash: &H,
    m: usize,
    p: usize,
) -> BoundedSatResult {
    assert_eq!(
        formula.num_vars(),
        hash.input_bits(),
        "hash/formula width mismatch"
    );
    bounded_sat_terms(formula.terms(), hash, m, p)
}

/// [`bounded_sat_dnf`] over any sequence of terms on the hash's input
/// variables (the Bucketing per-item query of structured stream items).
pub fn bounded_sat_terms<H: LinearHash>(
    terms: impl IntoIterator<Item = impl Borrow<Term>>,
    hash: &H,
    m: usize,
    p: usize,
) -> BoundedSatResult {
    let n = hash.input_bits();
    let mut found: BTreeSet<BitVec> = BTreeSet::new();
    'terms: for term in terms {
        let term = term.borrow();
        if term.is_contradictory() {
            continue;
        }
        // Substitute the fixed literals into h_m(x) = 0^m, leaving a linear
        // system over the free variables.
        let fixed = term.fixed_assignments();
        let mut is_fixed = vec![false; n];
        let mut base = BitVec::zeros(n);
        for &(v, val) in &fixed {
            is_fixed[v] = true;
            base.set(v, val);
        }
        let free_vars: Vec<usize> = (0..n).filter(|&v| !is_fixed[v]).collect();
        // Rows over free variables; rhs_i = b_i ⊕ (row_i · base).
        let rows = BitMatrix::from_fn(m, free_vars.len(), |i, j| {
            hash.matrix_row(i).get(free_vars[j])
        });
        let mut rhs = BitVec::zeros(m);
        for i in 0..m {
            let base_part = hash.matrix_row(i).dot(&base);
            rhs.set(i, hash.offset_bit(i) ^ base_part);
        }
        let Some((particular, nullspace)) = rows.solve(&rhs) else {
            continue;
        };
        // Enumerate solutions of the affine system until the global cutoff.
        let dim = nullspace.len();
        let combos: u128 = if dim >= 64 { u128::MAX } else { 1u128 << dim };
        let mut mask: u128 = 0;
        loop {
            let mut free_assignment = particular.clone();
            for (j, v) in nullspace.iter().enumerate() {
                if (mask >> j) & 1 == 1 {
                    free_assignment.xor_assign(v);
                }
            }
            let mut full = base.clone();
            for (j, &v) in free_vars.iter().enumerate() {
                full.set(v, free_assignment.get(j));
            }
            debug_assert!(term.eval(&full));
            debug_assert!(hash.prefix_is_zero(&full, m));
            found.insert(full);
            if found.len() >= p {
                break 'terms;
            }
            mask += 1;
            if mask >= combos {
                break;
            }
        }
    }
    let saturated = found.len() >= p;
    BoundedSatResult {
        solutions: found.into_iter().collect(),
        saturated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{BruteForceOracle, SatOracle};
    use mcf0_formula::exact::enumerate_dnf_solutions;
    use mcf0_formula::generators::{random_dnf, random_k_cnf};
    use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};

    /// Builds the XOR constraints encoding `h_{ℓ}(x) = prefix` (first ℓ output
    /// bits equal to the given values).
    fn hash_prefix_constraints<H: LinearHash>(hash: &H, prefix: &BitVec) -> Vec<XorConstraint> {
        (0..prefix.len())
            .map(|i| {
                XorConstraint::from_row(&hash.matrix_row(i), hash.offset_bit(i) ^ prefix.get(i))
            })
            .collect()
    }

    /// Builds the XOR constraints encoding "the last `t` output bits of `h(x)`
    /// are zero" (the trailing-zero constraint of the Estimation strategy).
    fn hash_suffix_zero_constraints<H: LinearHash>(hash: &H, t: usize) -> Vec<XorConstraint> {
        let m = hash.output_bits();
        assert!(t <= m);
        (m - t..m)
            .map(|i| XorConstraint::from_row(&hash.matrix_row(i), hash.offset_bit(i)))
            .collect()
    }

    #[test]
    fn cnf_bounded_sat_counts_match_brute_force() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        for _ in 0..6 {
            let f = random_k_cnf(&mut rng, 8, 12, 3);
            let h = ToeplitzHash::sample(&mut rng, 8, 8);
            for m in [0usize, 1, 2, 4] {
                let mut sat = SatOracle::new(f.clone());
                let mut brute = BruteForceOracle::from_cnf(f.clone());
                let a = bounded_sat_cnf(&mut sat, &h, m, 1000);
                let b = bounded_sat_cnf(&mut brute, &h, m, 1000);
                assert_eq!(a.count(), b.count(), "m={m}");
                for sol in &a.solutions {
                    assert!(f.eval(sol));
                    assert!(h.prefix_is_zero(sol, m));
                }
            }
        }
    }

    #[test]
    fn dnf_bounded_sat_matches_oracle_on_same_formula() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        for _ in 0..6 {
            let f = random_dnf(&mut rng, 9, 6, (2, 4));
            let h = ToeplitzHash::sample(&mut rng, 9, 9);
            for m in [0usize, 1, 3, 5] {
                let direct = bounded_sat_dnf(&f, &h, m, 10_000);
                let expected = enumerate_dnf_solutions(&f)
                    .into_iter()
                    .filter(|a| h.prefix_is_zero(a, m))
                    .count();
                assert_eq!(direct.count(), expected, "m={m} {f}");
            }
        }
    }

    #[test]
    fn bounded_sat_respects_the_cutoff() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let f = random_dnf(&mut rng, 12, 4, (1, 2));
        let h = ToeplitzHash::sample(&mut rng, 12, 12);
        let res = bounded_sat_dnf(&f, &h, 0, 5);
        assert_eq!(res.count(), 5);
        assert!(res.saturated);
        let mut sat_oracle = SatOracle::new(random_k_cnf(&mut rng, 10, 5, 3));
        let h10 = ToeplitzHash::sample(&mut rng, 10, 10);
        let res = bounded_sat_cnf(&mut sat_oracle, &h10, 0, 5);
        assert!(res.count() <= 5);
    }

    #[test]
    fn constraint_builders_encode_the_right_predicates() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(14);
        let h = ToeplitzHash::sample(&mut rng, 10, 8);
        for _ in 0..30 {
            let x = rng.random_bitvec(10);
            let full = {
                use mcf0_hashing::LinearHash as _;
                h.eval(&x)
            };
            let zero3 = hash_prefix_zero_constraints(&h, 3);
            assert_eq!(zero3.iter().all(|c| c.eval(&x)), full.prefix_is_zero(3));
            let prefix = full.prefix(4);
            let pc = hash_prefix_constraints(&h, &prefix);
            assert!(pc.iter().all(|c| c.eval(&x)));
            let suffix2 = hash_suffix_zero_constraints(&h, 2);
            assert_eq!(
                suffix2.iter().all(|c| c.eval(&x)),
                full.trailing_zeros() >= 2
            );
        }
    }
}
