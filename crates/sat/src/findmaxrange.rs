//! `FindMaxRange` (Proposition 3): the largest `t` such that some solution
//! `x ⊨ φ` has `t` trailing zeros in `h(x)`.
//!
//! The monotone predicate "∃ x ⊨ φ with at least `t` trailing zeros" is
//! decided by one oracle call (the trailing-zero constraint is a conjunction
//! of XOR rows for an affine hash), so a binary search over `t ∈ 0..=m`
//! finds the maximum with `O(log m)` calls — the paper's `O(log n)` bound.
//!
//! The paper requires an `O(log 1/ε)`-wise independent hash for the accuracy
//! guarantee; a polynomial hash over GF(2^n) cannot be expressed as XOR
//! constraints, so the SAT-backed path uses an affine (2-wise) hash, and the
//! genuine s-wise family runs only on the Estimation counter's enumerative
//! backend (see DESIGN.md §5, substitution table).
//!
//! The cell lemma behind [`crate::find_min_cnf`] gives
//! [`find_max_range_cnf`] nothing: the binary search already makes
//! `O(log m)` calls, about what the cell search spends on its level search
//! alone.

use crate::oracle::{SolutionOracle, XorPrefixSession};
use crate::solver::XorConstraint;
use mcf0_hashing::LinearHash;

/// `FindMaxRange` with an affine hash and an NP oracle.
///
/// Returns `None` when the formula is unsatisfiable, otherwise the maximum
/// number of trailing zeros of `h(x)` over solutions `x`. Uses
/// `O(log m)` oracle calls, all through one assumption-based session: the
/// constraint set for `t` trailing zeros is the last `t` hash rows, so
/// ordering the rows bottom-up makes consecutive probes share a stack
/// prefix and the solver's elimination state is reused across the whole
/// binary search.
pub fn find_max_range_cnf<H: LinearHash>(
    oracle: &mut dyn SolutionOracle,
    hash: &H,
) -> Option<usize> {
    assert_eq!(
        oracle.num_vars(),
        hash.input_bits(),
        "hash/formula width mismatch"
    );
    let m = hash.output_bits();
    // Row for t trailing zeros at stack depth t: hash row m - t.
    let rows_bottom_up: Vec<XorConstraint> = (0..m)
        .map(|t| {
            let i = m - 1 - t;
            XorConstraint::from_row(&hash.matrix_row(i), hash.offset_bit(i))
        })
        .collect();
    let mut session = XorPrefixSession::new(oracle);
    // Feasibility with t = 0 is plain satisfiability.
    if !session.exists() {
        return None;
    }
    // Binary search for the largest feasible t in 0..=m.
    let mut lo = 0usize; // known feasible
    let mut hi = m; // may or may not be feasible
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        session.set_rows(&rows_bottom_up[..mid]);
        if session.exists() {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo)
}

/// `FindMaxRange` for a DNF formula under an *affine* hash, in polynomial
/// time and without any oracle.
///
/// The hashed image of each term is an affine subspace of `{0,1}^m`; "some
/// element has at least `t` trailing zeros" is the solvability of a linear
/// system over the subspace coordinates, so a binary search per term finds
/// each term's maximum and the formula's maximum is their maximum. (The
/// paper's open problem concerns the s-wise *polynomial* hash, which has no
/// such affine structure; see DESIGN.md §5.)
pub fn find_max_range_dnf<H: LinearHash>(
    formula: &mcf0_formula::DnfFormula,
    hash: &H,
) -> Option<usize> {
    assert_eq!(
        formula.num_vars(),
        hash.input_bits(),
        "hash/formula width mismatch"
    );
    let m = hash.output_bits();
    let mut best: Option<usize> = None;
    for term in formula.terms() {
        if term.is_contradictory() {
            continue;
        }
        let image = hash.image_of_cube(&term.fixed_assignments());
        // Feasibility of "last t bits are zero" is monotone in t; binary
        // search the largest feasible t for this term.
        let suffix_feasible = |t: usize| -> bool {
            if t == 0 {
                return true;
            }
            // Build the system over the basis coefficients for positions
            // m-t..m: Σ_j c_j basis_j[i] = offset[i].
            let rows = mcf0_gf2::BitMatrix::from_fn(t, image.dim(), |i, j| {
                image.basis()[j].get(m - t + i)
            });
            let mut rhs = mcf0_gf2::BitVec::zeros(t);
            for i in 0..t {
                rhs.set(i, image.offset().get(m - t + i));
            }
            rows.is_consistent(&rhs)
        };
        let mut lo = 0usize;
        let mut hi = m;
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if suffix_feasible(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        best = Some(best.map_or(lo, |b: usize| b.max(lo)));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{BruteForceOracle, SatOracle};
    use mcf0_formula::generators::random_k_cnf;
    use mcf0_formula::{Assignment, Clause, CnfFormula, Literal};
    use mcf0_hashing::{SWiseHash, ToeplitzHash, Xoshiro256StarStar};

    /// `FindMaxRange` with the genuine s-wise polynomial hash, evaluated against
    /// a brute-force oracle (ground truth / small-n path).
    fn find_max_range_enumerative(oracle: &mut BruteForceOracle, hash: &SWiseHash) -> Option<u32> {
        assert_eq!(
            oracle.num_vars() as u32,
            hash.width(),
            "hash width must equal variable count"
        );
        oracle.max_over_solutions(|a| hash.trail_zero_u64(to_u64_lsb(a)))
    }

    /// The assignment as the `u64` the s-wise hash consumes: bit `i` is
    /// variable `i`.
    fn to_u64_lsb(a: &Assignment) -> u64 {
        assert!(a.len() <= 64);
        a.iter_ones().fold(0, |out, i| out | 1 << i)
    }

    #[test]
    fn matches_brute_force_maximum() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        for _ in 0..8 {
            let f = random_k_cnf(&mut rng, 8, 12, 3);
            let h = ToeplitzHash::sample(&mut rng, 8, 8);
            let mut sat = SatOracle::new(f.clone());
            let got = find_max_range_cnf(&mut sat, &h);
            // Ground truth by enumerating solutions.
            let mut brute = BruteForceOracle::from_cnf(f);
            let expected = brute.max_over_solutions(|a| h.eval(a).trailing_zeros());
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn unsatisfiable_formula_returns_none() {
        let f = CnfFormula::new(
            4,
            vec![
                Clause::new(vec![Literal::positive(0)]),
                Clause::new(vec![Literal::negative(0)]),
            ],
        );
        let mut rng = Xoshiro256StarStar::seed_from_u64(32);
        let h = ToeplitzHash::sample(&mut rng, 4, 6);
        let mut sat = SatOracle::new(f);
        assert_eq!(find_max_range_cnf(&mut sat, &h), None);
    }

    #[test]
    fn oracle_calls_are_logarithmic_in_output_width() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        let f = random_k_cnf(&mut rng, 10, 12, 3);
        let h = ToeplitzHash::sample(&mut rng, 10, 10);
        let mut sat = SatOracle::new(f);
        let _ = find_max_range_cnf(&mut sat, &h);
        let calls = sat.stats().sat_calls;
        // 1 feasibility call + ceil(log2(m)) + small slack.
        assert!(calls <= 1 + 4 + 2, "calls={calls}");
    }

    #[test]
    fn dnf_findmaxrange_matches_brute_force() {
        use mcf0_formula::generators::random_dnf;
        let mut rng = Xoshiro256StarStar::seed_from_u64(36);
        for _ in 0..8 {
            let f = random_dnf(&mut rng, 9, 5, (2, 4));
            let h = ToeplitzHash::sample(&mut rng, 9, 11);
            let got = find_max_range_dnf(&f, &h);
            let expected = mcf0_formula::exact::enumerate_dnf_solutions(&f)
                .into_iter()
                .map(|a| h.eval(&a).trailing_zeros())
                .max();
            assert_eq!(got, expected, "{f}");
        }
        // Contradiction → None.
        let empty = mcf0_formula::DnfFormula::contradiction(6);
        let h = ToeplitzHash::sample(&mut rng, 6, 6);
        assert_eq!(find_max_range_dnf(&empty, &h), None);
    }

    #[test]
    fn enumerative_swise_variant_matches_direct_maximum() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(34);
        let f = random_k_cnf(&mut rng, 8, 10, 3);
        let h = SWiseHash::sample(&mut rng, 8, 6);
        let mut brute = BruteForceOracle::from_cnf(f.clone());
        let got = find_max_range_enumerative(&mut brute, &h);
        // Direct maximum over enumerated solutions.
        let expected = mcf0_formula::exact::enumerate_cnf_solutions(&f)
            .into_iter()
            .map(|a| h.trail_zero_u64(to_u64_lsb(&a)))
            .max();
        assert_eq!(got, expected);
    }

    #[test]
    fn tautology_attains_full_trailing_zero_range() {
        // Over all 2^n inputs some x hashes to a value with many trailing
        // zeros; in particular h(x) = 0^m is attainable for an affine map
        // whenever the system A x = b is solvable, which holds with
        // probability 1 over x when rank is full — here we just check the
        // result equals the brute-force maximum.
        let f = CnfFormula::tautology(8);
        let mut rng = Xoshiro256StarStar::seed_from_u64(35);
        let h = ToeplitzHash::sample(&mut rng, 8, 6);
        let mut sat = SatOracle::new(f.clone());
        let got = find_max_range_cnf(&mut sat, &h).unwrap();
        let mut brute = BruteForceOracle::from_cnf(f);
        let expected = brute
            .max_over_solutions(|a| h.eval(a).trailing_zeros())
            .unwrap();
        assert_eq!(got, expected);
    }
}
