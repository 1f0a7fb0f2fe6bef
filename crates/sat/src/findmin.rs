//! `FindMin` (Proposition 2): the `p` lexicographically smallest elements of
//! `h(Sol(φ))`.
//!
//! * For a **DNF** formula the hashed image of each term is an affine
//!   subspace of `{0,1}^m`, whose smallest elements are found in polynomial
//!   time; the per-term lists are merged. This gives the `O(m³·n·k·p)` bound
//!   of the paper and makes the Minimum-based counter an FPRAS for DNF.
//! * For a **CNF** formula the same prefix-search driver runs against the NP
//!   oracle: "is there a solution whose hash value starts with this prefix?"
//!   is one oracle call, so `p` minima cost `O(p·m)` calls.

use crate::oracle::SolutionOracle;
use crate::solver::XorConstraint;
use mcf0_formula::{DnfFormula, Term};
use mcf0_gf2::{lex_enumerate, BitVec, PrefixOracle};
use mcf0_hashing::LinearHash;
use std::borrow::Borrow;

/// `FindMin` for DNF: the `p` lexicographically smallest values of
/// `h(Sol(φ))`, in increasing order, computed without any oracle.
pub fn find_min_dnf<H: LinearHash>(formula: &DnfFormula, hash: &H, p: usize) -> Vec<BitVec> {
    assert_eq!(
        formula.num_vars(),
        hash.input_bits(),
        "hash/formula width mismatch"
    );
    find_min_terms(formula.terms(), hash, p)
}

/// [`find_min_dnf`] over any sequence of terms on the hash's input
/// variables: the per-item `FindMin` of structured stream items, whose
/// DNF is generated term by term rather than stored.
pub fn find_min_terms<H: LinearHash>(
    terms: impl IntoIterator<Item = impl Borrow<Term>>,
    hash: &H,
    p: usize,
) -> Vec<BitVec> {
    let mut merged: Vec<BitVec> = Vec::new();
    for term in terms {
        let term = term.borrow();
        if term.is_contradictory() {
            continue;
        }
        let image = hash.image_of_cube(&term.fixed_assignments());
        let smallest = image.lex_smallest_direct(p);
        merged.extend(smallest);
        merged.sort();
        merged.dedup();
        merged.truncate(p);
    }
    merged
}

/// Adapter exposing "solutions of φ hashed through h" as a [`PrefixOracle`],
/// with every prefix query delegated to the NP oracle.
///
/// Queries are incremental: the constraint encoding bit `i` of a prefix is
/// `row_i·x = b_i ⊕ prefix_i`, so two prefixes share their leading
/// constraints exactly where their bits agree. The adapter keeps the pushed
/// rows synchronised with the queried prefix, popping and pushing only past
/// the first differing bit — the lexicographic search of Proposition 2
/// mostly toggles deep bits, so the solver's Gaussian-elimination state for
/// the shallow rows is reused across almost every query.
pub struct HashedSolutionsOracle<'a, H: LinearHash> {
    oracle: &'a mut dyn SolutionOracle,
    hash: &'a H,
    base: usize,
    installed: Vec<bool>,
}

impl<'a, H: LinearHash> HashedSolutionsOracle<'a, H> {
    /// Wraps an oracle and a hash function.
    pub fn new(oracle: &'a mut dyn SolutionOracle, hash: &'a H) -> Self {
        assert_eq!(
            oracle.num_vars(),
            hash.input_bits(),
            "hash/formula width mismatch"
        );
        let base = oracle.assumption_len();
        HashedSolutionsOracle {
            oracle,
            hash,
            base,
            installed: Vec::new(),
        }
    }
}

impl<H: LinearHash> Drop for HashedSolutionsOracle<'_, H> {
    fn drop(&mut self) {
        self.oracle.pop_assumptions_to(self.base);
    }
}

impl<H: LinearHash> PrefixOracle for HashedSolutionsOracle<'_, H> {
    fn width(&self) -> usize {
        self.hash.output_bits()
    }

    fn exists_with_prefix(&mut self, prefix: &BitVec) -> bool {
        let common = self
            .installed
            .iter()
            .zip(prefix.iter())
            .take_while(|&(&have, want)| have == want)
            .count();
        self.oracle.pop_assumptions_to(self.base + common);
        self.installed.truncate(common);
        for i in common..prefix.len() {
            let bit = prefix.get(i);
            let row =
                XorConstraint::from_row(&self.hash.matrix_row(i), self.hash.offset_bit(i) ^ bit);
            self.oracle.push_assumption(&row);
            self.installed.push(bit);
        }
        self.oracle.exists()
    }
}

/// `FindMin` for CNF: the `p` lexicographically smallest values of
/// `h(Sol(φ))` via prefix search over the NP oracle (`O(p·m)` calls).
pub fn find_min_cnf<H: LinearHash>(
    oracle: &mut dyn SolutionOracle,
    hash: &H,
    p: usize,
) -> Vec<BitVec> {
    let mut adapter = HashedSolutionsOracle::new(oracle, hash);
    lex_enumerate(&mut adapter, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{BruteForceOracle, SatOracle};
    use mcf0_formula::generators::{planted_dnf, random_dnf, random_k_cnf};
    use mcf0_formula::DnfFormula;
    use mcf0_hashing::{ToeplitzHash, Xoshiro256StarStar};

    fn ground_truth_minima<H: LinearHash>(
        formula_eval: impl Fn(&mcf0_formula::Assignment) -> bool + 'static,
        n: usize,
        hash: &H,
        p: usize,
    ) -> Vec<BitVec> {
        let mut oracle = BruteForceOracle::from_predicate(n, formula_eval);
        let mut values = oracle.hashed_solution_values(|a| hash.eval(a));
        values.truncate(p);
        values
    }

    #[test]
    fn dnf_findmin_matches_brute_force() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        for _ in 0..6 {
            let f = random_dnf(&mut rng, 9, 5, (2, 4));
            let h = ToeplitzHash::sample(&mut rng, 9, 12);
            for p in [1usize, 3, 10, 50] {
                let got = find_min_dnf(&f, &h, p);
                let f2 = f.clone();
                let expected = ground_truth_minima(move |a| f2.eval(a), 9, &h, p);
                assert_eq!(got, expected, "p={p}");
            }
        }
    }

    #[test]
    fn cnf_findmin_matches_brute_force() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        for _ in 0..4 {
            let f = random_k_cnf(&mut rng, 8, 10, 3);
            let h = ToeplitzHash::sample(&mut rng, 8, 10);
            for p in [1usize, 4, 16] {
                let mut sat = SatOracle::new(f.clone());
                let got = find_min_cnf(&mut sat, &h, p);
                let f2 = f.clone();
                let expected = ground_truth_minima(move |a| f2.eval(a), 8, &h, p);
                assert_eq!(got, expected, "p={p}");
            }
        }
    }

    #[test]
    fn cnf_and_dnf_paths_agree_on_planted_instances() {
        // The same solution set expressed as a DNF (one term per solution)
        // and queried through the brute-force oracle must give identical
        // minima — the differential test connecting the two halves of
        // Proposition 2.
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let (dnf, _) = planted_dnf(&mut rng, 10, 40);
        let h = ToeplitzHash::sample(&mut rng, 10, 14);
        let via_dnf = find_min_dnf(&dnf, &h, 12);
        let dnf_clone = dnf.clone();
        let mut brute = BruteForceOracle::from_predicate(10, move |a| dnf_clone.eval(a));
        let via_prefix_search = find_min_cnf(&mut brute, &h, 12);
        assert_eq!(via_dnf, via_prefix_search);
    }

    #[test]
    fn findmin_on_unsatisfiable_formulas_is_empty() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(24);
        let h = ToeplitzHash::sample(&mut rng, 6, 8);
        let empty = DnfFormula::contradiction(6);
        assert!(find_min_dnf(&empty, &h, 5).is_empty());
        let unsat_cnf = mcf0_formula::CnfFormula::new(
            6,
            vec![
                mcf0_formula::Clause::new(vec![mcf0_formula::Literal::positive(0)]),
                mcf0_formula::Clause::new(vec![mcf0_formula::Literal::negative(0)]),
            ],
        );
        let mut sat = SatOracle::new(unsat_cnf);
        assert!(find_min_cnf(&mut sat, &h, 5).is_empty());
    }

    #[test]
    fn findmin_returns_fewer_when_image_is_small() {
        // A DNF with a single full-width term has exactly one solution, so at
        // most one hashed value can be returned regardless of p.
        let f = DnfFormula::parse_text("p dnf 6 1\n1 -2 3 -4 5 -6 0\n").unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(25);
        let h = ToeplitzHash::sample(&mut rng, 6, 9);
        let got = find_min_dnf(&f, &h, 10);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn oracle_call_count_scales_with_p_and_m() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(26);
        let f = random_k_cnf(&mut rng, 8, 8, 3);
        let h = ToeplitzHash::sample(&mut rng, 8, 10);
        let mut sat = SatOracle::new(f);
        let p = 6;
        let _ = find_min_cnf(&mut sat, &h, p);
        let calls = sat.stats().sat_calls;
        // The paper's bound is O(p · m) oracle calls; allow the constant.
        assert!(
            calls <= (p as u64) * (h.output_bits() as u64) * 4 + 10,
            "calls={calls}"
        );
    }
}
