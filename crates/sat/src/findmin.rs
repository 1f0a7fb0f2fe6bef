//! `FindMin` (Proposition 2): the `p` lexicographically smallest elements of
//! `h(Sol(φ))`.
//!
//! * For a **DNF** formula the hashed image of each term is an affine
//!   subspace of `{0,1}^m`, whose smallest elements are found in polynomial
//!   time; the per-term lists are merged. This gives the `O(m³·n·k·p)` bound
//!   of the paper and makes the Minimum-based counter an FPRAS for DNF.
//! * For a **CNF** formula [`find_min_cnf`] answers from one hash cell.
//!   Every value that starts with ℓ zero bits is smaller than every value
//!   that does not, so the `p` smallest values of `h(Sol(φ))` are the `p`
//!   smallest of the deepest cell `Sol(φ ∧ h_ℓ(x) = 0^ℓ)` that holds `p`
//!   models, provided that cell has `p` distinct values. A level search
//!   like ApproxMC's finds ℓ: gallop 1, 2, 4, … from 0, then bisect, each
//!   probe a bounded enumeration of at most `p` models, so at most `p + 1`
//!   calls. The cell is then read whole, `|cell(ℓ)| + 1` calls. Both are
//!   cut by the models of the shallowest cell already enumerated whole,
//!   which answers every deeper probe and is handed to the oracle as known
//!   models by every shallower one. So the calls are `O(p·log m)` for the
//!   probes plus the read, and they depend on the cell sizes alone, so
//!   every backend counts the same.
//! * [`find_min_cnf_reference`] is Proposition 2 as printed: a prefix search
//!   in which "is there a solution whose hash value starts with this
//!   prefix?" is one oracle call, so `p` minima cost `O(p·m)` calls. It is
//!   the executable specification of the cell search, and the cell search
//!   falls back to it when the cell holds more than `64·p` models, or when a
//!   cell past level 0 has fewer than `p` distinct values. `O(p·m)` is then
//!   the worst case, plus the probes.

use crate::bounded::hash_prefix_zero_constraints;
use crate::oracle::{SolutionOracle, XorPrefixSession};
use crate::solver::XorConstraint;
use mcf0_formula::{Assignment, DnfFormula, Term};
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
struct HashedSolutionsOracle<'a, H: LinearHash> {
    oracle: &'a mut dyn SolutionOracle,
    hash: &'a H,
    base: usize,
    installed: Vec<bool>,
}

impl<'a, H: LinearHash> HashedSolutionsOracle<'a, H> {
    /// Wraps an oracle and a hash function.
    fn new(oracle: &'a mut dyn SolutionOracle, hash: &'a H) -> Self {
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

/// The cell read enumerates at most this many models per requested minimum
/// before [`find_min_cnf`] falls back to the prefix search.
const CELL_CAP_PER_P: usize = 64;

/// `FindMin` for CNF: the `p` lexicographically smallest values of
/// `h(Sol(φ))`, read from the deepest hash cell that holds `p` models.
///
/// The level search costs `O(p·log m)` oracle calls and the cell read
/// `|cell(ℓ)| + 1` less the models the probes already returned. Only when
/// the cell holds more than `64·p` models, or a cell past level 0 has fewer
/// than `p` distinct values, does it fall back to
/// [`find_min_cnf_reference`]'s `O(p·m)` calls. The values are those of the prefix search on every
/// input; only the calls differ.
pub fn find_min_cnf<H: LinearHash>(
    oracle: &mut dyn SolutionOracle,
    hash: &H,
    p: usize,
) -> Vec<BitVec> {
    cell_search(oracle, hash, p, CELL_CAP_PER_P.saturating_mul(p))
        .unwrap_or_else(|| find_min_cnf_reference(oracle, hash, p))
}

/// Proposition 2 as printed: `lex_min`, then `p − 1` `lex_successor`s of a
/// prefix search over the NP oracle, one call per prefix bit, so `O(p·m)`
/// calls. The executable specification of [`find_min_cnf`], which falls
/// back to it.
pub fn find_min_cnf_reference<H: LinearHash>(
    oracle: &mut dyn SolutionOracle,
    hash: &H,
    p: usize,
) -> Vec<BitVec> {
    let mut adapter = HashedSolutionsOracle::new(oracle, hash);
    lex_enumerate(&mut adapter, p)
}

/// The cell search behind [`find_min_cnf`], reading at most `cap ≥ p`
/// models of the cell; `None` when the answer needs the prefix search.
fn cell_search<H: LinearHash>(
    oracle: &mut dyn SolutionOracle,
    hash: &H,
    p: usize,
    cap: usize,
) -> Option<Vec<BitVec>> {
    assert_eq!(
        oracle.num_vars(),
        hash.input_bits(),
        "hash/formula width mismatch"
    );
    if p == 0 {
        return Some(Vec::new());
    }
    let m = hash.output_bits();
    let mut cells = CellPool {
        hash,
        rows: hash_prefix_zero_constraints(hash, m),
        session: XorPrefixSession::new(oracle),
        models: Vec::new(),
        complete_at: None,
    };
    // Every level below `lo` holds p models; level `hi` and every deeper one
    // hold fewer (`m + 1`: no level is known to).
    let (mut lo, mut hi) = (0, m + 1);
    let mut level = 1;
    while level <= m {
        if cells.count(level, p) < p {
            hi = level;
            break;
        }
        lo = level + 1;
        level *= 2;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cells.count(mid, p) == p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    // The deepest level holding p models, or level 0 when Sol(φ) has fewer
    // than p: the probes have then enumerated it whole.
    let level = lo.saturating_sub(1);
    if cells.count(level, cap) == cap {
        return None;
    }
    let mut values: Vec<BitVec> = cells.members(level).map(|(v, _)| v.clone()).collect();
    values.sort();
    values.dedup();
    if values.len() < p && level > 0 {
        return None;
    }
    values.truncate(p);
    Some(values)
}

/// The shallowest cell the search has enumerated whole: one probe came back
/// below its limit there. A model is in cell(ℓ) iff its hash value starts
/// with ℓ zero bits, so every deeper cell is read from the pool, and a
/// shallower probe hands the pool to the oracle as known models and
/// enumerates only the rest. The pool is fixed by the solution set, not by
/// which models a backend returned, so every backend counts the same calls.
struct CellPool<'a, H> {
    hash: &'a H,
    /// `rows[..ℓ]` encode `h_ℓ(x) = 0^ℓ`.
    rows: Vec<XorConstraint>,
    session: XorPrefixSession<'a>,
    /// `(h(x), x)` for every model of cell(`complete_at`).
    models: Vec<(BitVec, Assignment)>,
    /// The level of the cell `models` holds whole; `None` before any.
    complete_at: Option<usize>,
}

impl<H: LinearHash> CellPool<'_, H> {
    /// The pooled members of cell(`level`).
    fn members(&self, level: usize) -> impl Iterator<Item = &(BitVec, Assignment)> {
        self.models
            .iter()
            .filter(move |(value, _)| value.prefix_is_zero(level))
    }

    /// `min(|cell(level)|, limit)`, asking the oracle only for the members
    /// the pool does not hold. `limit` is at least `p`, so more than the
    /// pool, which came back below a limit of `p`.
    fn count(&mut self, level: usize, limit: usize) -> usize {
        if self.complete_at.is_some_and(|at| at <= level) {
            return self.members(level).count().min(limit);
        }
        let known: Vec<Assignment> = self.models.iter().map(|(_, x)| x.clone()).collect();
        self.session.set_rows(&self.rows[..level]);
        let fresh = self
            .session
            .enumerate_excluding(&known, limit - known.len());
        let count = known.len() + fresh.len();
        if count < limit {
            let hash = self.hash;
            self.models
                .extend(fresh.into_iter().map(|x| (hash.eval(&x), x)));
            self.complete_at = Some(level);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{BruteForceOracle, SatOracle};
    use mcf0_formula::generators::{planted_dnf, random_dnf, random_k_cnf};
    use mcf0_formula::{Clause, CnfFormula, DnfFormula, Literal};
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

    #[test]
    fn random_cells_answer_without_the_prefix_search() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(27);
        for _ in 0..6 {
            let f = random_k_cnf(&mut rng, 14, 28, 3);
            let h = ToeplitzHash::sample(&mut rng, 14, 42);
            for p in [1usize, 8, 40] {
                let mut sat = SatOracle::new(f.clone());
                let got = cell_search(&mut sat, &h, p, CELL_CAP_PER_P * p);
                let expected = find_min_cnf_reference(&mut SatOracle::new(f.clone()), &h, p);
                assert_eq!(got, Some(expected), "p={p}");
            }
        }
    }

    #[test]
    fn a_full_cap_falls_back_to_the_prefix_search() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(28);
        let deep = random_k_cnf(&mut rng, 12, 20, 3);
        // Variables 0–7 fixed: four models of 10 variables, and the deepest
        // cell holding all four is cell(0) when cell(1) has fewer.
        let clauses = (0..8).map(|v| Clause::new(vec![Literal::positive(v)]));
        let shallow = CnfFormula::new(10, clauses.collect());
        let h_shallow = std::iter::repeat_with(|| ToeplitzHash::sample(&mut rng, 10, 30))
            .find(|h| {
                let values = ground_truth_minima(|a| (0..8).all(|v| a.get(v)), 10, h, 4);
                values.len() == 4 && values.iter().filter(|value| !value.get(0)).count() < 4
            })
            .unwrap();
        for (f, h, p) in [
            (deep, ToeplitzHash::sample(&mut rng, 12, 36), 6),
            (shallow, h_shallow, 4),
        ] {
            // The deepest cell holding p models holds at least p, so a cap
            // of p is always reached.
            assert_eq!(cell_search(&mut SatOracle::new(f.clone()), &h, p, p), None);
            let expected = find_min_cnf_reference(&mut SatOracle::new(f.clone()), &h, p);
            assert_eq!(expected.len(), p);
            assert_eq!(find_min_cnf(&mut SatOracle::new(f), &h, p), expected);
        }
    }

    #[test]
    fn a_cell_of_repeated_values_falls_back_to_the_prefix_search() {
        // Every assignment of 8 variables under a 2-bit hash: cell(2) holds
        // the 64 models hashing to 00, one value where p = 3 are asked for.
        let f = CnfFormula::tautology(8);
        let mut rng = Xoshiro256StarStar::seed_from_u64(29);
        let h = ToeplitzHash::sample(&mut rng, 8, 2);
        let p = 3;
        let cell_cap = CELL_CAP_PER_P * p;
        assert_eq!(
            cell_search(&mut SatOracle::new(f.clone()), &h, p, cell_cap),
            None
        );
        let expected = ground_truth_minima(|_| true, 8, &h, p);
        assert_eq!(expected.len(), p);
        assert_eq!(find_min_cnf(&mut SatOracle::new(f), &h, p), expected);
    }
}
