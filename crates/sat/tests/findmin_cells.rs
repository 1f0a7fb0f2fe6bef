//! Differential for CNF FindMin's cell search against Proposition 2's
//! prefix search (`find_min_cnf_reference`) and against brute force
//! (`BruteForceOracle::hashed_solution_values`).
//!
//! `find_min_cnf` reads the p smallest hash values from the deepest cell
//! `h_ℓ(x) = 0^ℓ` that holds p models, and falls back to the prefix search
//! when that cell is too large or repeats values. Each seed draws a random
//! 3-CNF at n = 3–12 and a Toeplitz hash whose width cycles through n/2, n,
//! 2n and 3n, so narrow hashes repeat values within a cell; the minima must
//! be the same three ways for p ∈ {1, 2, 8, 40}. Dedicated cases cover an
//! unsatisfiable formula, fewer models than p, and a narrow hash whose
//! deepest full cell repeats one value, where the calls show the fallback
//! ran.

use mcf0_formula::generators::random_k_cnf;
use mcf0_formula::{Clause, CnfFormula, Literal};
use mcf0_gf2::BitVec;
use mcf0_hashing::{LinearHash, ToeplitzHash, Xoshiro256StarStar};
use mcf0_sat::{find_min_cnf, find_min_cnf_reference, BruteForceOracle, SatOracle, SolutionOracle};

const PS: [usize; 4] = [1, 2, 8, 40];

/// Every hashed value of `f`'s models, sorted and deduplicated.
fn hashed_values(f: &CnfFormula, h: &ToeplitzHash) -> Vec<BitVec> {
    BruteForceOracle::from_cnf(f.clone()).hashed_solution_values(|a| h.eval(a))
}

/// FindMin's minima and oracle calls on a fresh solver.
fn run(
    findmin: fn(&mut dyn SolutionOracle, &ToeplitzHash, usize) -> Vec<BitVec>,
    f: &CnfFormula,
    h: &ToeplitzHash,
    p: usize,
) -> (Vec<BitVec>, u64) {
    let mut oracle = SatOracle::new(f.clone());
    let minima = findmin(&mut oracle, h, p);
    (minima, oracle.stats().sat_calls)
}

/// Fails unless the cell search, the prefix search and brute force agree on
/// every p; returns the cell search's and the prefix search's calls.
fn check(f: &CnfFormula, h: &ToeplitzHash, label: &str) -> Vec<(u64, u64)> {
    let values = hashed_values(f, h);
    PS.iter()
        .map(|&p| {
            let (cells, cell_calls) = run(find_min_cnf, f, h, p);
            let (prefix, prefix_calls) = run(find_min_cnf_reference, f, h, p);
            let truth = &values[..p.min(values.len())];
            assert_eq!(prefix, truth, "{label} p={p}: prefix search");
            assert_eq!(cells, truth, "{label} p={p}: cell search");
            (cell_calls, prefix_calls)
        })
        .collect()
}

fn differential(seeds: std::ops::Range<u64>, sizes: std::ops::RangeInclusive<usize>) {
    let span = (sizes.end() - sizes.start() + 1) as u64;
    for seed in seeds {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n = sizes.start() + (seed % span) as usize;
        // From a few clauses (many models) to past the threshold (few).
        let clauses = 1 + (rng.next_u64() % (5 * n as u64)) as usize;
        let f = random_k_cnf(&mut rng, n, clauses, 3);
        let m = [n / 2, n, 2 * n, 3 * n][(seed / span % 4) as usize].max(1);
        let h = ToeplitzHash::sample(&mut rng, n, m);
        check(
            &f,
            &h,
            &format!("seed {seed}, n={n}, {clauses} clauses, m={m}"),
        );
    }
}

#[test]
fn cell_search_matches_prefix_search_and_brute_force() {
    differential(0..300, 3..=12);
}

#[test]
#[ignore = "brute force over up to 2^20 assignments; a few seconds in release"]
fn cell_search_matches_prefix_search_and_brute_force_at_n_14_to_20() {
    differential(1000..1040, 14..=20);
}

#[test]
fn unsatisfiable_formulas_have_no_minima() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let f = CnfFormula::new(
        10,
        vec![
            Clause::new(vec![Literal::positive(3)]),
            Clause::new(vec![Literal::negative(3)]),
        ],
    );
    let h = ToeplitzHash::sample(&mut rng, 10, 30);
    check(&f, &h, "unsat");
    for p in PS {
        assert!(run(find_min_cnf, &f, &h, p).0.is_empty());
    }
}

#[test]
fn fewer_models_than_p_return_every_value() {
    // Variables 0–6 fixed: 2^3 = 8 models of 10 variables.
    let clauses = (0..7)
        .map(|v| Clause::new(vec![Literal::positive(v)]))
        .collect();
    let f = CnfFormula::new(10, clauses);
    let mut rng = Xoshiro256StarStar::seed_from_u64(8);
    let h = ToeplitzHash::sample(&mut rng, 10, 30);
    check(&f, &h, "8 models");
    assert_eq!(run(find_min_cnf, &f, &h, 40).0.len(), 8);
}

#[test]
fn a_narrow_hash_repeating_values_in_its_cell_falls_back() {
    // 2^11 models under a 3-bit hash: the deepest cell holding 8 models is
    // cell(3), 256 models of the single value 000, so the cell search must
    // hand p = 8 to the prefix search, and pays its calls on top.
    let f = CnfFormula::tautology(11);
    let mut rng = Xoshiro256StarStar::seed_from_u64(9);
    let h = ToeplitzHash::sample(&mut rng, 11, 3);
    let calls = check(&f, &h, "narrow");
    assert_eq!(run(find_min_cnf, &f, &h, 8).0.len(), 8);
    let (cell_calls, prefix_calls) = calls[PS.iter().position(|&p| p == 8).unwrap()];
    assert!(
        cell_calls > prefix_calls,
        "{cell_calls} calls against the prefix search's {prefix_calls}: no fallback"
    );
}
