//! Multi-word differential for the parity store: `n = 65..=204` variables,
//! so every XOR row spans two to four `u64` words, against brute force over
//! the affine solution space of the pushed rows.
//!
//! Each seed draws a 3-CNF `φ` of `n/2` to `3n/2` clauses and pushes up to
//! `n − k` dense and sparse rows as assumptions, then pops some of them,
//! re-pushes fresh ones, and enumerates after each step. Each enumeration
//! must equal `{x0 + span(nullspace)} ∩ φ`, where `BitMatrix::solve` gives
//! `x0` and the nullspace of the pushed rows; a step whose nullspace has
//! more than 14 vectors is skipped. One solver serves every step of a
//! seed, so learned clauses, pops and live-row rebuilds all carry over.

use mcf0_formula::generators::random_k_cnf;
use mcf0_formula::{Assignment, CnfFormula};
use mcf0_gf2::{BitMatrix, BitVec};
use mcf0_hashing::Xoshiro256StarStar;
use mcf0_sat::{CnfXorSolver, XorConstraint};

/// Largest nullspace a step enumerates by brute force.
const MAX_NULLITY: usize = 14;

/// A random row over `n` variables: dense (each bit a coin flip) or sparse
/// (two to five variables).
fn random_row(rng: &mut Xoshiro256StarStar, n: usize) -> (BitVec, bool) {
    let row = if rng.next_bool() {
        rng.random_bitvec(n)
    } else {
        let mut row = BitVec::zeros(n);
        for _ in 0..2 + rng.next_u64() % 4 {
            row.set((rng.next_u64() % n as u64) as usize, true);
        }
        row
    };
    (row, rng.next_bool())
}

/// Pushes `count` random rows onto both the solver and the mirror list.
fn push_rows(
    rng: &mut Xoshiro256StarStar,
    solver: &mut CnfXorSolver,
    rows: &mut Vec<(BitVec, bool)>,
    n: usize,
    count: usize,
) {
    for _ in 0..count {
        let (row, parity) = random_row(rng, n);
        solver.push_assumption(&XorConstraint::from_row(&row, parity));
        rows.push((row, parity));
    }
}

/// The models of `φ ∧ rows`, sorted, or `None` when the rows leave more
/// than [`MAX_NULLITY`] free dimensions.
fn brute_force(f: &CnfFormula, rows: &[(BitVec, bool)], n: usize) -> Option<Vec<Assignment>> {
    if rows.is_empty() {
        return (n <= MAX_NULLITY).then(Vec::new);
    }
    let matrix = BitMatrix::from_rows(rows.iter().map(|(row, _)| row.clone()).collect());
    let rhs = BitVec::from_bools(&rows.iter().map(|&(_, p)| p).collect::<Vec<_>>());
    let Some((x0, null)) = matrix.solve(&rhs) else {
        return Some(Vec::new());
    };
    if null.len() > MAX_NULLITY {
        return None;
    }
    let mut models = Vec::new();
    for mask in 0u32..1 << null.len() {
        let mut x = x0.clone();
        for (i, v) in null.iter().enumerate() {
            if mask >> i & 1 == 1 {
                x.xor_assign(v);
            }
        }
        if f.eval(&x) {
            models.push(x);
        }
    }
    models.sort();
    Some(models)
}

/// Enumerates under the pushed rows and compares with brute force. Returns
/// whether the step was compared.
fn check(solver: &mut CnfXorSolver, f: &CnfFormula, rows: &[(BitVec, bool)], n: usize) -> bool {
    let Some(expected) = brute_force(f, rows, n) else {
        return false;
    };
    let mut got = solver.enumerate((1 << MAX_NULLITY) + 1);
    got.sort();
    assert_eq!(got, expected, "n = {n}, {} rows", rows.len());
    true
}

/// Runs one seed's push / pop / re-push sequence. Returns the number of
/// compared steps.
fn run_seed(seed: u64) -> usize {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let n = 65 + (rng.next_u64() % 140) as usize;
    let clauses = n / 2 + (rng.next_u64() % (n as u64 + 1)) as usize;
    let f = random_k_cnf(&mut rng, n, clauses, 3);
    let mut solver = CnfXorSolver::from_cnf(&f);
    let mut rows = Vec::new();
    let k = (rng.next_u64() % 13) as usize;
    push_rows(&mut rng, &mut solver, &mut rows, n, n - k);
    let mut compared = usize::from(check(&mut solver, &f, &rows, n));

    // Partial pop, then fresh rows in place of the popped ones.
    let popped = 1 + (rng.next_u64() % (MAX_NULLITY - k).max(1) as u64) as usize;
    let keep = rows.len() - popped;
    solver.pop_assumptions_to(keep);
    rows.truncate(keep);
    compared += usize::from(check(&mut solver, &f, &rows, n));
    push_rows(&mut rng, &mut solver, &mut rows, n, popped);
    compared += usize::from(check(&mut solver, &f, &rows, n));
    compared
}

#[test]
fn multiword_rows_match_brute_force() {
    let compared: usize = (0..60).map(run_seed).sum();
    assert!(compared >= 120, "only {compared} steps compared");
}

#[test]
#[ignore = "2000 seeds: run in release with --ignored"]
fn multiword_rows_match_brute_force_2000_seeds() {
    let compared: usize = (1000..3000).map(run_seed).sum();
    assert!(compared >= 4000, "only {compared} steps compared");
}
