//! Differential for the solver's resumed model enumeration against
//! `BruteForceOracle`.
//!
//! `enumerate_excluding` blocks each model by the negation of its decisions
//! and resumes one level up instead of solving again from level 0. Each seed
//! draws a random 3-CNF `φ`, pushes up to three XOR rows and picks a random
//! subset of the cell as `known`, then enumerates at limits
//! `0, 1, |Sol| − 1, |Sol|` and `|Sol| + 3`. Every answer must be
//! `min(|Sol| − |known|, limit)` distinct genuine models outside `known`, a
//! second enumeration must see the whole cell again (no blocking clause or
//! unit survives the call), and every learned clause the solver keeps must
//! hold on every model, of `φ ∧ rows` while the rows are pushed and of `φ`
//! once they are popped.

use mcf0_formula::generators::random_k_cnf;
use mcf0_formula::{Assignment, Clause, CnfFormula, Literal};
use mcf0_hashing::Xoshiro256StarStar;
use mcf0_sat::{BruteForceOracle, CnfXorSolver, SolutionOracle, XorConstraint};

fn sorted(mut models: Vec<Assignment>) -> Vec<Assignment> {
    models.sort();
    models
}

/// Fails unless every retained learned clause holds on every model.
fn assert_learned_clauses_hold(solver: &CnfXorSolver, models: &[Assignment]) {
    for clause in solver.learned_clause_lits() {
        for model in models {
            assert!(
                clause.iter().any(|l| l.eval(model.get(l.var()))),
                "learned clause {clause:?} excludes a model"
            );
        }
    }
}

/// Runs the differential on one formula and row set; `rng` picks `known`.
fn differential(f: &CnfFormula, rows: &[XorConstraint], rng: &mut Xoshiro256StarStar) {
    let n = f.num_vars();
    let mut brute = BruteForceOracle::from_cnf(f.clone());
    let all = sorted(brute.enumerate(1 << n));
    let cell = sorted(brute.enumerate_with_xors(rows, 1 << n));
    let known: Vec<Assignment> = cell
        .iter()
        .filter(|_| rng.next_u64().is_multiple_of(4))
        .cloned()
        .collect();

    let mut solver = CnfXorSolver::from_cnf(f);
    for row in rows {
        solver.push_assumption(row);
    }
    let size = cell.len();
    for limit in [0, 1, size.saturating_sub(1), size, size + 3] {
        let fresh = solver.enumerate_excluding(&known, limit);
        assert_eq!(
            fresh.len(),
            (size - known.len()).min(limit),
            "limit {limit}"
        );
        for model in &fresh {
            assert!(cell.binary_search(model).is_ok(), "not a model of the cell");
            assert!(!known.contains(model), "a known model came back");
        }
        let mut distinct = sorted(fresh.clone());
        distinct.dedup();
        assert_eq!(distinct.len(), fresh.len(), "a model came back twice");

        assert_eq!(sorted(solver.enumerate(size + 1)), cell, "limit {limit}");
        assert_learned_clauses_hold(&solver, &cell);
    }
    solver.pop_assumptions_to(0);
    assert_learned_clauses_hold(&solver, &all);
    assert_eq!(sorted(solver.enumerate(all.len() + 1)), all);
}

/// `seeds` random instances over `n` drawn from `vars`.
fn random_differential(seeds: u64, vars: std::ops::RangeInclusive<usize>) {
    let span = (vars.end() - vars.start() + 1) as u64;
    for seed in 0..seeds {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let n = vars.start() + (rng.next_u64() % span) as usize;
        let clauses = n + (rng.next_u64() % (3 * n as u64 + 1)) as usize;
        let f = random_k_cnf(&mut rng, n, clauses, 3);
        let rows: Vec<XorConstraint> = (0..rng.next_u64() % 4)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(n), rng.next_bool()))
            .collect();
        differential(&f, &rows, &mut rng);
    }
}

fn clause(lits: &[Literal]) -> Clause {
    Clause::new(lits.to_vec())
}

#[test]
fn resumed_enumeration_matches_brute_force() {
    random_differential(300, 3..=12);
}

#[test]
#[ignore = "2^18–2^22 brute-force passes; run with --release -- --ignored"]
fn resumed_enumeration_matches_brute_force_at_n18_to_22() {
    random_differential(20, 18..=22);
}

#[test]
fn a_unique_model_ends_the_enumeration_without_another_search() {
    // Unit propagation fixes every variable, so the model has no decision
    // and the enumeration stops at it (the k = 0 exit).
    let (p, q) = (Literal::positive, Literal::negative);
    let f = CnfFormula::new(
        5,
        vec![
            clause(&[p(0)]),
            clause(&[q(0), p(1)]),
            clause(&[q(1), q(2)]),
            clause(&[p(2), p(3)]),
            clause(&[q(3), q(4)]),
        ],
    );
    let mut solver = CnfXorSolver::from_cnf(&f);
    let models = solver.enumerate(3);
    assert_eq!(models.len(), 1);
    assert_eq!(solver.stats().decisions, 0);
    assert_eq!(solver.solve_calls(), 1);
    assert!(solver.enumerate_excluding(&models, 3).is_empty());
    differential(&f, &[], &mut Xoshiro256StarStar::seed_from_u64(1));
}

#[test]
fn a_first_flip_at_level_one_is_a_unit_and_is_popped() {
    // x0 ↔ x1 ↔ x2: one decision fixes the first model, its blocking clause
    // is a unit, and the flipped model needs no decision (the k = 1 path,
    // then the k = 0 exit).
    let (p, q) = (Literal::positive, Literal::negative);
    let f = CnfFormula::new(
        3,
        vec![
            clause(&[q(0), p(1)]),
            clause(&[p(0), q(1)]),
            clause(&[q(1), p(2)]),
            clause(&[p(1), q(2)]),
        ],
    );
    let mut solver = CnfXorSolver::from_cnf(&f);
    assert_eq!(solver.enumerate(5).len(), 2);
    assert_eq!(solver.stats().decisions, 1);
    assert_eq!(solver.solve_calls(), 2);
    // The unit went with the call: both models are back.
    assert_eq!(solver.enumerate(5).len(), 2);
    differential(&f, &[], &mut Xoshiro256StarStar::seed_from_u64(2));
    differential(
        &f,
        &[XorConstraint::new(vec![0, 1, 2], true)],
        &mut Xoshiro256StarStar::seed_from_u64(3),
    );
}
