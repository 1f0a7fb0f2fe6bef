//! An incremental CNF-XOR **CDCL** solver: the workspace's NP oracle.
//!
//! The hashing-based algorithms only ever ask satisfiability / bounded
//! enumeration questions about formulas of the form `φ ∧ (h(x) = c)` where
//! `φ` is CNF and the hash constraint is a conjunction of XOR (parity)
//! equations. The solver therefore carries two constraint stores — ordinary
//! clauses and parity rows — and runs a conflict-driven search over both.
//!
//! The engine is split across focused modules:
//!
//! * [`engine`](self) — the search loop: two-watched-literal clause
//!   propagation to a fixpoint, then XOR propagation, decision/backjump/
//!   restart loop, learned-clause installation and database reduction;
//! * `analyze` — first-UIP conflict analysis. Clause *and* XOR reasons
//!   participate: when a combination of parity rows forces a literal (or
//!   goes inconsistent), the implied clause over the combined row's
//!   variables is read from the reason arena, so hash rows contribute to
//!   clause learning like ordinary clauses;
//! * `clausedb` — the clause arena: original (truncatable) clauses plus a
//!   learned-clause database with LBD and activity scores;
//! * `decide` — EVSIDS-style activity heap with phase saving;
//! * `restart` — the Luby restart sequence;
//! * `xor` — the parity store: packed rows kept in echelon form as they are
//!   pushed, and complete propagation over a live fully reduced copy of
//!   them, in which each row has a basic column of its own and a watched
//!   column; every clause fixpoint pivots only the rows whose basic or watch
//!   was just assigned, and a per-solve arena keeps the live rows that
//!   served as reasons.
//!
//! **Incrementality.** The engine is assumption-based: XOR rows are pushed
//! and popped ([`CnfXorSolver::push_assumption`] /
//! [`CnfXorSolver::pop_assumptions_to`]) and scratch clauses (the blocking
//! clauses of [`CnfXorSolver::enumerate_excluding`]) are removed by
//! clause-store truncation ([`CnfXorSolver::clause_mark`] /
//! [`CnfXorSolver::pop_clauses_to`]). Learned clauses survive across those
//! pops **soundly** because every learned clause records the derivation
//! dependencies it was resolved from (deepest original clause, unit literal
//! and XOR row used anywhere in its derivation); popping a store past a
//! dependency purges exactly the learned clauses whose derivations are no
//! longer grounded, so clauses learned from `φ` alone persist across a whole
//! counting run while clauses learned from hash rows vanish with their rows.
//!
//! DESIGN.md §2 documents the architecture; all the paper's complexity
//! accounting is in terms of *oracle calls* (counted by [`crate::oracle`]),
//! so the solver's speed only scales the time axis of the experiments.

mod analyze;
mod clausedb;
mod decide;
mod engine;
mod restart;
mod xor;

use clausedb::{ClauseDb, Deps};
use decide::VarOrder;
use engine::Reason;
use mcf0_formula::{Assignment, CnfFormula, Literal};
use mcf0_gf2::BitVec;
use xor::XorStore;

/// A parity constraint `⊕_{v ∈ vars} x_v = parity`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XorConstraint {
    /// Variables appearing in the constraint (deduplicated internally:
    /// a variable appearing twice cancels).
    pub vars: Vec<usize>,
    /// Required parity of the sum.
    pub parity: bool,
}

impl XorConstraint {
    /// Builds a constraint, cancelling duplicate variables.
    pub fn new(mut vars: Vec<usize>, parity: bool) -> Self {
        vars.sort_unstable();
        let mut deduped: Vec<usize> = Vec::with_capacity(vars.len());
        let mut i = 0;
        while i < vars.len() {
            let mut run = 1;
            while i + run < vars.len() && vars[i + run] == vars[i] {
                run += 1;
            }
            if run % 2 == 1 {
                deduped.push(vars[i]);
            }
            i += run;
        }
        XorConstraint {
            vars: deduped,
            parity,
        }
    }

    /// Builds the constraint `row · x = target` from a hash-matrix row
    /// (word-wise set-bit iteration; the row's bits are already distinct).
    pub fn from_row(row: &BitVec, target: bool) -> Self {
        XorConstraint {
            vars: row.iter_ones().collect(),
            parity: target,
        }
    }

    /// Evaluates the constraint under a total assignment.
    pub fn eval(&self, assignment: &Assignment) -> bool {
        let mut parity = false;
        for &v in &self.vars {
            parity ^= assignment.get(v);
        }
        parity == self.parity
    }
}

/// Outcome of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveOutcome {
    /// A satisfying assignment was found.
    Sat(Assignment),
    /// The formula (with its XOR constraints) is unsatisfiable.
    Unsat,
}

/// Checkpoint of the clause store, returned by [`CnfXorSolver::clause_mark`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClauseMark {
    pub(super) clauses: usize,
    pub(super) units: usize,
    pub(super) empty: bool,
}

/// Work counters describing what the CDCL search has done. All counters are
/// cumulative over the lifetime of the solver (across `solve` calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Literals implied by unit/XOR propagation.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned (including learned units).
    pub learned_clauses: u64,
    /// Total literals across learned clauses.
    pub learned_literals: u64,
    /// Learned clauses removed by database reduction.
    pub deleted_clauses: u64,
    /// Learned clauses purged because an assumption/clause pop invalidated
    /// their derivation.
    pub purged_clauses: u64,
}

#[inline]
pub(super) fn lit_code(l: Literal) -> usize {
    2 * l.var() + usize::from(l.is_positive())
}

/// The incremental CNF-XOR CDCL solver: clause and XOR loading, assumption
/// push/pop, `solve` / `enumerate`, clause marks, and
/// [`CnfXorSolver::stats`] for the search counters.
#[derive(Clone, Debug)]
pub struct CnfXorSolver {
    num_vars: usize,

    // Clause stores. `db` holds watched clauses of length ≥ 2 (original and
    // learned); unit clauses live in `unit_lits`; an empty clause sets
    // `has_empty`; learned unit clauses (with their derivation deps) are
    // seeded at the start of every `solve`.
    db: ClauseDb,
    unit_lits: Vec<Literal>,
    has_empty: bool,
    learned_units: Vec<(Literal, Deps)>,
    units_agg: Deps,

    // Parity store: reduced rows, trail masks, reason arena.
    xors: XorStore,

    // Search state. The trail is empty between `solve` calls.
    assigns: Vec<Option<bool>>,
    var_level: Vec<u32>,
    reason: Vec<Reason>,
    var_deps: Vec<Deps>,
    trail: Vec<usize>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Trail position up to which the parity store has taken in the
    /// assignments.
    xhead: usize,
    order: VarOrder,

    // Conflict-analysis scratch buffers.
    seen: Vec<bool>,
    to_clear: Vec<usize>,

    stats: SolverStats,
    solve_calls: u64,
}

impl CnfXorSolver {
    /// Creates an empty solver over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        CnfXorSolver {
            num_vars,
            db: ClauseDb::new(num_vars),
            unit_lits: Vec::new(),
            has_empty: false,
            learned_units: Vec::new(),
            units_agg: Deps::default(),
            xors: XorStore::new(num_vars),
            assigns: vec![None; num_vars],
            var_level: vec![0; num_vars],
            reason: vec![Reason::Decision; num_vars],
            var_deps: vec![Deps::default(); num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            xhead: 0,
            order: VarOrder::new(num_vars),
            seen: vec![false; num_vars],
            to_clear: Vec::new(),
            stats: SolverStats::default(),
            solve_calls: 0,
        }
    }

    /// Creates a solver loaded with the clauses of a CNF formula.
    pub fn from_cnf(formula: &CnfFormula) -> Self {
        let mut s = Self::new(formula.num_vars());
        for clause in formula.clauses() {
            s.add_clause(clause.literals().to_vec());
        }
        s
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of `solve` invocations so far (the oracle-call metric).
    pub fn solve_calls(&self) -> u64 {
        self.solve_calls
    }

    /// Cumulative CDCL work counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The literal sets of the currently retained learned clauses (including
    /// learned units). Exposed for the soundness proptests: every returned
    /// clause must be implied by the original formula together with the
    /// currently active XOR constraints.
    pub fn learned_clause_lits(&self) -> Vec<Vec<Literal>> {
        let mut out: Vec<Vec<Literal>> = self.learned_units.iter().map(|&(l, _)| vec![l]).collect();
        out.extend(self.db.learned.iter().map(|c| c.lits.clone()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::exact::{count_cnf_brute_force, enumerate_cnf_solutions};
    use mcf0_formula::generators::random_k_cnf;
    use mcf0_hashing::Xoshiro256StarStar;

    #[test]
    fn solves_simple_formula() {
        // (x0 ∨ x1) ∧ (¬x0 ∨ x2) ∧ (¬x1)
        let mut s = CnfXorSolver::new(3);
        s.add_clause(vec![Literal::positive(0), Literal::positive(1)]);
        s.add_clause(vec![Literal::negative(0), Literal::positive(2)]);
        s.add_clause(vec![Literal::negative(1)]);
        match s.solve() {
            SolveOutcome::Sat(model) => {
                assert!(model.get(0));
                assert!(!model.get(1));
                assert!(model.get(2));
            }
            SolveOutcome::Unsat => panic!("formula is satisfiable"),
        }
    }

    #[test]
    fn detects_unsat_via_clauses() {
        let mut s = CnfXorSolver::new(2);
        s.add_clause(vec![Literal::positive(0)]);
        s.add_clause(vec![Literal::negative(0)]);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn detects_unsat_via_inconsistent_xors() {
        let mut s = CnfXorSolver::new(3);
        s.add_xor(XorConstraint::new(vec![0, 1], false));
        s.add_xor(XorConstraint::new(vec![1, 2], false));
        s.add_xor(XorConstraint::new(vec![0, 2], true));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn xor_constraints_restrict_the_model() {
        let mut s = CnfXorSolver::new(4);
        s.add_xor(XorConstraint::new(vec![0, 1, 2], true));
        s.add_xor(XorConstraint::new(vec![2, 3], false));
        match s.solve() {
            SolveOutcome::Sat(model) => {
                assert!(model.get(0) ^ model.get(1) ^ model.get(2));
                assert_eq!(model.get(2), model.get(3));
            }
            SolveOutcome::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn xor_duplicate_variables_cancel() {
        let x = XorConstraint::new(vec![3, 1, 3, 3, 1], true);
        assert_eq!(x.vars, vec![3]);
        let y = XorConstraint::new(vec![2, 2], true);
        assert!(y.vars.is_empty());
    }

    #[test]
    fn contradictory_empty_xor_is_unsat() {
        let mut s = CnfXorSolver::new(2);
        s.add_xor(XorConstraint::new(vec![1, 1], true));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn enumeration_matches_brute_force_on_random_instances() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..10 {
            let f = random_k_cnf(&mut rng, 8, 14, 3);
            let expected = count_cnf_brute_force(&f);
            let mut s = CnfXorSolver::from_cnf(&f);
            let sols = s.enumerate(1 << 9);
            assert_eq!(sols.len() as u128, expected, "{f}");
            // All reported solutions are genuine and distinct.
            let brute = enumerate_cnf_solutions(&f);
            for sol in &sols {
                assert!(brute.contains(sol));
            }
            let mut dedup = sols.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), sols.len());
        }
    }

    #[test]
    fn enumeration_respects_limit_and_is_repeatable() {
        let f = CnfFormula::tautology(5);
        let mut s = CnfXorSolver::from_cnf(&f);
        assert_eq!(s.enumerate(7).len(), 7);
        // The scratch blocking clauses must not leak: a second enumeration
        // sees the full solution set again.
        assert_eq!(s.enumerate(40).len(), 32);
    }

    #[test]
    fn solutions_with_xor_constraints_match_brute_force() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10 {
            let f = random_k_cnf(&mut rng, 7, 10, 3);
            let row = rng.random_bitvec(7);
            let parity = rng.next_bool();
            let xor = XorConstraint::from_row(&row, parity);
            let mut s = CnfXorSolver::from_cnf(&f);
            s.add_xor(xor.clone());
            let got = s.enumerate(1 << 8).len();
            let expected = enumerate_cnf_solutions(&f)
                .into_iter()
                .filter(|a| xor.eval(a))
                .count();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn solve_call_counter_increments() {
        let mut s = CnfXorSolver::new(3);
        s.add_clause(vec![Literal::positive(0)]);
        assert_eq!(s.solve_calls(), 0);
        let _ = s.solve();
        let _ = s.solve();
        assert_eq!(s.solve_calls(), 2);
        let _ = s.enumerate(4);
        assert!(s.solve_calls() >= 6);
    }

    #[test]
    fn assumptions_push_and_pop_restore_the_solution_set() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(41);
        let f = random_k_cnf(&mut rng, 8, 12, 3);
        let mut s = CnfXorSolver::from_cnf(&f);
        let unconstrained = s.enumerate(1 << 8).len();

        // Push two rows, solve under them, then pop back.
        let base = s.assumption_len();
        let row_a = XorConstraint::from_row(&rng.random_bitvec(8), rng.next_bool());
        let row_b = XorConstraint::from_row(&rng.random_bitvec(8), rng.next_bool());
        s.push_assumption(&row_a);
        s.push_assumption(&row_b);
        let constrained = s.enumerate(1 << 8);
        for sol in &constrained {
            assert!(row_a.eval(sol) && row_b.eval(sol));
        }
        let expected = enumerate_cnf_solutions(&f)
            .into_iter()
            .filter(|a| row_a.eval(a) && row_b.eval(a))
            .count();
        assert_eq!(constrained.len(), expected);

        // Partial pop: only the first row remains.
        s.pop_assumptions_to(base + 1);
        let one_row = s.enumerate(1 << 8).len();
        let expected_one = enumerate_cnf_solutions(&f)
            .into_iter()
            .filter(|a| row_a.eval(a))
            .count();
        assert_eq!(one_row, expected_one);

        // Full pop: the original solution set is back.
        s.pop_assumptions_to(base);
        assert_eq!(s.enumerate(1 << 8).len(), unconstrained);
    }

    #[test]
    fn inconsistent_assumptions_are_popped_cleanly() {
        let mut s = CnfXorSolver::new(4);
        s.add_clause(vec![Literal::positive(0)]);
        let base = s.assumption_len();
        // x1 ⊕ x2 = 0 and x1 ⊕ x2 = 1 together are inconsistent.
        s.push_assumption(&XorConstraint::new(vec![1, 2], false));
        s.push_assumption(&XorConstraint::new(vec![1, 2], true));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        s.pop_assumptions_to(base);
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
    }

    #[test]
    fn redundant_assumptions_are_popped_cleanly() {
        let mut s = CnfXorSolver::new(3);
        let base = s.assumption_len();
        s.push_assumption(&XorConstraint::new(vec![0, 1], true));
        // The same row again is redundant (reduces to 0 = 0).
        s.push_assumption(&XorConstraint::new(vec![0, 1], true));
        match s.solve() {
            SolveOutcome::Sat(m) => assert!(m.get(0) ^ m.get(1)),
            SolveOutcome::Unsat => panic!("satisfiable"),
        }
        s.pop_assumptions_to(base);
        assert_eq!(s.enumerate(1 << 3).len(), 8);
    }

    #[test]
    fn learned_clauses_accumulate_and_report_stats() {
        // A pigeonhole-flavoured unsatisfiable instance forces real conflict
        // analysis (pure propagation cannot refute it from the root).
        let mut rng = Xoshiro256StarStar::seed_from_u64(55);
        let mut s = CnfXorSolver::new(12);
        let f = random_k_cnf(&mut rng, 12, 60, 3);
        for c in f.clauses() {
            s.add_clause(c.literals().to_vec());
        }
        for _ in 0..6 {
            let xor = XorConstraint::from_row(&rng.random_bitvec(12), rng.next_bool());
            s.add_xor(xor);
        }
        let _ = s.enumerate(1 << 12);
        let stats = s.stats();
        assert!(stats.decisions > 0);
        assert!(stats.propagations > 0);
    }

    #[test]
    fn a_row_combination_refutes_without_a_decision() {
        // Neither row is unit once x0 is false, but their sum x0 = 1 is.
        let mut s = CnfXorSolver::new(3);
        s.add_clause(vec![Literal::negative(0)]);
        s.add_xor(XorConstraint::new(vec![0, 1, 2], true));
        s.add_xor(XorConstraint::new(vec![1, 2], false));
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert_eq!(s.stats().decisions, 0);
    }

    #[test]
    fn a_row_combination_forces_a_level0_literal() {
        // With x0 false the rows' sum x0 ⊕ x3 = 1 forces x3; the clause then
        // forces x1 and the first row x2, so the model needs no decision.
        let mut s = CnfXorSolver::new(4);
        s.add_clause(vec![Literal::negative(0)]);
        s.add_clause(vec![Literal::negative(3), Literal::positive(1)]);
        s.add_xor(XorConstraint::new(vec![0, 1, 2], true));
        s.add_xor(XorConstraint::new(vec![1, 2, 3], false));
        match s.solve() {
            SolveOutcome::Sat(m) => {
                assert_eq!(
                    (0..4).map(|v| m.get(v)).collect::<Vec<_>>(),
                    [false, true, false, true]
                );
            }
            SolveOutcome::Unsat => panic!("satisfiable"),
        }
        assert_eq!(s.stats().decisions, 0);
    }

    #[test]
    fn popping_rows_purges_dependent_learned_clauses() {
        // Learn under pushed rows, pop them, and check every retained
        // learned clause is still implied by the formula alone.
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        for _ in 0..10 {
            let f = random_k_cnf(&mut rng, 8, 16, 3);
            let mut s = CnfXorSolver::from_cnf(&f);
            let base = s.assumption_len();
            for _ in 0..3 {
                s.push_assumption(&XorConstraint::from_row(
                    &rng.random_bitvec(8),
                    rng.next_bool(),
                ));
            }
            let _ = s.enumerate(1 << 8);
            s.pop_assumptions_to(base);
            let solutions = enumerate_cnf_solutions(&f);
            for clause in s.learned_clause_lits() {
                for sol in &solutions {
                    assert!(
                        clause.iter().any(|l| l.eval(sol.get(l.var()))),
                        "learned clause {clause:?} not implied by the formula"
                    );
                }
            }
            // And the solution set is fully restored.
            assert_eq!(s.enumerate(1 << 8).len(), solutions.len());
        }
    }
}
