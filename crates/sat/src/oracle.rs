//! The abstract solution oracle and its two backends.
//!
//! The paper's algorithms are analysed in terms of NP-oracle calls. In this
//! workspace an oracle call is a satisfiability or bounded-enumeration query
//! about `φ ∧ (XOR constraints)`; [`OracleStats`] counts them so the
//! experiments can check the claimed call complexities (e.g. Theorem 2's
//! `O(n·ε⁻²·log δ⁻¹)` versus the binary-search variant's
//! `O(log n·ε⁻²·log δ⁻¹)`).
//!
//! The oracle interface is **assumption-based**: XOR constraints are pushed
//! onto a stack and popped back off, and queries ([`SolutionOracle::exists`],
//! [`SolutionOracle::enumerate`]) run under whatever is currently pushed.
//! Because the hash constraints of a counting run grow one row at a time
//! (`h_{m+1}` extends `h_m`), the level searches reuse one solver instance —
//! and its incremental Gaussian-elimination state — across a whole batch of
//! queries instead of rebuilding a solver per probe; [`XorPrefixSession`]
//! packages the pop-to-common-prefix bookkeeping. The one-shot helpers
//! [`SolutionOracle::exists_with_xors`] / [`SolutionOracle::enumerate_with_xors`]
//! are provided on top and issue exactly the same number of counted calls.
//!
//! [`SolutionOracle::enumerate_excluding`] hands the oracle models the caller
//! already holds, so only the rest are searched for. How many models it
//! returns is fixed by the solution set; how many calls it is charged is
//! not. A backend that blocks the known models pays only for the fresh ones,
//! so a caller that picks `known` from earlier answers (ApproxMC's model
//! pool) sees call counts that depend on which models the backend returned
//! before. Everything else counts the same on every backend.
//!
//! Two backends implement [`SolutionOracle`]:
//!
//! * [`SatOracle`] — the incremental CNF-XOR engine of [`crate::solver`];
//!   this is the "real" oracle used at scale.
//! * [`BruteForceOracle`] — exhaustive enumeration over `{0,1}^n` for
//!   `n ≤ 26`; it provides ground truth in tests and supports predicates that
//!   cannot be encoded as XOR constraints (such as trailing-zero constraints
//!   on the s-wise polynomial hash used by the Estimation strategy).

use crate::solver::{
    ChronoSolver, CnfXorSolver, SolveOutcome, SolverCore, SolverStats, XorConstraint,
};
use mcf0_formula::{Assignment, CnfFormula, DnfFormula};
use mcf0_gf2::BitVec;

/// Counters describing how much work an oracle has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Number of satisfiability decisions issued (the paper's "NP calls").
    pub sat_calls: u64,
    /// Total number of solutions returned by enumeration queries.
    pub solutions_enumerated: u64,
}

/// A solution space that can be interrogated with XOR side constraints.
pub trait SolutionOracle {
    /// Number of variables of the underlying formula.
    fn num_vars(&self) -> usize;

    /// Number of XOR constraints currently pushed.
    fn assumption_len(&self) -> usize;

    /// Pushes one XOR constraint onto the assumption stack.
    fn push_assumption(&mut self, xor: &XorConstraint);

    /// Pops assumptions until only the first `len` remain.
    fn pop_assumptions_to(&mut self, len: usize);

    /// Is there a solution satisfying all currently pushed constraints?
    /// Counts one oracle call.
    fn exists(&mut self) -> bool;

    /// Up to `limit` distinct solutions satisfying the pushed constraints.
    /// Counts one oracle call per solution plus one for the final query,
    /// which is counted even when the limit stops the enumeration first
    /// (matching Proposition 1's `O(p)` accounting).
    fn enumerate(&mut self, limit: usize) -> Vec<Assignment>;

    /// Up to `limit` distinct solutions satisfying the pushed constraints
    /// that are not in `known`, where `known` holds distinct solutions the
    /// caller already has. The result has `min(|Sol| − |known|, limit)`
    /// models whichever backend answers; which models those are is the
    /// backend's choice.
    ///
    /// This default is the executable specification: it enumerates
    /// `limit + known.len()` solutions, drops the known ones and truncates,
    /// so it counts like [`Self::enumerate`] over the whole cell. The solver
    /// and brute-force backends override it to skip the known models
    /// instead, so the calls counted are the fresh models plus one.
    fn enumerate_excluding(&mut self, known: &[Assignment], limit: usize) -> Vec<Assignment> {
        let mut fresh = self.enumerate(limit + known.len());
        fresh.retain(|model| !known.contains(model));
        fresh.truncate(limit);
        fresh
    }

    /// Work counters.
    fn stats(&self) -> OracleStats;

    /// One-shot existence query under the given constraints (pushes, asks,
    /// pops; issues exactly one counted call).
    fn exists_with_xors(&mut self, xors: &[XorConstraint]) -> bool {
        let mark = self.assumption_len();
        for x in xors {
            self.push_assumption(x);
        }
        let result = self.exists();
        self.pop_assumptions_to(mark);
        result
    }

    /// One-shot bounded enumeration under the given constraints.
    fn enumerate_with_xors(&mut self, xors: &[XorConstraint], limit: usize) -> Vec<Assignment> {
        let mark = self.assumption_len();
        for x in xors {
            self.push_assumption(x);
        }
        let result = self.enumerate(limit);
        self.pop_assumptions_to(mark);
        result
    }
}

/// Keeps an oracle's assumption stack synchronised with a *sequence* of XOR
/// rows, reusing the longest common prefix between consecutive queries. This
/// is the batched query primitive behind the level searches: consecutive
/// probes of `h_m(x) = 0^m` share their first `min(m, m')` rows, so moving
/// between levels pushes/pops only the difference while the solver keeps its
/// Gaussian-elimination state for the shared prefix.
///
/// Dropping the session pops everything it pushed.
pub struct XorPrefixSession<'a> {
    oracle: &'a mut dyn SolutionOracle,
    base: usize,
    installed: Vec<XorConstraint>,
}

impl<'a> XorPrefixSession<'a> {
    /// Opens a session on top of the oracle's current assumption stack.
    pub fn new(oracle: &'a mut dyn SolutionOracle) -> Self {
        let base = oracle.assumption_len();
        XorPrefixSession {
            oracle,
            base,
            installed: Vec::new(),
        }
    }

    /// Makes the pushed constraints equal to `rows`, popping and pushing only
    /// past the longest common prefix with the previous call.
    pub fn set_rows(&mut self, rows: &[XorConstraint]) {
        let common = self
            .installed
            .iter()
            .zip(rows)
            .take_while(|&(a, b)| a == b)
            .count();
        self.oracle.pop_assumptions_to(self.base + common);
        self.installed.truncate(common);
        for row in &rows[common..] {
            self.oracle.push_assumption(row);
            self.installed.push(row.clone());
        }
    }

    /// Existence query under the currently installed rows.
    pub fn exists(&mut self) -> bool {
        self.oracle.exists()
    }

    /// Bounded enumeration outside `known` under the currently installed
    /// rows (see [`SolutionOracle::enumerate_excluding`]).
    pub fn enumerate_excluding(&mut self, known: &[Assignment], limit: usize) -> Vec<Assignment> {
        self.oracle.enumerate_excluding(known, limit)
    }
}

impl Drop for XorPrefixSession<'_> {
    fn drop(&mut self) {
        self.oracle.pop_assumptions_to(self.base);
    }
}

/// Oracle backed by an incremental CNF-XOR solver. The solver instance is
/// built once from the formula and reused across every query; hash
/// constraints come and go through the assumption stack. The backend is any
/// [`SolverCore`] — the CDCL engine in production ([`SatOracle`]), the
/// chronological reference engine in the parity tests and baseline
/// benchmarks ([`ChronoOracle`]).
#[derive(Clone, Debug)]
pub struct SatOracleOn<S: SolverCore> {
    formula: CnfFormula,
    solver: S,
    stats: OracleStats,
}

/// The production oracle: the CDCL engine behind the [`SolutionOracle`]
/// interface.
pub type SatOracle = SatOracleOn<CnfXorSolver>;

/// The reference oracle: the chronological engine behind the same
/// interface, for differential tests and baseline benchmarks.
pub type ChronoOracle = SatOracleOn<ChronoSolver>;

impl<S: SolverCore> SatOracleOn<S> {
    /// Creates an oracle over the solutions of a CNF formula.
    pub fn new(formula: CnfFormula) -> Self {
        let solver = S::from_cnf(&formula);
        SatOracleOn {
            formula,
            solver,
            stats: OracleStats::default(),
        }
    }

    /// The underlying formula.
    pub fn formula(&self) -> &CnfFormula {
        &self.formula
    }

    /// The backend solver's search-work counters (decisions, conflicts,
    /// propagations, learned/deleted clauses, restarts).
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

impl<S: SolverCore> SolutionOracle for SatOracleOn<S> {
    fn num_vars(&self) -> usize {
        self.formula.num_vars()
    }

    fn assumption_len(&self) -> usize {
        self.solver.assumption_len()
    }

    fn push_assumption(&mut self, xor: &XorConstraint) {
        self.solver.push_assumption(xor);
    }

    fn pop_assumptions_to(&mut self, len: usize) {
        self.solver.pop_assumptions_to(len);
    }

    fn exists(&mut self) -> bool {
        self.stats.sat_calls += 1;
        matches!(self.solver.solve(), SolveOutcome::Sat(_))
    }

    fn enumerate(&mut self, limit: usize) -> Vec<Assignment> {
        self.enumerate_excluding(&[], limit)
    }

    fn enumerate_excluding(&mut self, known: &[Assignment], limit: usize) -> Vec<Assignment> {
        let sols = self.solver.enumerate_excluding(known, limit);
        // Each enumeration step (including the final one) is a
        // satisfiability decision; the known models cost none.
        self.stats.sat_calls += sols.len() as u64 + 1;
        self.stats.solutions_enumerated += sols.len() as u64;
        sols
    }

    fn stats(&self) -> OracleStats {
        self.stats
    }
}

/// Oracle backed by exhaustive enumeration of `{0,1}^n` (n ≤ 26). The
/// predicate decides membership of the solution space; constructors are
/// provided for CNF and DNF formulas as well as arbitrary closures
/// (used by the structured-set reductions in tests).
pub struct BruteForceOracle {
    num_vars: usize,
    predicate: Box<dyn Fn(&Assignment) -> bool>,
    assumptions: Vec<XorConstraint>,
    stats: OracleStats,
}

impl BruteForceOracle {
    /// Oracle over the solutions of a CNF formula.
    pub fn from_cnf(formula: CnfFormula) -> Self {
        let n = formula.num_vars();
        Self::from_predicate(n, move |a| formula.eval(a))
    }

    /// Oracle over the solutions of a DNF formula.
    pub fn from_dnf(formula: DnfFormula) -> Self {
        let n = formula.num_vars();
        Self::from_predicate(n, move |a| formula.eval(a))
    }

    /// Oracle over an arbitrary predicate.
    pub fn from_predicate(
        num_vars: usize,
        predicate: impl Fn(&Assignment) -> bool + 'static,
    ) -> Self {
        assert!(
            num_vars <= 26,
            "brute-force oracle supports at most 26 variables"
        );
        BruteForceOracle {
            num_vars,
            predicate: Box::new(predicate),
            assumptions: Vec::new(),
            stats: OracleStats::default(),
        }
    }

    fn assignments(&self) -> impl Iterator<Item = Assignment> + '_ {
        let n = self.num_vars;
        (0..(1u64 << n)).map(move |value| {
            let mut a = BitVec::zeros(n);
            for i in 0..n {
                if (value >> i) & 1 == 1 {
                    a.set(i, true);
                }
            }
            a
        })
    }

    fn admits(&self, a: &Assignment) -> bool {
        (self.predicate)(a) && self.assumptions.iter().all(|x| x.eval(a))
    }

    /// Maximum, over all solutions, of an arbitrary statistic; `None` if the
    /// formula is unsatisfiable. Used for the genuinely s-wise variant of
    /// `FindMaxRange` where the hash cannot be expressed as XOR constraints.
    pub fn max_over_solutions<S: Ord>(
        &mut self,
        statistic: impl Fn(&Assignment) -> S,
    ) -> Option<S> {
        self.stats.sat_calls += 1;
        self.assignments()
            .filter(|a| (self.predicate)(a))
            .map(|a| statistic(&a))
            .max()
    }

    /// All hashed values `f(x)` over solutions `x`, deduplicated and sorted —
    /// ground truth for `FindMin` style subroutines.
    pub fn hashed_solution_values(&mut self, f: impl Fn(&Assignment) -> BitVec) -> Vec<BitVec> {
        self.stats.sat_calls += 1;
        let mut values: Vec<BitVec> = self
            .assignments()
            .filter(|a| (self.predicate)(a))
            .map(|a| f(&a))
            .collect();
        values.sort();
        values.dedup();
        values
    }
}

impl SolutionOracle for BruteForceOracle {
    fn num_vars(&self) -> usize {
        self.num_vars
    }

    fn assumption_len(&self) -> usize {
        self.assumptions.len()
    }

    fn push_assumption(&mut self, xor: &XorConstraint) {
        self.assumptions.push(xor.clone());
    }

    fn pop_assumptions_to(&mut self, len: usize) {
        self.assumptions.truncate(len);
    }

    fn exists(&mut self) -> bool {
        self.stats.sat_calls += 1;
        self.assignments().any(|a| self.admits(&a))
    }

    fn enumerate(&mut self, limit: usize) -> Vec<Assignment> {
        self.enumerate_excluding(&[], limit)
    }

    fn enumerate_excluding(&mut self, known: &[Assignment], limit: usize) -> Vec<Assignment> {
        let mut out = Vec::new();
        for a in self.assignments() {
            if out.len() >= limit {
                break;
            }
            if self.admits(&a) && !known.contains(&a) {
                out.push(a);
            }
        }
        // Match the trait's accounting (and the SAT backend): one decision
        // per fresh solution plus the final one, even though the scan is a
        // single pass here.
        self.stats.sat_calls += out.len() as u64 + 1;
        self.stats.solutions_enumerated += out.len() as u64;
        out
    }

    fn stats(&self) -> OracleStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcf0_formula::generators::{random_dnf, random_k_cnf};
    use mcf0_hashing::Xoshiro256StarStar;

    #[test]
    fn sat_and_brute_force_agree_on_existence() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..10 {
            let f = random_k_cnf(&mut rng, 8, 16, 3);
            let row = rng.random_bitvec(8);
            let xor = XorConstraint::from_row(&row, rng.next_bool());
            let mut sat = SatOracle::new(f.clone());
            let mut brute = BruteForceOracle::from_cnf(f);
            assert_eq!(
                sat.exists_with_xors(std::slice::from_ref(&xor)),
                brute.exists_with_xors(std::slice::from_ref(&xor))
            );
        }
    }

    #[test]
    fn sat_and_brute_force_agree_on_enumeration_counts() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        for _ in 0..6 {
            let f = random_k_cnf(&mut rng, 7, 12, 3);
            let xors: Vec<XorConstraint> = (0..2)
                .map(|_| XorConstraint::from_row(&rng.random_bitvec(7), rng.next_bool()))
                .collect();
            let mut sat = SatOracle::new(f.clone());
            let mut brute = BruteForceOracle::from_cnf(f);
            let a = sat.enumerate_with_xors(&xors, 1000);
            let b = brute.enumerate_with_xors(&xors, 1000);
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn stats_count_calls() {
        let f = CnfFormula::tautology(4);
        let mut oracle = SatOracle::new(f);
        assert_eq!(oracle.stats().sat_calls, 0);
        let _ = oracle.exists_with_xors(&[]);
        let sols = oracle.enumerate_with_xors(&[], 3);
        assert_eq!(sols.len(), 3);
        let stats = oracle.stats();
        assert_eq!(stats.sat_calls, 1 + 3 + 1);
        assert_eq!(stats.solutions_enumerated, 3);
    }

    #[test]
    fn brute_force_dnf_oracle_respects_limit() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let f = random_dnf(&mut rng, 10, 5, (2, 4));
        let mut oracle = BruteForceOracle::from_dnf(f.clone());
        let sols = oracle.enumerate_with_xors(&[], 7);
        assert!(sols.len() <= 7);
        for s in &sols {
            assert!(f.eval(s));
        }
    }

    #[test]
    fn one_shot_queries_leave_the_assumption_stack_clean() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let f = random_k_cnf(&mut rng, 7, 9, 3);
        let xors: Vec<XorConstraint> = (0..3)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(7), rng.next_bool()))
            .collect();
        for oracle in [
            &mut SatOracle::new(f.clone()) as &mut dyn SolutionOracle,
            &mut BruteForceOracle::from_cnf(f) as &mut dyn SolutionOracle,
        ] {
            let unconstrained = oracle.enumerate(1 << 7).len();
            let _ = oracle.exists_with_xors(&xors);
            assert_eq!(oracle.assumption_len(), 0);
            let _ = oracle.enumerate_with_xors(&xors, 10);
            assert_eq!(oracle.assumption_len(), 0);
            assert_eq!(oracle.enumerate(1 << 7).len(), unconstrained);
        }
    }

    #[test]
    fn prefix_session_reuses_and_restores_the_stack() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let f = random_k_cnf(&mut rng, 8, 10, 3);
        let rows: Vec<XorConstraint> = (0..4)
            .map(|_| XorConstraint::from_row(&rng.random_bitvec(8), rng.next_bool()))
            .collect();
        let mut sat = SatOracle::new(f.clone());
        let mut brute = BruteForceOracle::from_cnf(f);
        {
            let mut session = XorPrefixSession::new(&mut sat);
            // Walk levels up, down, and sideways; compare against one-shot
            // queries on the reference backend at every step.
            for m in [0usize, 1, 2, 4, 3, 1, 4, 0, 2] {
                session.set_rows(&rows[..m]);
                assert_eq!(
                    session.enumerate_excluding(&[], 1 << 8).len(),
                    brute.enumerate_with_xors(&rows[..m], 1 << 8).len(),
                    "m={m}"
                );
            }
        }
        assert_eq!(sat.assumption_len(), 0);
    }
}
