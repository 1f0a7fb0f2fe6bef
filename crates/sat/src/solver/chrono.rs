//! The previous incremental CNF-XOR engine — chronological backtracking, no
//! learning — kept verbatim as [`ChronoSolver`].
//!
//! It serves two purposes: it is the differential-testing reference the
//! parity proptests pin the CDCL engine against (same watched-literal and
//! parity propagation, but an exhaustive flip-the-last-decision search that
//! is easy to trust), and it is the baseline the large-`n` benchmarks
//! measure the CDCL engine's wall-clock win over. New workloads should use
//! [`super::CnfXorSolver`].

use super::{lit_code, ClauseMark, SolveOutcome, SolverCore, SolverStats, XorConstraint};
use mcf0_formula::{Assignment, CnfFormula, Literal};
use mcf0_gf2::BitVec;

/// A clause in the two-watched-literal scheme. For clauses of length ≥ 2 the
/// invariant is that `lits[0]` and `lits[1]` are the watched literals; unit
/// and empty clauses never enter the watch scheme.
#[derive(Clone, Debug)]
struct WatchedClause {
    lits: Vec<Literal>,
}

/// A reduced XOR row with cached propagation counters.
#[derive(Clone, Debug)]
struct XorRow {
    vars: Vec<usize>,
    parity: bool,
    unassigned: usize,
    acc: bool,
}

/// Undo record for one pushed XOR constraint (assumption or permanent).
#[derive(Clone, Copy, Debug)]
enum XorUndo {
    AddedRow,
    Inconsistent,
    Redundant,
}

/// Result of the propagation loop.
enum Propagation {
    Conflict,
    NoConflict,
}

/// The chronological-backtracking incremental CNF-XOR solver (the pre-CDCL
/// engine). Same constraint stores and incremental API as
/// [`super::CnfXorSolver`]; the search unwinds to the deepest decision whose
/// second phase is untried and flips it.
#[derive(Clone, Debug)]
pub struct ChronoSolver {
    num_vars: usize,

    clauses: Vec<WatchedClause>,
    watches: Vec<Vec<u32>>,
    unit_lits: Vec<Literal>,
    has_empty: bool,

    gauss: Vec<(BitVec, usize)>,
    xor_rows: Vec<XorRow>,
    xor_occ: Vec<Vec<u32>>,
    inconsistent: u32,

    assumptions: Vec<XorUndo>,

    assigns: Vec<Option<bool>>,
    trail: Vec<usize>,
    trail_lim: Vec<usize>,
    decisions: Vec<(usize, bool)>,
    qhead: usize,

    solve_calls: u64,
    stats: SolverStats,
}

impl ChronoSolver {
    /// Creates an empty solver over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        ChronoSolver {
            num_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            unit_lits: Vec::new(),
            has_empty: false,
            gauss: Vec::new(),
            xor_rows: Vec::new(),
            xor_occ: vec![Vec::new(); num_vars],
            inconsistent: 0,
            assumptions: Vec::new(),
            assigns: vec![None; num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            decisions: Vec::new(),
            qhead: 0,
            solve_calls: 0,
            stats: SolverStats::default(),
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

    /// Work counters (decisions/conflicts/propagations; the learning
    /// counters stay zero — this engine does not learn).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Adds a clause (empty clause makes the instance unsatisfiable).
    /// Duplicate literals are removed and tautological clauses dropped.
    pub fn add_clause(&mut self, mut literals: Vec<Literal>) {
        debug_assert!(self.trail.is_empty(), "clauses are added between solves");
        for l in &literals {
            assert!(l.var() < self.num_vars, "literal variable out of range");
        }
        literals.sort_unstable();
        literals.dedup();
        if literals
            .windows(2)
            .any(|w| w[0].var() == w[1].var() && w[0].is_positive() != w[1].is_positive())
        {
            return; // tautology: x ∨ ¬x
        }
        match literals.len() {
            0 => self.has_empty = true,
            1 => self.unit_lits.push(literals[0]),
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[lit_code(literals[0])].push(idx);
                self.watches[lit_code(literals[1])].push(idx);
                self.clauses.push(WatchedClause { lits: literals });
            }
        }
    }

    /// Adds a permanent XOR constraint. Must not be called while assumptions
    /// are pushed (permanent rows would be popped with them).
    pub fn add_xor(&mut self, xor: XorConstraint) {
        assert!(
            self.assumptions.is_empty(),
            "add_xor with active assumptions; use push_assumption"
        );
        let _ = self.insert_xor(&xor);
    }

    /// Pushes an XOR constraint as a popable assumption.
    pub fn push_assumption(&mut self, xor: &XorConstraint) {
        let undo = self.insert_xor(xor);
        self.assumptions.push(undo);
    }

    /// Number of assumptions currently pushed.
    pub fn assumption_len(&self) -> usize {
        self.assumptions.len()
    }

    /// Pops assumptions until only the first `len` remain.
    pub fn pop_assumptions_to(&mut self, len: usize) {
        debug_assert!(self.trail.is_empty(), "pops happen between solves");
        while self.assumptions.len() > len {
            match self.assumptions.pop().expect("stack is non-empty") {
                XorUndo::Redundant => {}
                XorUndo::Inconsistent => self.inconsistent -= 1,
                XorUndo::AddedRow => {
                    let idx = self.xor_rows.len() - 1;
                    let row = self.xor_rows.pop().expect("row stack is non-empty");
                    self.gauss.pop();
                    for &v in &row.vars {
                        let popped = self.xor_occ[v].pop();
                        debug_assert_eq!(popped, Some(idx as u32));
                    }
                }
            }
        }
    }

    /// Reduces the constraint against the current Gaussian rows and installs
    /// the result (new pivot row, inconsistency, or nothing).
    fn insert_xor(&mut self, xor: &XorConstraint) -> XorUndo {
        for &v in &xor.vars {
            assert!(v < self.num_vars, "XOR variable out of range");
        }
        let mut bits = BitVec::zeros(self.num_vars);
        for &v in &xor.vars {
            bits.set(v, !bits.get(v));
        }
        let mut parity = xor.parity;
        for (i, (row, pivot)) in self.gauss.iter().enumerate() {
            if bits.get(*pivot) {
                bits.xor_assign(row);
                parity ^= self.xor_rows[i].parity;
            }
        }
        match bits.leading_one() {
            None => {
                if parity {
                    self.inconsistent += 1;
                    XorUndo::Inconsistent
                } else {
                    XorUndo::Redundant
                }
            }
            Some(pivot) => {
                let vars: Vec<usize> = bits.iter_ones().collect();
                let idx = self.xor_rows.len() as u32;
                for &v in &vars {
                    self.xor_occ[v].push(idx);
                }
                let unassigned = vars.len();
                self.xor_rows.push(XorRow {
                    vars,
                    parity,
                    unassigned,
                    acc: false,
                });
                self.gauss.push((bits, pivot));
                XorUndo::AddedRow
            }
        }
    }

    /// Checkpoint of the clause store.
    pub fn clause_mark(&self) -> ClauseMark {
        ClauseMark {
            clauses: self.clauses.len(),
            units: self.unit_lits.len(),
            empty: self.has_empty,
        }
    }

    /// Removes every clause added after the mark was taken.
    pub fn pop_clauses_to(&mut self, mark: ClauseMark) {
        debug_assert!(self.trail.is_empty(), "pops happen between solves");
        while self.clauses.len() > mark.clauses {
            let idx = (self.clauses.len() - 1) as u32;
            let clause = self.clauses.pop().expect("clause stack is non-empty");
            for &lit in &clause.lits[..2] {
                let list = &mut self.watches[lit_code(lit)];
                let pos = list
                    .iter()
                    .position(|&c| c == idx)
                    .expect("watched clause is registered");
                list.swap_remove(pos);
            }
        }
        self.unit_lits.truncate(mark.units);
        self.has_empty = mark.empty;
    }

    /// Adds a blocking clause excluding exactly the given total assignment.
    pub fn block_assignment(&mut self, assignment: &Assignment) {
        assert_eq!(assignment.len(), self.num_vars);
        let lits = (0..self.num_vars)
            .map(|v| {
                if assignment.get(v) {
                    Literal::negative(v)
                } else {
                    Literal::positive(v)
                }
            })
            .collect();
        self.add_clause(lits);
    }

    /// Decides satisfiability under the permanent constraints plus all pushed
    /// assumptions, returning a model if one exists.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_calls += 1;
        if self.has_empty || self.inconsistent > 0 {
            return SolveOutcome::Unsat;
        }
        debug_assert!(self.trail.is_empty() && self.qhead == 0);

        // Seed the propagation queue with unit clauses and unit XOR rows.
        let mut ok = true;
        for i in 0..self.unit_lits.len() {
            let lit = self.unit_lits[i];
            if !self.enqueue(lit.var(), lit.is_positive()) {
                ok = false;
                break;
            }
        }
        if ok {
            for i in 0..self.xor_rows.len() {
                if self.xor_rows[i].vars.len() == 1 {
                    let (v, parity) = (self.xor_rows[i].vars[0], self.xor_rows[i].parity);
                    if !self.enqueue(v, parity) {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if !ok {
            self.cancel_all();
            return SolveOutcome::Unsat;
        }

        loop {
            match self.propagate() {
                Propagation::Conflict => {
                    self.stats.conflicts += 1;
                    if !self.resolve_conflict() {
                        self.cancel_all();
                        return SolveOutcome::Unsat;
                    }
                }
                Propagation::NoConflict => {
                    match self.assigns.iter().position(|a| a.is_none()) {
                        None => {
                            let mut model = BitVec::zeros(self.num_vars);
                            for (v, value) in self.assigns.iter().enumerate() {
                                if value.expect("all variables are assigned") {
                                    model.set(v, true);
                                }
                            }
                            self.cancel_all();
                            debug_assert!(self.verify(&model));
                            return SolveOutcome::Sat(model);
                        }
                        Some(var) => {
                            // Decide: false first, true on backtrack.
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.decisions.push((var, false));
                            let enqueued = self.enqueue(var, false);
                            debug_assert!(enqueued, "decision variable was unassigned");
                        }
                    }
                }
            }
        }
    }

    /// Chronological backtracking: unwind to the deepest decision whose
    /// second phase is untried, flip it, and resume. Returns false when no
    /// such decision exists (conflict at the root).
    fn resolve_conflict(&mut self) -> bool {
        loop {
            match self.decisions.last().copied() {
                None => return false,
                Some((var, tried_both)) => {
                    let level_start = *self.trail_lim.last().expect("levels match decisions");
                    self.cancel_to(level_start);
                    if tried_both {
                        self.decisions.pop();
                        self.trail_lim.pop();
                    } else {
                        self.decisions.last_mut().expect("non-empty").1 = true;
                        let enqueued = self.enqueue(var, true);
                        debug_assert!(enqueued, "flipped decision variable was unassigned");
                        return true;
                    }
                }
            }
        }
    }

    /// Assigns `var := value`, updating the XOR counters. Returns false if
    /// the variable already holds the opposite value.
    #[inline]
    fn enqueue(&mut self, var: usize, value: bool) -> bool {
        match self.assigns[var] {
            Some(current) => current == value,
            None => {
                self.assigns[var] = Some(value);
                self.trail.push(var);
                for i in 0..self.xor_occ[var].len() {
                    let r = self.xor_occ[var][i] as usize;
                    let row = &mut self.xor_rows[r];
                    row.unassigned -= 1;
                    row.acc ^= value;
                }
                true
            }
        }
    }

    /// Unassigns trail entries down to `target`, restoring XOR counters.
    fn cancel_to(&mut self, target: usize) {
        while self.trail.len() > target {
            let var = self.trail.pop().expect("trail is non-empty");
            let value = self.assigns[var].expect("trail variables are assigned");
            for i in 0..self.xor_occ[var].len() {
                let r = self.xor_occ[var][i] as usize;
                let row = &mut self.xor_rows[r];
                row.unassigned += 1;
                row.acc ^= value;
            }
            self.assigns[var] = None;
        }
        self.qhead = self.trail.len().min(self.qhead).min(target);
    }

    /// Unwinds the entire search state (between `solve` calls).
    fn cancel_all(&mut self) {
        self.cancel_to(0);
        self.trail_lim.clear();
        self.decisions.clear();
        self.qhead = 0;
    }

    /// Propagates queued assignments to fixpoint over both constraint
    /// stores.
    fn propagate(&mut self) -> Propagation {
        while self.qhead < self.trail.len() {
            let var = self.trail[self.qhead];
            self.qhead += 1;
            let value = self.assigns[var].expect("queued variables are assigned");

            for i in 0..self.xor_occ[var].len() {
                let r = self.xor_occ[var][i] as usize;
                let (unassigned, acc, parity) = {
                    let row = &self.xor_rows[r];
                    (row.unassigned, row.acc, row.parity)
                };
                if unassigned == 0 {
                    if acc != parity {
                        return Propagation::Conflict;
                    }
                } else if unassigned == 1 {
                    let forced_var = *self.xor_rows[r]
                        .vars
                        .iter()
                        .find(|&&v| self.assigns[v].is_none())
                        .expect("exactly one variable is unassigned");
                    self.stats.propagations += 1;
                    if !self.enqueue(forced_var, acc ^ parity) {
                        return Propagation::Conflict;
                    }
                }
            }

            let false_lit = if value {
                Literal::negative(var)
            } else {
                Literal::positive(var)
            };
            let code = lit_code(false_lit);
            let mut i = 0;
            'clauses: while i < self.watches[code].len() {
                let ci = self.watches[code][i] as usize;
                let unit = {
                    let lits = &mut self.clauses[ci].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    let first = lits[0];
                    let satisfied = match self.assigns[first.var()] {
                        Some(v) => first.eval(v),
                        None => false,
                    };
                    if satisfied {
                        i += 1;
                        continue 'clauses;
                    }
                    let mut replaced = false;
                    for k in 2..lits.len() {
                        let cand = lits[k];
                        let non_false = match self.assigns[cand.var()] {
                            Some(v) => cand.eval(v),
                            None => true,
                        };
                        if non_false {
                            lits.swap(1, k);
                            self.watches[lit_code(cand)].push(ci as u32);
                            self.watches[code].swap_remove(i);
                            replaced = true;
                            break;
                        }
                    }
                    if replaced {
                        continue 'clauses;
                    }
                    i += 1;
                    first
                };
                match self.assigns[unit.var()] {
                    Some(v) => {
                        debug_assert!(!unit.eval(v));
                        return Propagation::Conflict;
                    }
                    None => {
                        self.stats.propagations += 1;
                        if !self.enqueue(unit.var(), unit.is_positive()) {
                            return Propagation::Conflict;
                        }
                    }
                }
            }
        }
        Propagation::NoConflict
    }

    /// Enumerates up to `limit` distinct solutions. Blocking clauses are
    /// added behind a clause mark and removed afterwards, leaving `self`
    /// unchanged apart from the call counter.
    pub fn enumerate(&mut self, limit: usize) -> Vec<Assignment> {
        self.enumerate_excluding(&[], limit)
    }

    /// Enumerates up to `limit` distinct solutions outside `known`, which
    /// are blocked behind the same clause mark as the solutions found.
    pub fn enumerate_excluding(&mut self, known: &[Assignment], limit: usize) -> Vec<Assignment> {
        let mark = self.clause_mark();
        for model in known {
            self.block_assignment(model);
        }
        let mut out = Vec::new();
        while out.len() < limit {
            match self.solve() {
                SolveOutcome::Sat(model) => {
                    self.block_assignment(&model);
                    out.push(model);
                }
                SolveOutcome::Unsat => break,
            }
        }
        self.pop_clauses_to(mark);
        out
    }

    /// Checks a model against all clauses and active XOR rows.
    pub fn verify(&self, model: &Assignment) -> bool {
        if self.has_empty || self.inconsistent > 0 {
            return false;
        }
        let units_ok = self.unit_lits.iter().all(|l| l.eval(model.get(l.var())));
        let clauses_ok = self
            .clauses
            .iter()
            .all(|clause| clause.lits.iter().any(|l| l.eval(model.get(l.var()))));
        let xors_ok = self
            .xor_rows
            .iter()
            .all(|row| row.vars.iter().fold(false, |p, &v| p ^ model.get(v)) == row.parity);
        units_ok && clauses_ok && xors_ok
    }
}

impl SolverCore for ChronoSolver {
    fn from_cnf(formula: &CnfFormula) -> Self {
        ChronoSolver::from_cnf(formula)
    }
    fn assumption_len(&self) -> usize {
        ChronoSolver::assumption_len(self)
    }
    fn push_assumption(&mut self, xor: &XorConstraint) {
        ChronoSolver::push_assumption(self, xor);
    }
    fn pop_assumptions_to(&mut self, len: usize) {
        ChronoSolver::pop_assumptions_to(self, len);
    }
    fn solve(&mut self) -> SolveOutcome {
        ChronoSolver::solve(self)
    }
    fn enumerate_excluding(&mut self, known: &[Assignment], limit: usize) -> Vec<Assignment> {
        ChronoSolver::enumerate_excluding(self, known, limit)
    }
    fn solve_calls(&self) -> u64 {
        ChronoSolver::solve_calls(self)
    }
    fn stats(&self) -> SolverStats {
        ChronoSolver::stats(self)
    }
}
