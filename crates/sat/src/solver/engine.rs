//! The CDCL search loop: propagation over both constraint stores, decisions,
//! non-chronological backjumping, restarts, learned-clause installation and
//! database maintenance, plus the incremental clause-store API
//! (`add_clause`, `clause_mark` / `pop_clauses_to`) and the resumed model
//! enumeration (`enumerate_excluding`).

use super::clausedb::{ClauseRef, Deps};
use super::restart::restart_budget;
use super::{lit_code, ClauseMark, CnfXorSolver, SolveOutcome};
use mcf0_formula::{Assignment, Literal};
use mcf0_gf2::BitVec;

/// Why a variable holds its value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Reason {
    /// Branching decision (also the placeholder for unassigned variables).
    Decision,
    /// Propagated by a clause (original or learned).
    Clause(ClauseRef),
    /// Forced by a combined XOR row (an index into the parity store's
    /// reason arena).
    Xor(u32),
    /// Seeded from an original unit clause.
    Unit(u32),
    /// Seeded from a learned unit clause.
    LearnedUnit(u32),
}

/// A falsified constraint discovered by propagation.
#[derive(Clone, Copy, Debug)]
pub(super) enum Conflict {
    Clause(ClauseRef),
    Xor(u32),
}

impl CnfXorSolver {
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
            _ => self.db.add_orig(literals),
        }
    }

    /// Checkpoint of the clause store; clauses added afterwards (blocking
    /// clauses, scratch constraints) are removed by
    /// [`Self::pop_clauses_to`].
    pub fn clause_mark(&self) -> ClauseMark {
        ClauseMark {
            clauses: self.db.orig.len(),
            units: self.unit_lits.len(),
            empty: self.has_empty,
        }
    }

    /// Removes every clause added after the mark was taken. Learned clauses
    /// whose derivation resolved on a removed clause are purged with it.
    pub fn pop_clauses_to(&mut self, mark: ClauseMark) {
        debug_assert!(self.trail.is_empty(), "pops happen between solves");
        self.db.pop_orig_to(mark.clauses);
        self.unit_lits.truncate(mark.units);
        self.has_empty = mark.empty;
        self.purge_invalid_learned();
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
    /// assumptions, returning a model if one exists. The search trail is
    /// fully unwound before returning, so constraints can be pushed or popped
    /// freely between calls; learned clauses persist.
    pub fn solve(&mut self) -> SolveOutcome {
        if !self.start() || !self.search() {
            return SolveOutcome::Unsat;
        }
        let model = self.model();
        self.cancel_all();
        SolveOutcome::Sat(model)
    }

    /// Opens a search: counts one solve call and seeds the level-0 facts.
    /// Returns false (with the trail unwound) if the store is already
    /// contradictory.
    fn start(&mut self) -> bool {
        self.solve_calls += 1;
        if self.has_empty || self.xors.inconsistent > 0 {
            return false;
        }
        debug_assert!(self.trail.is_empty() && self.qhead == 0 && self.xhead == 0);
        if !self.seed_level0() {
            self.cancel_all();
            return false;
        }
        true
    }

    /// Runs the CDCL loop from the current trail. Returns true with every
    /// variable assigned (the trail is kept, so the caller can read the model
    /// and resume), or false with the trail unwound on UNSAT.
    fn search(&mut self) -> bool {
        let mut restarts_this_call = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = restart_budget(restarts_this_call);

        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.trail_lim.is_empty() {
                        // Conflict under the level-0 facts alone: UNSAT in
                        // the current incremental context.
                        self.cancel_all();
                        return false;
                    }
                    let (learnt, backjump, deps, lbd) = self.analyze(conflict);
                    self.backtrack(backjump);
                    if !self.record_learned(learnt, deps, lbd) {
                        self.cancel_all();
                        return false;
                    }
                    self.order.decay();
                    self.db.decay_clauses();
                    if self.db.learned.len() as f64 >= self.db.max_learnts + self.trail.len() as f64
                    {
                        self.reduce_db();
                    }
                }
                None => {
                    if conflicts_since_restart >= restart_limit {
                        self.stats.restarts += 1;
                        restarts_this_call += 1;
                        conflicts_since_restart = 0;
                        restart_limit = restart_budget(restarts_this_call);
                        self.db.max_learnts *= 1.1;
                        if !self.trail_lim.is_empty() {
                            self.backtrack(0);
                        }
                        continue;
                    }
                    if self.trail.len() == self.num_vars {
                        return true;
                    }
                    // Decide: most active unassigned variable, saved phase.
                    self.stats.decisions += 1;
                    let var = self
                        .order
                        .pick(&self.assigns)
                        .expect("an unassigned variable exists");
                    let phase = self.order.phase[var];
                    self.trail_lim.push(self.trail.len());
                    self.xors.new_level();
                    let enqueued = self.enqueue(var, phase, Reason::Decision);
                    debug_assert!(enqueued, "decision variable was unassigned");
                }
            }
        }
    }

    /// The total assignment on the trail after a successful [`Self::search`].
    fn model(&self) -> Assignment {
        let mut model = BitVec::zeros(self.num_vars);
        for (v, value) in self.assigns.iter().enumerate() {
            if value.expect("all variables are assigned") {
                model.set(v, true);
            }
        }
        debug_assert!(self.verify(&model));
        model
    }

    /// Seeds the level-0 queue from single-column XOR rows, unit clauses
    /// and learned units. Returns false on an immediate contradiction.
    fn seed_level0(&mut self) -> bool {
        self.xors.prepare();
        for i in 0..self.xors.forced.len() {
            let (var, value, k) = self.xors.forced[i];
            let enqueued = self.enqueue(var, value, Reason::Xor(k));
            debug_assert!(enqueued, "single-column rows have distinct columns");
        }
        for i in 0..self.unit_lits.len() {
            let lit = self.unit_lits[i];
            if !self.enqueue(lit.var(), lit.is_positive(), Reason::Unit(i as u32)) {
                return false;
            }
        }
        for i in 0..self.learned_units.len() {
            let lit = self.learned_units[i].0;
            if !self.enqueue(lit.var(), lit.is_positive(), Reason::LearnedUnit(i as u32)) {
                return false;
            }
        }
        true
    }

    /// Installs a freshly learned clause (already backjumped to its
    /// asserting level) and enqueues the asserting literal. Returns false if
    /// the asserting literal is contradicted at level 0 (UNSAT).
    fn record_learned(&mut self, learnt: Vec<Literal>, deps: Deps, lbd: u32) -> bool {
        self.stats.learned_clauses += 1;
        self.stats.learned_literals += learnt.len() as u64;
        let asserting = learnt[0];
        if learnt.len() == 1 {
            let idx = self.learned_units.len() as u32;
            self.learned_units.push((asserting, deps));
            self.units_agg.join(deps);
            self.enqueue(
                asserting.var(),
                asserting.is_positive(),
                Reason::LearnedUnit(idx),
            )
        } else {
            let cr = self.db.add_learned(learnt, lbd, deps);
            let enqueued =
                self.enqueue(asserting.var(), asserting.is_positive(), Reason::Clause(cr));
            debug_assert!(enqueued, "asserting literal is unassigned after backjump");
            enqueued
        }
    }

    /// Assigns `var := value` with the given reason, updating the parity
    /// store's masks (and, at level 0, the variable's derivation deps). Returns
    /// false if the variable already holds the opposite value.
    #[inline]
    pub(super) fn enqueue(&mut self, var: usize, value: bool, reason: Reason) -> bool {
        match self.assigns[var] {
            Some(current) => current == value,
            None => {
                if self.trail_lim.is_empty() {
                    self.var_deps[var] = self.level0_deps(var, reason);
                }
                self.assigns[var] = Some(value);
                self.var_level[var] = self.trail_lim.len() as u32;
                self.reason[var] = reason;
                self.trail.push(var);
                self.xors.assign(var, value);
                true
            }
        }
    }

    /// Derivation deps of a level-0 implied variable: the reason's own deps
    /// joined with the (already computed) deps of every other variable the
    /// reason mentions — all of which are level-0 and assigned earlier.
    fn level0_deps(&self, var: usize, reason: Reason) -> Deps {
        let mut deps = self.reason_base_deps(reason);
        match reason {
            Reason::Clause(cr) => {
                for &q in self.db.lits(cr) {
                    if q.var() != var {
                        deps.join(self.var_deps[q.var()]);
                    }
                }
            }
            Reason::Xor(k) => {
                for &u in self.xors.reason_vars(k) {
                    if u as usize != var {
                        deps.join(self.var_deps[u as usize]);
                    }
                }
            }
            Reason::Decision | Reason::Unit(_) | Reason::LearnedUnit(_) => {}
        }
        deps
    }

    /// The poppable-store dependencies contributed by resolving on a reason.
    pub(super) fn reason_base_deps(&self, reason: Reason) -> Deps {
        match reason {
            Reason::Decision => Deps::default(),
            Reason::Unit(i) => Deps {
                unit: i + 1,
                ..Deps::default()
            },
            Reason::LearnedUnit(i) => self.learned_units[i as usize].1,
            Reason::Clause(cr) => {
                if cr.is_learned() {
                    self.db.learned[cr.index()].deps
                } else {
                    Deps {
                        clause: cr.index() as u32 + 1,
                        ..Deps::default()
                    }
                }
            }
            Reason::Xor(k) => Deps {
                xor: self.xors.reason_dep(k),
                ..Deps::default()
            },
        }
    }

    /// Unassigns trail entries down to `target`, clearing them from the
    /// parity masks, saving phases, and re-inserting variables into the
    /// decision heap.
    fn cancel_to(&mut self, target: usize) {
        while self.trail.len() > target {
            let var = self.trail.pop().expect("trail is non-empty");
            let value = self.assigns[var].expect("trail variables are assigned");
            self.xors.unassign(var);
            self.assigns[var] = None;
            self.order.phase[var] = value;
            self.order.insert(var);
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    /// Non-chronological backtrack to the given decision level.
    pub(super) fn backtrack(&mut self, level: usize) {
        debug_assert!(level < self.trail_lim.len());
        let target = self.trail_lim[level];
        self.cancel_to(target);
        self.trail_lim.truncate(level);
        self.xors.backtrack(level);
        // Everything still on the trail was fully propagated before the
        // removed levels existed.
        self.qhead = self.trail.len();
        self.xhead = self.qhead;
    }

    /// Unwinds the entire search state (between `solve` calls).
    fn cancel_all(&mut self) {
        self.cancel_to(0);
        self.trail_lim.clear();
        self.xors.clear_reasons();
        self.qhead = 0;
        self.xhead = 0;
    }

    /// Propagates queued assignments to fixpoint over both constraint
    /// stores, returning the first falsified constraint. Clause propagation
    /// runs to its own fixpoint first; then the live XOR rows take in the
    /// trail entries from `xhead` on and find every literal the rows imply,
    /// and anything they force goes back through the clauses.
    pub(super) fn propagate(&mut self) -> Option<Conflict> {
        loop {
            if let Some(conflict) = self.propagate_clauses() {
                return Some(conflict);
            }
            let conflict = self.xors.propagate(&self.trail[self.xhead..]);
            self.xhead = self.trail.len();
            // Forced literals are enqueued even before a conflict: the
            // conflict row may use them.
            for i in 0..self.xors.forced.len() {
                let (var, value, k) = self.xors.forced[i];
                self.stats.propagations += 1;
                let enqueued = self.enqueue(var, value, Reason::Xor(k));
                debug_assert!(enqueued, "the forced variable was unassigned");
            }
            if let Some(k) = conflict {
                return Some(Conflict::Xor(k));
            }
            if self.xors.forced.is_empty() {
                return None;
            }
        }
    }

    /// Two-watched-literal unit propagation of the queued assignments,
    /// returning the first falsified clause.
    fn propagate_clauses(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let var = self.trail[self.qhead];
            self.qhead += 1;
            let value = self.assigns[var].expect("queued variables are assigned");

            // Visit only clauses watching the literal that just became false.
            let false_lit = if value {
                Literal::negative(var)
            } else {
                Literal::positive(var)
            };
            let code = lit_code(false_lit);
            let mut i = 0;
            'clauses: while i < self.db.watches[code].len() {
                let cr = self.db.watches[code][i];
                let unit = {
                    let lits: &mut Vec<Literal> = if cr.is_learned() {
                        &mut self.db.learned[cr.index()].lits
                    } else {
                        &mut self.db.orig[cr.index()]
                    };
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
                    // Look for a non-false literal to watch instead.
                    let mut replacement = None;
                    for k in 2..lits.len() {
                        let cand = lits[k];
                        let non_false = match self.assigns[cand.var()] {
                            Some(v) => cand.eval(v),
                            None => true,
                        };
                        if non_false {
                            lits.swap(1, k);
                            replacement = Some(cand);
                            break;
                        }
                    }
                    match replacement {
                        Some(cand) => {
                            self.db.watches[lit_code(cand)].push(cr);
                            self.db.watches[code].swap_remove(i);
                            continue 'clauses;
                        }
                        None => {
                            // No replacement: `first` is unit (or the clause
                            // is falsified). Keep watching `false_lit`.
                            i += 1;
                            first
                        }
                    }
                };
                match self.assigns[unit.var()] {
                    Some(v) => {
                        debug_assert!(!unit.eval(v));
                        return Some(Conflict::Clause(cr));
                    }
                    None => {
                        self.stats.propagations += 1;
                        let enqueued =
                            self.enqueue(unit.var(), unit.is_positive(), Reason::Clause(cr));
                        debug_assert!(enqueued, "the unit literal was unassigned");
                    }
                }
            }
        }
        None
    }

    /// Learned-clause database reduction: drop the worst half of the
    /// removable clauses (never locked reasons, never LBD ≤ 2), worst =
    /// highest LBD then lowest activity.
    fn reduce_db(&mut self) {
        let n = self.db.learned.len();
        let mut locked = vec![false; n];
        for &v in &self.trail {
            if let Reason::Clause(cr) = self.reason[v] {
                if cr.is_learned() {
                    locked[cr.index()] = true;
                }
            }
        }
        let mut removable: Vec<usize> = (0..n)
            .filter(|&i| !locked[i] && self.db.learned[i].lbd > 2)
            .collect();
        removable.sort_by(|&a, &b| {
            let ca = &self.db.learned[a];
            let cb = &self.db.learned[b];
            cb.lbd
                .cmp(&ca.lbd)
                .then(
                    ca.activity
                        .partial_cmp(&cb.activity)
                        .expect("activities are never NaN"),
                )
                .then(a.cmp(&b))
        });
        let remove = removable.len() / 2;
        if remove == 0 {
            // Nothing reducible; loosen the budget so the trigger does not
            // fire on every conflict.
            self.db.max_learnts *= 1.1;
            return;
        }
        let mut keep = vec![true; n];
        for &i in removable.iter().take(remove) {
            keep[i] = false;
        }
        self.stats.deleted_clauses += remove as u64;
        self.compact_learned(&keep);
    }

    /// Removes learned clauses not marked `keep`, remapping watch lists and
    /// any trail reasons pointing into the learned arena.
    fn compact_learned(&mut self, keep: &[bool]) {
        let mut remap: Vec<u32> = vec![u32::MAX; keep.len()];
        let mut kept = Vec::with_capacity(keep.len());
        for (i, k) in keep.iter().enumerate() {
            if *k {
                remap[i] = kept.len() as u32;
                kept.push(std::mem::replace(
                    &mut self.db.learned[i],
                    super::clausedb::LearnedClause {
                        lits: Vec::new(),
                        lbd: 0,
                        activity: 0.0,
                        deps: Deps::default(),
                    },
                ));
            }
        }
        self.db.learned = kept;
        for list in &mut self.db.watches {
            list.retain(|cr| !cr.is_learned());
        }
        for idx in 0..self.db.learned.len() {
            let (l0, l1) = {
                let lits = &self.db.learned[idx].lits;
                (lits[0], lits[1])
            };
            let cr = ClauseRef::learned(idx);
            self.db.watches[lit_code(l0)].push(cr);
            self.db.watches[lit_code(l1)].push(cr);
        }
        for &v in &self.trail {
            if let Reason::Clause(cr) = self.reason[v] {
                if cr.is_learned() {
                    let new = remap[cr.index()];
                    debug_assert_ne!(new, u32::MAX, "locked clauses are kept");
                    self.reason[v] = Reason::Clause(ClauseRef::learned(new as usize));
                }
            }
        }
        self.db.recompute_agg();
    }

    /// Purges learned clauses (and learned units) whose derivations are no
    /// longer grounded in the current poppable stores. Called after every
    /// assumption or clause pop; the aggregate-deps fast path makes the
    /// common no-op case O(1).
    pub(super) fn purge_invalid_learned(&mut self) {
        debug_assert!(self.trail.is_empty(), "purges happen between solves");
        let orig_len = self.db.orig.len() as u32;
        let unit_len = self.unit_lits.len() as u32;
        let row_len = self.xors.len() as u32;

        if !self.learned_units.is_empty() && !self.units_agg.valid(orig_len, unit_len, row_len) {
            let before = self.learned_units.len();
            self.learned_units
                .retain(|&(_, deps)| deps.valid(orig_len, unit_len, row_len));
            self.stats.purged_clauses += (before - self.learned_units.len()) as u64;
            let mut agg = Deps::default();
            for &(_, deps) in &self.learned_units {
                agg.join(deps);
            }
            self.units_agg = agg;
        }

        if !self.db.learned.is_empty() && !self.db.agg_deps.valid(orig_len, unit_len, row_len) {
            let keep: Vec<bool> = self
                .db
                .learned
                .iter()
                .map(|c| c.deps.valid(orig_len, unit_len, row_len))
                .collect();
            let removed = keep.iter().filter(|k| !**k).count();
            if removed > 0 {
                self.stats.purged_clauses += removed as u64;
                self.compact_learned(&keep);
            }
        }
    }

    /// Enumerates up to `limit` distinct solutions. Blocking clauses are
    /// added behind a clause mark and removed afterwards, leaving `self`
    /// logically unchanged apart from the call counters (and any learned
    /// clauses that do not depend on the blocking clauses).
    pub fn enumerate(&mut self, limit: usize) -> Vec<Assignment> {
        self.enumerate_excluding(&[], limit)
    }

    /// Enumerates up to `limit` distinct solutions outside `known`: every
    /// known assignment is blocked behind the same clause mark as the
    /// solutions found, so the search starts past them.
    ///
    /// The search is resumed, not restarted, after each model: the model is
    /// blocked by the negation of its decisions (propagation fixes the rest),
    /// the search backjumps one level and flips the deepest decision with
    /// that clause as its reason. A model with no decision is the last one.
    /// One solve call is counted per model plus one for a final UNSAT search.
    pub fn enumerate_excluding(&mut self, known: &[Assignment], limit: usize) -> Vec<Assignment> {
        let mark = self.clause_mark();
        for model in known {
            self.block_assignment(model);
        }
        let mut out = Vec::new();
        if limit > 0 && self.start() {
            while self.search() {
                out.push(self.model());
                if self.trail_lim.is_empty() || out.len() == limit {
                    self.cancel_all();
                    break;
                }
                self.block_decisions();
                self.solve_calls += 1;
            }
        }
        self.pop_clauses_to(mark);
        out
    }

    /// Adds the clause ¬d_k ∨ … ∨ ¬d_1 over the decisions of the current
    /// trail (deepest first, so the two deepest are watched), backjumps to
    /// level k − 1 and asserts ¬d_k with that clause as its reason. At
    /// k = 1 the clause is a unit and ¬d_1 is asserted at level 0.
    fn block_decisions(&mut self) {
        let k = self.trail_lim.len();
        let lits: Vec<Literal> = self
            .trail_lim
            .iter()
            .rev()
            .map(|&pos| {
                let var = self.trail[pos];
                if self.assigns[var] == Some(true) {
                    Literal::negative(var)
                } else {
                    Literal::positive(var)
                }
            })
            .collect();
        let flip = lits[0];
        self.backtrack(k - 1);
        let reason = if k == 1 {
            self.unit_lits.push(flip);
            Reason::Unit(self.unit_lits.len() as u32 - 1)
        } else {
            let cr = ClauseRef::orig(self.db.orig.len());
            self.db.add_orig(lits);
            Reason::Clause(cr)
        };
        let enqueued = self.enqueue(flip.var(), flip.is_positive(), reason);
        debug_assert!(enqueued, "the flipped decision was unassigned");
    }

    /// Checks a model against all clauses and active XOR rows (the reduced
    /// rows are an equivalent system to every constraint added or pushed).
    pub fn verify(&self, model: &Assignment) -> bool {
        if self.has_empty || self.xors.inconsistent > 0 {
            return false;
        }
        let units_ok = self.unit_lits.iter().all(|l| l.eval(model.get(l.var())));
        let clauses_ok = self
            .db
            .orig
            .iter()
            .all(|clause| clause.iter().any(|l| l.eval(model.get(l.var()))));
        let xors_ok = self
            .xors
            .rows()
            .all(|(vars, parity)| vars.fold(false, |p, v| p ^ model.get(v)) == parity);
        units_ok && clauses_ok && xors_ok
    }
}
