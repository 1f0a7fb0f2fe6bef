//! First-UIP conflict analysis with XOR reason extraction and derivation
//! dependency tracking.
//!
//! The analysis is the classical trail-walk resolution: starting from the
//! falsified constraint, repeatedly resolve on the most recently assigned
//! seen variable of the conflicting decision level until exactly one such
//! variable remains — the first unique implication point. Two departures
//! from the textbook CNF version:
//!
//! * **XOR reasons.** When the resolved variable (or the conflict itself)
//!   came from Gauss–Jordan propagation, the implied clause is read off the
//!   combined row the reason arena recorded: for a row `⊕ vars = parity`
//!   that forced `f`, the clause is `lit(f) ∨ ⋁_{v ≠ f} (v ≠ value_v)` —
//!   every other variable of the row is still assigned (it was assigned
//!   when the row fired and nothing between then and the conflict unassigns
//!   it), so the reason literals are exactly the negations of their current
//!   values. A `0 = 1` row yields the conflict clause `⋁_v (v ≠ value_v)`
//!   the same way. Hash rows thereby participate in clause learning like
//!   ordinary clauses.
//! * **Dependency folding.** Every constraint resolved on contributes its
//!   poppable-store dependency (original clause index, unit index, the
//!   deepest XOR row of a combined row, or — for learned clauses — their
//!   recorded deps), and skipped level-0 literals contribute the transitive
//!   deps of their level-0 derivation (`var_deps`, computed at enqueue
//!   time). The join is stored with the learned clause so assumption/clause
//!   pops can purge exactly the clauses whose derivations they invalidate.

use super::clausedb::Deps;
use super::engine::{Conflict, Reason};
use super::CnfXorSolver;
use mcf0_formula::Literal;

impl CnfXorSolver {
    /// Analyzes a conflict at decision level ≥ 1. Returns the learned
    /// clause (asserting literal first, a deepest-level literal second), the
    /// backjump level, the derivation deps, and the LBD.
    pub(super) fn analyze(&mut self, conflict: Conflict) -> (Vec<Literal>, usize, Deps, u32) {
        let cur_level = self.trail_lim.len() as u32;
        debug_assert!(cur_level > 0);
        let mut learnt: Vec<Literal> = vec![Literal::positive(0)]; // slot 0: asserting literal
        let mut deps = Deps::default();
        let mut path_count = 0usize;
        let mut index = self.trail.len();
        let mut source = conflict;
        let mut resolve_var = usize::MAX;
        let mut buf: Vec<Literal> = Vec::new();

        loop {
            deps.join(self.source_deps(source));
            if let Conflict::Clause(cr) = source {
                if cr.is_learned() {
                    self.db.bump_clause(cr.index());
                }
            }
            self.source_literals(source, resolve_var, &mut buf);
            for &q in &buf {
                let v = q.var();
                if self.seen[v] {
                    continue;
                }
                self.seen[v] = true;
                self.to_clear.push(v);
                let lvl = self.var_level[v];
                if lvl == 0 {
                    // Implicit resolution with the level-0 derivation of v.
                    let d = self.var_deps[v];
                    deps.join(d);
                    continue;
                }
                self.order.bump(v);
                if lvl == cur_level {
                    path_count += 1;
                } else {
                    learnt.push(q);
                }
            }

            // The current-level variables form the trail suffix, so scanning
            // backwards hits the most recently assigned seen one first.
            loop {
                index -= 1;
                let v = self.trail[index];
                if self.seen[v] && self.var_level[v] == cur_level {
                    break;
                }
            }
            let v = self.trail[index];
            path_count -= 1;
            if path_count == 0 {
                // v is the first UIP: its negation asserts at the backjump
                // level.
                let value = self.assigns[v].expect("trail variables are assigned");
                learnt[0] = if value {
                    Literal::negative(v)
                } else {
                    Literal::positive(v)
                };
                break;
            }
            resolve_var = v;
            source = match self.reason[v] {
                Reason::Clause(cr) => Conflict::Clause(cr),
                Reason::Xor(r) => Conflict::Xor(r),
                Reason::Decision | Reason::Unit(_) | Reason::LearnedUnit(_) => {
                    unreachable!("resolved variables are implied at their level")
                }
            };
        }

        // Backjump level: deepest level among the non-asserting literals
        // (swapped into position 1 so it can be watched).
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.var_level[learnt[i].var()] > self.var_level[learnt[max_i].var()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.var_level[learnt[1].var()] as usize
        };

        // LBD: number of distinct decision levels among the clause literals.
        let mut levels: Vec<u32> = learnt.iter().map(|l| self.var_level[l.var()]).collect();
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;

        for &v in &self.to_clear {
            self.seen[v] = false;
        }
        self.to_clear.clear();

        (learnt, backjump, deps, lbd)
    }

    /// The poppable-store dependency contributed by resolving on a conflict
    /// source.
    fn source_deps(&self, source: Conflict) -> Deps {
        match source {
            Conflict::Clause(cr) => self.reason_base_deps(Reason::Clause(cr)),
            Conflict::Xor(r) => self.reason_base_deps(Reason::Xor(r)),
        }
    }

    /// Collects the literals of a conflict source into `buf`, skipping the
    /// variable currently being resolved (for reasons) — for an XOR source
    /// the implied-clause literals are extracted from the row's variables
    /// and their current assignments.
    fn source_literals(&self, source: Conflict, resolve_var: usize, buf: &mut Vec<Literal>) {
        buf.clear();
        match source {
            Conflict::Clause(cr) => {
                for &q in self.db.lits(cr) {
                    if q.var() != resolve_var {
                        buf.push(q);
                    }
                }
            }
            Conflict::Xor(k) => {
                for &v in self.xors.reason_vars(k) {
                    let v = v as usize;
                    if v == resolve_var {
                        continue;
                    }
                    let value =
                        self.assigns[v].expect("every other variable of a fired row is assigned");
                    buf.push(if value {
                        Literal::negative(v)
                    } else {
                        Literal::positive(v)
                    });
                }
            }
        }
    }
}
