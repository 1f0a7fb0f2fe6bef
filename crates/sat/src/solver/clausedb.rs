//! The clause arena: original (truncatable) clauses and the learned-clause
//! database with LBD / activity bookkeeping.
//!
//! Original clauses are append-only and removed by truncation
//! (`pop_clauses_to`), so the scratch blocking clauses of `enumerate` keep a
//! cheap push/pop discipline. Learned clauses live in a separate arena addressed through
//! the high bit of [`ClauseRef`]; they carry an LBD score, an EVSIDS-style
//! activity, and the derivation [`Deps`] that ground them in the poppable
//! stores.

use super::lit_code;
use mcf0_formula::Literal;

/// Derivation dependencies of a learned clause: the minimum lengths the
/// poppable stores must keep for the derivation to remain grounded. Each
/// field is `max index used + 1` (`0` = no dependency), so a value is valid
/// iff every store is still at least that long. Joining is element-wise max;
/// dependencies on other *learned* clauses fold in those clauses' deps
/// instead (learned clauses may be deleted freely — whatever implied them is
/// still present).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct Deps {
    /// Required length of the original-clause store.
    pub clause: u32,
    /// Required length of the unit-literal store.
    pub unit: u32,
    /// Required length of the XOR row store.
    pub xor: u32,
}

impl Deps {
    /// Element-wise max with another dependency record.
    #[inline]
    pub fn join(&mut self, other: Deps) {
        self.clause = self.clause.max(other.clause);
        self.unit = self.unit.max(other.unit);
        self.xor = self.xor.max(other.xor);
    }

    /// Is the derivation still grounded given the current store lengths?
    #[inline]
    pub fn valid(self, orig_len: u32, unit_len: u32, row_len: u32) -> bool {
        self.clause <= orig_len && self.unit <= unit_len && self.xor <= row_len
    }
}

/// Reference into the clause arena: original index, or learned index with
/// the high bit set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct ClauseRef(u32);

const LEARNED_BIT: u32 = 1 << 31;

impl ClauseRef {
    #[inline]
    pub fn orig(index: usize) -> Self {
        debug_assert!((index as u32) < LEARNED_BIT);
        ClauseRef(index as u32)
    }
    #[inline]
    pub fn learned(index: usize) -> Self {
        debug_assert!((index as u32) < LEARNED_BIT);
        ClauseRef(index as u32 | LEARNED_BIT)
    }
    #[inline]
    pub fn is_learned(self) -> bool {
        self.0 & LEARNED_BIT != 0
    }
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & !LEARNED_BIT) as usize
    }
}

/// A learned clause: literals (positions 0 and 1 watched), LBD at learn
/// time, activity, and derivation dependencies.
#[derive(Clone, Debug)]
pub(super) struct LearnedClause {
    pub lits: Vec<Literal>,
    pub lbd: u32,
    pub activity: f64,
    pub deps: Deps,
}

/// The two-arena clause store plus watch lists.
#[derive(Clone, Debug)]
pub(super) struct ClauseDb {
    pub orig: Vec<Vec<Literal>>,
    pub learned: Vec<LearnedClause>,
    pub watches: Vec<Vec<ClauseRef>>,
    /// Join of every learned clause's deps (fast path for pop purges).
    pub agg_deps: Deps,
    /// Learned-DB size target; grows geometrically at restarts.
    pub max_learnts: f64,
    cla_inc: f64,
}

const CLA_RESCALE: f64 = 1e20;
const CLA_DECAY: f64 = 0.999;

impl ClauseDb {
    pub fn new(num_vars: usize) -> Self {
        ClauseDb {
            orig: Vec::new(),
            learned: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            agg_deps: Deps::default(),
            max_learnts: 256.0,
            cla_inc: 1.0,
        }
    }

    /// The literals of a clause.
    #[inline]
    pub fn lits(&self, cr: ClauseRef) -> &[Literal] {
        if cr.is_learned() {
            &self.learned[cr.index()].lits
        } else {
            &self.orig[cr.index()]
        }
    }

    /// Appends an original clause of length ≥ 2 and registers its watches.
    pub fn add_orig(&mut self, lits: Vec<Literal>) {
        debug_assert!(lits.len() >= 2);
        let cr = ClauseRef::orig(self.orig.len());
        self.watches[lit_code(lits[0])].push(cr);
        self.watches[lit_code(lits[1])].push(cr);
        self.orig.push(lits);
    }

    /// Truncates the original store to `len`, dropping watch registrations
    /// of the removed clauses.
    pub fn pop_orig_to(&mut self, len: usize) {
        while self.orig.len() > len {
            let cr = ClauseRef::orig(self.orig.len() - 1);
            let clause = self.orig.pop().expect("clause stack is non-empty");
            for &lit in &clause[..2] {
                let list = &mut self.watches[lit_code(lit)];
                let pos = list
                    .iter()
                    .position(|&c| c == cr)
                    .expect("watched clause is registered");
                list.swap_remove(pos);
            }
        }
    }

    /// Installs a learned clause (length ≥ 2, positions 0/1 watched) with an
    /// initial activity bump, and returns its reference.
    pub fn add_learned(&mut self, lits: Vec<Literal>, lbd: u32, deps: Deps) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cr = ClauseRef::learned(self.learned.len());
        self.watches[lit_code(lits[0])].push(cr);
        self.watches[lit_code(lits[1])].push(cr);
        self.agg_deps.join(deps);
        self.learned.push(LearnedClause {
            lits,
            lbd,
            activity: 0.0,
            deps,
        });
        self.bump_clause(cr.index());
        cr
    }

    /// Bumps a learned clause's activity, rescaling the whole DB on
    /// overflow.
    pub fn bump_clause(&mut self, index: usize) {
        self.learned[index].activity += self.cla_inc;
        if self.learned[index].activity > CLA_RESCALE {
            for c in &mut self.learned {
                c.activity /= CLA_RESCALE;
            }
            self.cla_inc /= CLA_RESCALE;
        }
    }

    /// Decays clause activities (by inflating the increment).
    pub fn decay_clauses(&mut self) {
        self.cla_inc /= CLA_DECAY;
    }

    /// Recomputes the aggregate dependency join after a purge/compaction.
    pub fn recompute_agg(&mut self) {
        let mut agg = Deps::default();
        for c in &self.learned {
            agg.join(c.deps);
        }
        self.agg_deps = agg;
    }
}
