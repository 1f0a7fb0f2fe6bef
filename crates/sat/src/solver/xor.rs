//! The parity store: XOR rows as packed `u64` words, kept in echelon form by
//! incremental Gaussian elimination, and Gauss–Jordan propagation over the
//! columns the search has not assigned yet.
//!
//! Identical discipline to the chronological engine at insertion: every
//! added constraint is forward-reduced against the existing pivot rows once;
//! an inconsistent system is detected before any search; rows are only ever
//! appended, so popping assumptions is a truncation.
//!
//! During search the store keeps two bitmasks in step with the trail
//! (`assigned`, and `truth` for the variables assigned true). At every
//! clause-propagation fixpoint [`XorStore::propagate`] copies the rows and
//! eliminates them over the unassigned columns, folding each row's assigned
//! part into its right-hand side as `popcount(row & truth)`. In the reduced
//! system a `0 = 1` row is a conflict and a single-column row forces its
//! variable, and that is *complete*: a literal is implied by the active rows
//! under the current assignment exactly when some reduced row is that one
//! column. Each forced literal or conflict records the variables of its
//! combined row in a reason arena, which conflict analysis reads as an
//! implied clause; the arena lives for one `solve` and shrinks with
//! backtracking.

use super::{CnfXorSolver, XorConstraint};

/// Undo record for one pushed XOR constraint (assumption or permanent).
#[derive(Clone, Copy, Debug)]
pub(super) enum XorUndo {
    /// The constraint contributed a new reduced row (always the last one).
    AddedRow,
    /// The constraint reduced to `0 = 1`: it bumped the inconsistency count.
    Inconsistent,
    /// The constraint reduced to `0 = 0`: nothing to undo.
    Redundant,
}

/// One entry of the reason arena: a combined row that forced a literal or
/// went `0 = 1`.
#[derive(Clone, Copy, Debug)]
struct XorReason {
    /// End of its variables in `reason_vars` (the start is the previous
    /// entry's end).
    end: u32,
    /// `max(contributing row) + 1`: the row-store length the derivation
    /// needs.
    dep: u32,
}

/// The reduced XOR rows and their search-time propagation state.
#[derive(Clone, Debug)]
pub(super) struct XorStore {
    /// `u64` words per row: ⌈num_vars / 64⌉, variable `v` at bit `v % 64`
    /// of word `v / 64`.
    width: usize,
    /// The reduced rows, `width` words each, back to back. Each row is zero
    /// at the pivot of every earlier row.
    words: Vec<u64>,
    /// Right-hand side of each row.
    parity: Vec<bool>,
    /// Pivot column of each row.
    pivot: Vec<usize>,
    /// Number of `0 = 1` reductions currently active.
    pub inconsistent: u32,
    /// Undo records for pushed assumptions.
    pub undo: Vec<XorUndo>,

    /// The assigned variables, and those assigned true, in step with the
    /// trail (both zero between solves).
    assigned: Vec<u64>,
    truth: Vec<u64>,
    /// Reason arena: each recorded row's variables back to back, one entry
    /// per row, and the entry count at the start of each decision level.
    reason_vars: Vec<u32>,
    reasons: Vec<XorReason>,
    reason_lim: Vec<usize>,
    /// Elimination workspace: a copy of the rows, with each row's right-hand
    /// side and `max(contributing row) + 1`.
    work: Vec<u64>,
    work_rhs: Vec<(bool, u32)>,
    /// `(variable, value, reason)` for each literal the last
    /// [`XorStore::propagate`] forced.
    pub forced: Vec<(usize, bool, u32)>,
}

impl XorStore {
    pub fn new(num_vars: usize) -> Self {
        let width = num_vars.div_ceil(64);
        XorStore {
            width,
            words: Vec::new(),
            parity: Vec::new(),
            pivot: Vec::new(),
            inconsistent: 0,
            undo: Vec::new(),
            assigned: vec![0; width],
            truth: vec![0; width],
            reason_vars: Vec::new(),
            reasons: Vec::new(),
            reason_lim: Vec::new(),
            work: Vec::new(),
            work_rhs: Vec::new(),
            forced: Vec::new(),
        }
    }

    /// Number of reduced rows.
    pub fn len(&self) -> usize {
        self.parity.len()
    }

    /// The reduced rows as `(variables, parity)`.
    pub fn rows(&self) -> impl Iterator<Item = (impl Iterator<Item = usize> + '_, bool)> + '_ {
        self.words
            .chunks_exact(self.width.max(1))
            .zip(&self.parity)
            .map(|(row, &parity)| (ones(row), parity))
    }

    /// Reduces the constraint against the current rows and installs the
    /// result (new pivot row, inconsistency, or nothing).
    pub fn insert(&mut self, xor: &XorConstraint, num_vars: usize) -> XorUndo {
        let w = self.width;
        let mut row = vec![0u64; w];
        for &v in &xor.vars {
            assert!(v < num_vars, "XOR variable out of range");
            // Duplicates in a raw `vars` list cancel, matching XorConstraint
            // semantics even for hand-built constraints.
            row[v / 64] ^= 1 << (v % 64);
        }
        let mut parity = xor.parity;
        // Forward reduction: each existing row has zeros at the pivots of all
        // earlier rows, so one pass in insertion order fully clears the new
        // row's bits at every existing pivot.
        for (i, &p) in self.pivot.iter().enumerate() {
            if row[p / 64] >> (p % 64) & 1 == 1 {
                for (a, b) in row.iter_mut().zip(&self.words[i * w..(i + 1) * w]) {
                    *a ^= b;
                }
                parity ^= self.parity[i];
            }
        }
        match first_one(&row) {
            None if parity => {
                self.inconsistent += 1;
                XorUndo::Inconsistent
            }
            None => XorUndo::Redundant,
            Some(pivot) => {
                self.words.extend_from_slice(&row);
                self.parity.push(parity);
                self.pivot.push(pivot);
                XorUndo::AddedRow
            }
        }
    }

    /// Pops undo records until only the first `len` remain.
    pub fn pop_to(&mut self, len: usize) {
        while self.undo.len() > len {
            match self.undo.pop().expect("stack is non-empty") {
                XorUndo::Redundant => {}
                XorUndo::Inconsistent => self.inconsistent -= 1,
                XorUndo::AddedRow => {
                    self.parity.pop();
                    self.pivot.pop();
                    self.words.truncate(self.parity.len() * self.width);
                }
            }
        }
    }

    /// Records `var := value` in the search masks.
    #[inline]
    pub fn assign(&mut self, var: usize, value: bool) {
        let bit = 1u64 << (var % 64);
        self.assigned[var / 64] |= bit;
        if value {
            self.truth[var / 64] |= bit;
        }
    }

    /// Clears `var` from the search masks.
    #[inline]
    pub fn unassign(&mut self, var: usize) {
        let keep = !(1u64 << (var % 64));
        self.assigned[var / 64] &= keep;
        self.truth[var / 64] &= keep;
    }

    /// Opens a decision level in the reason arena.
    pub fn new_level(&mut self) {
        self.reason_lim.push(self.reasons.len());
    }

    /// Drops the reasons recorded above decision level `level`.
    pub fn backtrack(&mut self, level: usize) {
        let len = self.reason_lim[level];
        self.reason_lim.truncate(level);
        self.reasons.truncate(len);
        self.reason_vars
            .truncate(self.reasons.last().map_or(0, |r| r.end as usize));
    }

    /// Empties the reason arena (the trail is empty).
    pub fn clear_reasons(&mut self) {
        self.reason_lim.clear();
        self.reasons.clear();
        self.reason_vars.clear();
    }

    /// The variables of reason `k`'s combined row.
    pub fn reason_vars(&self, k: u32) -> &[u32] {
        let start = match k {
            0 => 0,
            _ => self.reasons[k as usize - 1].end as usize,
        };
        &self.reason_vars[start..self.reasons[k as usize].end as usize]
    }

    /// The row-store length reason `k`'s derivation needs.
    pub fn reason_dep(&self, k: u32) -> u32 {
        self.reasons[k as usize].dep
    }

    /// Gauss–Jordan elimination of the rows over the unassigned columns.
    /// Returns the reason index of a `0 = 1` combined row; otherwise fills
    /// [`Self::forced`] with every literal the rows imply under the current
    /// assignment.
    pub fn propagate(&mut self) -> Option<u32> {
        self.forced.clear();
        self.work.clear();
        self.work_rhs.clear();
        let w = self.width;
        // Copy the rows that still have an unassigned column, with the
        // assigned part folded into the right-hand side. A fully assigned
        // row cannot take part in elimination: it is satisfied, or `0 = 1`.
        for r in 0..self.parity.len() {
            let row = &self.words[r * w..(r + 1) * w];
            let rhs = self.parity[r] ^ odd_ones(row, &self.truth);
            self.work.extend_from_slice(row);
            self.work_rhs.push((rhs, r as u32 + 1));
            if first_open(row, &self.assigned).is_none() {
                if rhs {
                    return Some(self.record(self.work_rhs.len() - 1));
                }
                self.work.truncate(self.work.len() - w);
                self.work_rhs.pop();
            }
        }

        // Gauss–Jordan: each row in turn takes its first unassigned column
        // as pivot and clears it from every other row. A row whose
        // unassigned part cancelled out on the way is `0 = 0` or `0 = 1`.
        for r in 0..self.work_rhs.len() {
            let Some(col) = first_open(&self.work[r * w..(r + 1) * w], &self.assigned) else {
                if self.work_rhs[r].0 {
                    return Some(self.record(r));
                }
                continue;
            };
            let (word, bit) = (col / 64, 1u64 << (col % 64));
            let (head, rest) = self.work.split_at_mut(r * w);
            let (pivot, tail) = rest.split_at_mut(w);
            let (rhs_head, rhs_rest) = self.work_rhs.split_at_mut(r);
            let ((rhs, dep), rhs_tail) = rhs_rest.split_first_mut().expect("row r is live");
            let others = head
                .chunks_exact_mut(w)
                .zip(rhs_head)
                .chain(tail.chunks_exact_mut(w).zip(rhs_tail));
            for (row, other) in others {
                if row[word] & bit != 0 {
                    for (a, b) in row.iter_mut().zip(&*pivot) {
                        *a ^= b;
                    }
                    *other = (other.0 ^ *rhs, other.1.max(*dep));
                }
            }
        }

        // Every pivot column now sits in one row only, so a row whose
        // unassigned part is a single column forces it.
        for r in 0..self.work_rhs.len() {
            let row = &self.work[r * w..(r + 1) * w];
            let open: u32 = row
                .iter()
                .zip(&self.assigned)
                .map(|(a, b)| (a & !b).count_ones())
                .sum();
            if open == 1 {
                let var = first_open(row, &self.assigned).expect("one column is open");
                let value = self.work_rhs[r].0;
                let k = self.record(r);
                self.forced.push((var, value, k));
            }
        }
        None
    }

    /// Appends working row `r` to the reason arena.
    fn record(&mut self, r: usize) -> u32 {
        let w = self.width;
        self.reason_vars
            .extend(ones(&self.work[r * w..(r + 1) * w]).map(|v| v as u32));
        self.reasons.push(XorReason {
            end: self.reason_vars.len() as u32,
            dep: self.work_rhs[r].1,
        });
        self.reasons.len() as u32 - 1
    }
}

/// The set bits of a packed row, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(k, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                64 * k + bit
            })
        })
    })
}

/// The lowest set bit of a packed row.
fn first_one(row: &[u64]) -> Option<usize> {
    ones(row).next()
}

/// Parity of the variables of `row` that `truth` holds true.
#[inline]
fn odd_ones(row: &[u64], truth: &[u64]) -> bool {
    row.iter()
        .zip(truth)
        .fold(0, |n, (a, b)| n ^ (a & b).count_ones())
        & 1
        == 1
}

/// The lowest set bit of `row & !assigned`.
#[inline]
fn first_open(row: &[u64], assigned: &[u64]) -> Option<usize> {
    row.iter()
        .zip(assigned)
        .enumerate()
        .find_map(|(k, (a, b))| {
            let open = a & !b;
            (open != 0).then(|| 64 * k + open.trailing_zeros() as usize)
        })
}

impl CnfXorSolver {
    /// Adds a permanent XOR constraint. Must not be called while assumptions
    /// are pushed (permanent rows would be popped with them).
    pub fn add_xor(&mut self, xor: XorConstraint) {
        assert!(
            self.xors.undo.is_empty(),
            "add_xor with active assumptions; use push_assumption"
        );
        let _ = self.xors.insert(&xor, self.num_vars);
    }

    /// Pushes an XOR constraint as a popable assumption (the hash-prefix
    /// rows of the oracle layer). Pop with [`Self::pop_assumptions_to`].
    pub fn push_assumption(&mut self, xor: &XorConstraint) {
        let undo = self.xors.insert(xor, self.num_vars);
        self.xors.undo.push(undo);
    }

    /// Number of assumptions currently pushed.
    pub fn assumption_len(&self) -> usize {
        self.xors.undo.len()
    }

    /// Pops assumptions until only the first `len` remain. Learned clauses
    /// whose derivation used a popped row are purged.
    pub fn pop_assumptions_to(&mut self, len: usize) {
        debug_assert!(self.trail.is_empty(), "pops happen between solves");
        self.xors.pop_to(len);
        self.purge_invalid_learned();
    }
}
