//! The parity store: XOR rows as packed `u64` words, kept in echelon form by
//! incremental Gaussian elimination, and a live fully reduced copy of them
//! that propagates incrementally over the columns the search has not
//! assigned yet.
//!
//! Identical discipline to the chronological engine at insertion: every
//! added constraint is forward-reduced against the existing pivot rows once;
//! an inconsistent system is detected before any search; rows are only ever
//! appended, so popping assumptions is a truncation.
//!
//! During search the store keeps two bitmasks in step with the trail
//! (`assigned`, and `truth` for the variables assigned true) and works on
//! the *live* rows: the same system in fully reduced form, where each row
//! has a *basic* column set in that row only and one *watched* non-basic
//! column. A `solve` that starts after a row was pushed or popped rebuilds
//! them by back-substitution; otherwise they change only by pivots. At
//! every clause-propagation fixpoint [`XorStore::propagate`] visits the
//! variables assigned since the last one:
//!
//! * a row whose basic was assigned pivots onto another unassigned column,
//!   clearing it from every other row; with one unassigned column left it
//!   forces that column, and with none it is satisfied or `0 = 1`;
//! * a row whose watch was assigned moves the watch to another unassigned
//!   non-basic column; with none left it forces its basic, or is satisfied
//!   or `0 = 1`.
//!
//! At the fixpoint every row is fully assigned or has an unassigned basic
//! and an unassigned watch. A basic column appears in no other row, so a
//! combination of rows is unit or `0 = 1` only if a single row is: the
//! propagation is *complete*, and a literal is implied by the active rows
//! under the current assignment exactly when some live row forces it.
//! Backtracking undoes nothing in the matrix, since any reduced form of the
//! same rows is valid; it only moves the watches that are still assigned.
//! Each forced literal or conflict records the variables of its live row in
//! a reason arena, which conflict analysis reads as an implied clause; the
//! arena lives for one `solve` and shrinks with backtracking.

use super::{CnfXorSolver, XorConstraint};

/// "No row" / "no column" in the `u32` index tables.
const NONE: u32 = u32::MAX;

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

/// One entry of the reason arena: a live row that forced a literal or went
/// `0 = 1`.
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

    /// The live rows: the system of `words` in fully reduced form, `width`
    /// words each.
    live: Vec<u64>,
    /// Per live row: right-hand side, `max(contributing row) + 1`, basic
    /// column, and watched column (`NONE` while the row has no unassigned
    /// non-basic column).
    live_parity: Vec<bool>,
    live_dep: Vec<u32>,
    basic: Vec<u32>,
    watch: Vec<u32>,
    /// Per variable: the live row it is basic in (`NONE` if none), and the
    /// rows that watch it. An entry whose row has moved its watch elsewhere
    /// is dropped when the variable is next visited.
    basic_row: Vec<u32>,
    watchers: Vec<Vec<u32>>,
    /// A row was pushed or popped since the live rows were built.
    stale: bool,

    /// The assigned variables, and those assigned true, in step with the
    /// trail (both zero between solves).
    assigned: Vec<u64>,
    truth: Vec<u64>,
    /// Reason arena: each recorded row's variables back to back, one entry
    /// per row, and the entry count at the start of each decision level.
    reason_vars: Vec<u32>,
    reasons: Vec<XorReason>,
    reason_lim: Vec<usize>,
    /// `(variable, value, reason)` for each literal the last
    /// [`XorStore::prepare`] or [`XorStore::propagate`] forced, in order.
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
            live: Vec::new(),
            live_parity: Vec::new(),
            live_dep: Vec::new(),
            basic: Vec::new(),
            watch: Vec::new(),
            basic_row: vec![NONE; num_vars],
            watchers: vec![Vec::new(); num_vars],
            stale: false,
            assigned: vec![0; width],
            truth: vec![0; width],
            reason_vars: Vec::new(),
            reasons: Vec::new(),
            reason_lim: Vec::new(),
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
            if bit(&row, p) {
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
                self.stale = true;
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
                    self.stale = true;
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

    /// Drops the reasons recorded above decision level `level` and gives
    /// every row whose watch is still assigned an unassigned one (the trail
    /// is already cut back).
    pub fn backtrack(&mut self, level: usize) {
        let len = self.reason_lim[level];
        self.reason_lim.truncate(level);
        self.reasons.truncate(len);
        self.reason_vars
            .truncate(self.reasons.last().map_or(0, |r| r.end as usize));
        self.rewatch();
    }

    /// Empties the reason arena (the trail is empty).
    pub fn clear_reasons(&mut self) {
        self.reason_lim.clear();
        self.reasons.clear();
        self.reason_vars.clear();
    }

    /// The variables of reason `k`'s row.
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

    /// Readies the live rows for a search (the trail is empty): rebuilds
    /// them if a row was pushed or popped since the last build, and watches
    /// a non-basic column in every row. A single-column row has none; it
    /// forces its variable, which [`Self::forced`] then holds.
    pub fn prepare(&mut self) {
        if self.stale {
            self.rebuild();
        }
        self.forced.clear();
        self.rewatch();
        for r in 0..self.len() {
            if self.watch[r] == NONE {
                self.force(r, self.basic[r] as usize);
            }
        }
    }

    /// Copies the echelon rows into the live rows and fully reduces them by
    /// back-substitution: each row is already zero at the pivots of earlier
    /// rows, so clearing every pivot from the rows above it, last row first,
    /// leaves each pivot in its own row only.
    fn rebuild(&mut self) {
        let (m, w) = (self.len(), self.width);
        self.live.clone_from(&self.words);
        self.live_parity.clone_from(&self.parity);
        self.live_dep.clear();
        self.live_dep.extend(1..=m as u32);
        for i in (0..m).rev() {
            for j in 0..i {
                if bit(&self.live[j * w..(j + 1) * w], self.pivot[i]) {
                    self.add_row(j, i);
                }
            }
        }
        self.basic.clear();
        self.basic.extend(self.pivot.iter().map(|&p| p as u32));
        self.watch.clear();
        self.watch.resize(m, NONE);
        self.basic_row.fill(NONE);
        for (r, &b) in self.basic.iter().enumerate() {
            self.basic_row[b as usize] = r as u32;
        }
        for list in &mut self.watchers {
            list.clear();
        }
        self.stale = false;
    }

    /// Gives every row with an unassigned basic and no unassigned watch an
    /// unassigned non-basic column to watch, if it has one. A row with an
    /// assigned basic is fully assigned here.
    fn rewatch(&mut self) {
        let w = self.width;
        for r in 0..self.len() {
            let (b, watch) = (self.basic[r] as usize, self.watch[r]);
            if bit(&self.assigned, b) || (watch != NONE && !bit(&self.assigned, watch as usize)) {
                continue;
            }
            let row = &self.live[r * w..(r + 1) * w];
            match first_open_except(row, &self.assigned, b) {
                Some(u) => self.set_watch(r, u),
                None => self.watch[r] = NONE,
            }
        }
    }

    /// Visits the variables assigned since the last fixpoint (`pending`,
    /// in trail order) and restores the live rows around them. Returns the
    /// reason index of a `0 = 1` row. [`Self::forced`] holds every literal
    /// forced on the way, in order and already in the masks; enqueue them
    /// even when a conflict is returned, since the conflict row may use
    /// them.
    pub fn propagate(&mut self, pending: &[usize]) -> Option<u32> {
        self.forced.clear();
        for &var in pending {
            if let Some(k) = self.visit_basic(var).or_else(|| self.visit_watchers(var)) {
                return Some(k);
            }
        }
        #[cfg(debug_assertions)]
        if self.forced.is_empty() {
            self.assert_fixpoint();
        }
        None
    }

    /// The row whose basic `var` is, now that `var` is assigned: pivot onto
    /// an unassigned column other than the watch, force the only one, or
    /// check the row.
    fn visit_basic(&mut self, var: usize) -> Option<u32> {
        let r = self.basic_row[var];
        if r == NONE {
            return None;
        }
        let (r, w) = (r as usize, self.width);
        let row = &self.live[r * w..(r + 1) * w];
        match open_count(row, &self.assigned) {
            0 => self.check(r),
            1 => {
                let u = first_open_except(row, &self.assigned, NONE as usize)
                    .expect("one column is open");
                self.force(r, u);
                None
            }
            _ => {
                let c = first_open_except(row, &self.assigned, self.watch[r] as usize)
                    .expect("two columns are open");
                self.pivot(r, c)
            }
        }
    }

    /// The rows watching `var`, now that `var` is assigned: move the watch
    /// to another unassigned non-basic column, or force the basic, or check
    /// the row.
    fn visit_watchers(&mut self, var: usize) -> Option<u32> {
        let w = self.width;
        let mut i = 0;
        while i < self.watchers[var].len() {
            let r = self.watchers[var][i] as usize;
            if self.watch[r] != var as u32 {
                self.watchers[var].swap_remove(i);
                continue;
            }
            let b = self.basic[r] as usize;
            match first_open_except(&self.live[r * w..(r + 1) * w], &self.assigned, b) {
                Some(u) => {
                    self.watchers[var].swap_remove(i);
                    self.set_watch(r, u);
                }
                None => {
                    i += 1;
                    if !bit(&self.assigned, b) {
                        self.force(r, b);
                    } else if let Some(k) = self.check(r) {
                        return Some(k);
                    }
                }
            }
        }
        None
    }

    /// Makes the unassigned column `c` the basic of row `r`, whose basic was
    /// just assigned, and clears `c` from every other row. A row that loses
    /// its watch on the way watches another unassigned non-basic column or,
    /// with none left, forces its basic or is checked. Every row is cleared
    /// before a conflict is returned, so each basic stays in one row.
    fn pivot(&mut self, r: usize, c: usize) -> Option<u32> {
        let w = self.width;
        self.basic_row[self.basic[r] as usize] = NONE;
        self.basic[r] = c as u32;
        self.basic_row[c] = r as u32;
        let mut conflict = None;
        for s in 0..self.len() {
            if s == r || !bit(&self.live[s * w..(s + 1) * w], c) {
                continue;
            }
            self.add_row(s, r);
            let row = &self.live[s * w..(s + 1) * w];
            let watch = self.watch[s];
            if watch != NONE && bit(row, watch as usize) {
                continue;
            }
            let b = self.basic[s] as usize;
            match first_open_except(row, &self.assigned, b) {
                Some(u) => self.set_watch(s, u),
                None => {
                    self.watch[s] = NONE;
                    if !bit(&self.assigned, b) {
                        self.force(s, b);
                    } else if conflict.is_none() {
                        conflict = self.check(s);
                    }
                }
            }
        }
        let watch = self.watch[r];
        if watch == NONE || bit(&self.assigned, watch as usize) {
            let row = &self.live[r * w..(r + 1) * w];
            let u = first_open_except(row, &self.assigned, c).expect("two columns were open");
            self.set_watch(r, u);
        }
        conflict
    }

    /// Adds live row `src` into live row `dst`.
    fn add_row(&mut self, dst: usize, src: usize) {
        let w = self.width;
        for k in 0..w {
            self.live[dst * w + k] ^= self.live[src * w + k];
        }
        self.live_parity[dst] ^= self.live_parity[src];
        self.live_dep[dst] = self.live_dep[dst].max(self.live_dep[src]);
    }

    /// Watches column `u` of row `r`.
    fn set_watch(&mut self, r: usize, u: usize) {
        self.watch[r] = u as u32;
        self.watchers[u].push(r as u32);
    }

    /// Assigns `var`, the one unassigned column of row `r`, the value the
    /// row gives it, and queues it in [`Self::forced`].
    fn force(&mut self, r: usize, var: usize) {
        let w = self.width;
        let value = self.live_parity[r] ^ odd_ones(&self.live[r * w..(r + 1) * w], &self.truth);
        let k = self.record(r);
        self.assign(var, value);
        self.forced.push((var, value, k));
    }

    /// The reason index of row `r` if, with every column assigned, it is
    /// `0 = 1`.
    fn check(&mut self, r: usize) -> Option<u32> {
        let w = self.width;
        let odd = self.live_parity[r] ^ odd_ones(&self.live[r * w..(r + 1) * w], &self.truth);
        odd.then(|| self.record(r))
    }

    /// Appends live row `r` to the reason arena.
    fn record(&mut self, r: usize) -> u32 {
        let w = self.width;
        self.reason_vars
            .extend(ones(&self.live[r * w..(r + 1) * w]).map(|v| v as u32));
        self.reasons.push(XorReason {
            end: self.reason_vars.len() as u32,
            dep: self.live_dep[r],
        });
        self.reasons.len() as u32 - 1
    }

    /// The shape propagation keeps at a conflict-free fixpoint: each basic
    /// column is set in its own row only, no row has exactly one unassigned
    /// column, a fully assigned row has even parity, and any other row has
    /// an unassigned basic and watches another unassigned column.
    #[cfg(debug_assertions)]
    fn assert_fixpoint(&self) {
        let w = self.width;
        let mut basics = vec![0u64; w];
        for &b in &self.basic {
            basics[b as usize / 64] |= 1 << (b % 64);
        }
        for r in 0..self.len() {
            let row = &self.live[r * w..(r + 1) * w];
            let b = self.basic[r] as usize;
            assert_eq!(self.basic_row[b], r as u32, "basic of row {r}");
            for (k, (a, m)) in row.iter().zip(&basics).enumerate() {
                let own = if k == b / 64 { 1 << (b % 64) } else { 0 };
                assert_eq!(a & m, own, "row {r} holds another row's basic");
            }
            match open_count(row, &self.assigned) {
                0 => assert!(
                    self.live_parity[r] == odd_ones(row, &self.truth),
                    "row {r} is 0 = 1 at a fixpoint"
                ),
                1 => panic!("row {r} is unit at a fixpoint"),
                _ => {
                    let watch = self.watch[r] as usize;
                    assert!(!bit(&self.assigned, b), "row {r} has an assigned basic");
                    assert!(
                        self.watch[r] != NONE
                            && watch != b
                            && bit(row, watch)
                            && !bit(&self.assigned, watch)
                            && self.watchers[watch].contains(&(r as u32)),
                        "row {r} has no unassigned watch"
                    );
                }
            }
        }
    }
}

/// Whether bit `v` of a packed row is set.
#[inline]
fn bit(row: &[u64], v: usize) -> bool {
    row[v / 64] >> (v % 64) & 1 == 1
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

/// Number of set bits of `row & !assigned`.
#[inline]
fn open_count(row: &[u64], assigned: &[u64]) -> u32 {
    row.iter()
        .zip(assigned)
        .map(|(a, b)| (a & !b).count_ones())
        .sum()
}

/// The lowest set bit of `row & !assigned` other than `skip` (pass an
/// out-of-range `skip` to skip nothing).
#[inline]
fn first_open_except(row: &[u64], assigned: &[u64], skip: usize) -> Option<usize> {
    row.iter()
        .zip(assigned)
        .enumerate()
        .find_map(|(k, (a, b))| {
            let mut open = a & !b;
            if k == skip / 64 {
                open &= !(1 << (skip % 64));
            }
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
