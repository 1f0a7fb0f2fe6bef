//! Sliding-window F0 via a ring of epoch sub-sketches.
//!
//! Every sketch in this crate answers "distinct items *ever*"; real
//! monitoring traffic asks "distinct items in the last K epochs". The
//! classical answer for mergeable sketches is epoch composition: keep one
//! identically-drawn sub-sketch per epoch in a ring of `K` slots, feed each
//! item into the *current* epoch's slot, retire the oldest slot whenever the
//! caller advances the epoch, and answer reads by folding the live slots
//! through the sketches' existing `merge_from` (distinct-union semantics, so
//! the fold *is* the sketch of the union of the in-window items).
//!
//! Two properties make [`EpochRing`] fit the workspace's determinism
//! contract:
//!
//! * **No wall clock.** Epochs are opaque caller-supplied `u64`s that must
//!   only increase; the ring never reads time. Replaying the same
//!   item/advance schedule reproduces the same state bit for bit, which is
//!   what lets the service's differential harness pin windowed sessions
//!   against the unpartitioned reference interpreter.
//! * **Shared draws.** All `K` slots are clones of one template sketch, so
//!   they carry identical hash draws — the precondition of `merge_from` —
//!   and a ring is itself mergeable slot-wise with any same-template,
//!   same-epoch ring (how the service recombines its two partial rings).
//!
//! The fold costs `K − 1` merges per read; reads are expected to be rare
//! next to updates (the usual sketch regime), and `K` is a caller-chosen
//! small constant.

use std::fmt;

/// The merge surface [`EpochRing`] needs from a sketch: cloneable state and
/// an in-place fold of another identically-drawn sketch (distinct-union for
/// the F0 sketches, multiset-sum for AMS — the ring is agnostic).
pub trait WindowSketch: Clone {
    /// Folds `other` (same draws) into `self`.
    fn merge_from(&mut self, other: &Self);
}

impl WindowSketch for crate::MinimumF0 {
    fn merge_from(&mut self, other: &Self) {
        crate::MinimumF0::merge_from(self, other);
    }
}

impl WindowSketch for crate::BucketingF0 {
    fn merge_from(&mut self, other: &Self) {
        crate::BucketingF0::merge_from(self, other);
    }
}

impl WindowSketch for crate::EstimationF0 {
    fn merge_from(&mut self, other: &Self) {
        crate::EstimationF0::merge_from(self, other);
    }
}

impl WindowSketch for crate::AmsF2 {
    fn merge_from(&mut self, other: &Self) {
        crate::AmsF2::merge_from(self, other);
    }
}

/// An [`EpochRing::advance`] target that does not move forward. Epochs are
/// strictly increasing by contract — a repeated or regressed epoch would
/// silently resurrect retired slots — so the ring reports the violation as
/// a value and leaves its state untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochRegressed {
    /// The ring's current epoch.
    pub current: u64,
    /// The (non-advancing) epoch the caller requested.
    pub requested: u64,
}

impl fmt::Display for EpochRegressed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {} does not advance past the current epoch {}",
            self.requested, self.current
        )
    }
}

impl std::error::Error for EpochRegressed {}

/// A sliding window of the last `K` epochs over any mergeable sketch.
///
/// The ring starts at epoch 0 with `K` empty slots (clones of the template,
/// so every slot shares the template's hash draws). Items go to the current
/// epoch's slot via [`EpochRing::current_mut`]; [`EpochRing::advance`] moves
/// to a strictly larger epoch, resetting exactly the slots whose epochs fell
/// out of the window; [`EpochRing::fold`] merges the live slots (ascending
/// epoch order, deterministically) into the window's combined sketch.
#[derive(Clone)]
pub struct EpochRing<S: WindowSketch> {
    /// The empty, drawn sketch every slot is reset from (and the fold's
    /// accumulator seed).
    template: S,
    /// `window` slots; epoch `e` lives at index `e % window`.
    slots: Vec<S>,
    /// The current (newest live) epoch.
    epoch: u64,
}

impl<S: WindowSketch> EpochRing<S> {
    /// A ring of `window ≥ 1` empty slots cloned from `template` (which
    /// should be freshly drawn and unfed — it seeds every reset and fold).
    ///
    /// # Panics
    /// If `window == 0` (callers validate sizes before construction).
    pub fn new(template: S, window: usize) -> Self {
        assert!(window >= 1, "a window needs at least one epoch slot");
        EpochRing {
            slots: vec![template.clone(); window],
            template,
            epoch: 0,
        }
    }

    /// Rebuilds a ring from its serialized parts: the freshly drawn
    /// template, the saved epoch, and the `K` slots **in ring-index order**
    /// (index `i` holds whatever epoch `≡ i (mod K)` is live).
    ///
    /// # Panics
    /// If `slots` is empty (snapshot decoding validates the count against
    /// the session's window before calling this).
    pub fn from_parts(template: S, epoch: u64, slots: Vec<S>) -> Self {
        assert!(!slots.is_empty(), "a window needs at least one epoch slot");
        EpochRing {
            template,
            slots,
            epoch,
        }
    }

    /// The window size `K`.
    pub fn window(&self) -> usize {
        self.slots.len()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The template sketch the slots are reset from.
    pub fn template(&self) -> &S {
        &self.template
    }

    /// The slots in ring-index order (the [`EpochRing::from_parts`] layout).
    pub fn slots(&self) -> &[S] {
        &self.slots
    }

    /// The current epoch's slot — the ingestion target.
    pub fn current_mut(&mut self) -> &mut S {
        let index = (self.epoch % self.slots.len() as u64) as usize;
        &mut self.slots[index]
    }

    /// Moves the ring to `epoch`, which must be strictly larger than the
    /// current epoch (epochs are caller-supplied and strictly increasing —
    /// no wall clock anywhere). Every slot whose epoch fell out of the
    /// window is reset to the template; skipping many epochs at once is
    /// fine and leaves the skipped epochs legitimately empty.
    pub fn advance(&mut self, epoch: u64) -> Result<(), EpochRegressed> {
        if epoch <= self.epoch {
            return Err(EpochRegressed {
                current: self.epoch,
                requested: epoch,
            });
        }
        let window = self.slots.len() as u64;
        if epoch - self.epoch >= window {
            // The whole ring rotated out; every slot restarts empty.
            for slot in &mut self.slots {
                *slot = self.template.clone();
            }
        } else {
            for e in (self.epoch + 1)..=epoch {
                self.slots[(e % window) as usize] = self.template.clone();
            }
        }
        self.epoch = epoch;
        Ok(())
    }

    /// The combined sketch of the live window: the template folded with
    /// every live slot in ascending epoch order (a fixed order, so folds
    /// are deterministic and partition-invariant when rings are merged
    /// slot-wise first).
    pub fn fold(&self) -> S {
        let window = self.slots.len() as u64;
        let oldest = (self.epoch + 1).saturating_sub(window);
        let mut acc = self.template.clone();
        for e in oldest..=self.epoch {
            acc.merge_from(&self.slots[(e % window) as usize]);
        }
        acc
    }

    /// Slot-wise merge of another ring with the same window size and the
    /// same current epoch (same-epoch alignment makes the index ↔ epoch
    /// correspondence identical on both sides, so slot-wise union is the
    /// per-epoch union).
    ///
    /// # Panics
    /// On a window or epoch mismatch — callers (the service control plane)
    /// validate both before dispatching a merge.
    pub fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.window(), other.window(), "ring window mismatch");
        assert_eq!(self.epoch, other.epoch, "ring epoch mismatch");
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            mine.merge_from(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An exact distinct-set "sketch" (merge = set union) for unit-testing
    /// ring mechanics without hash draws.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct SetSketch(std::collections::BTreeSet<u64>);

    impl WindowSketch for SetSketch {
        fn merge_from(&mut self, other: &Self) {
            self.0.extend(other.0.iter().copied());
        }
    }

    fn distinct(ring: &EpochRing<SetSketch>) -> usize {
        ring.fold().0.len()
    }

    #[test]
    fn advance_retires_exactly_the_rotated_out_epochs() {
        let mut ring = EpochRing::new(SetSketch::default(), 3);
        ring.current_mut().0.insert(1); // epoch 0
        ring.advance(1).unwrap();
        ring.current_mut().0.insert(2); // epoch 1
        ring.advance(2).unwrap();
        ring.current_mut().0.insert(3); // epoch 2
        assert_eq!(distinct(&ring), 3); // window {0,1,2}
        ring.advance(3).unwrap(); // epoch 0 rotates out
        assert_eq!(distinct(&ring), 2); // window {1,2,3}
        ring.advance(5).unwrap(); // epochs 1 and 2 rotate out
        assert_eq!(distinct(&ring), 0); // window {3,4,5}, all empty
    }

    #[test]
    fn big_jumps_clear_the_whole_ring() {
        let mut ring = EpochRing::new(SetSketch::default(), 4);
        for (e, v) in [(1u64, 10u64), (2, 20), (3, 30)] {
            ring.advance(e).unwrap();
            ring.current_mut().0.insert(v);
        }
        ring.advance(1000).unwrap();
        assert_eq!(ring.epoch(), 1000);
        assert_eq!(distinct(&ring), 0);
    }

    #[test]
    fn regressed_epochs_are_typed_errors_and_leave_state_alone() {
        let mut ring = EpochRing::new(SetSketch::default(), 2);
        ring.advance(7).unwrap();
        ring.current_mut().0.insert(42);
        for bad in [0, 6, 7] {
            assert_eq!(
                ring.advance(bad),
                Err(EpochRegressed {
                    current: 7,
                    requested: bad
                })
            );
        }
        assert_eq!(ring.epoch(), 7);
        assert_eq!(distinct(&ring), 1);
    }

    #[test]
    fn window_one_keeps_only_the_current_epoch() {
        let mut ring = EpochRing::new(SetSketch::default(), 1);
        ring.current_mut().0.insert(1);
        assert_eq!(distinct(&ring), 1);
        ring.advance(1).unwrap();
        assert_eq!(distinct(&ring), 0);
    }

    #[test]
    fn same_epoch_rings_merge_slot_wise() {
        let mut a = EpochRing::new(SetSketch::default(), 3);
        let mut b = a.clone();
        a.current_mut().0.insert(1);
        b.current_mut().0.insert(2);
        a.advance(1).unwrap();
        b.advance(1).unwrap();
        a.current_mut().0.insert(3);
        b.current_mut().0.insert(4);
        a.merge_from(&b);
        assert_eq!(distinct(&a), 4);
        // Retiring epoch 0 drops both sides' epoch-0 items.
        a.advance(3).unwrap();
        assert_eq!(distinct(&a), 2);
    }
}
