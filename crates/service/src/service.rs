//! The multi-tenant service front-end: the session table, whose entries
//! own their two partials, and the routing of every command onto them (see
//! `shard.rs`).

use crate::command::{CommandReply, ServiceCommand};
use crate::error::ServiceError;
use crate::session::{SessionLedger, SessionSpec, SketchKind};
use crate::shard::{Partition, HELPER, HOME};
use crate::sketch::{set_algebra_estimates, SessionSketch};
use crate::snapshot;
use mcf0_formula::DnfFormula;
use std::collections::BTreeMap;

/// Hard cap on a session's window size (ring slots). A windowed `create` is
/// admitted from the wire, and each ring slot is a complete sketch — without
/// a cap, a hostile `{"window": 10_000_000_000}` would allocate an unbounded
/// ring before the first item arrives. Oversized windows are rejected with
/// the typed [`ServiceError::InvalidWindow`] *before* any slot is drawn.
pub const MAX_WINDOW_EPOCHS: usize = 4096;

/// A fully materialized view of one session (its two partials merged).
#[derive(Clone)]
pub struct SessionSnapshot {
    /// Session name.
    pub name: String,
    /// Draw specification.
    pub spec: SessionSpec,
    /// Control-plane accounting.
    pub ledger: SessionLedger,
    /// The merged session state (plain sketch, or the whole epoch ring for
    /// windowed sessions) — bit-identical to an unpartitioned run over the
    /// same commands.
    pub sketch: SessionSketch,
}

impl SessionSnapshot {
    /// The canonical JSON document of this snapshot.
    pub fn to_json(&self) -> String {
        snapshot::encode(&self.name, &self.spec, &self.ledger, &self.sketch)
    }
}

struct SessionEntry {
    spec: SessionSpec,
    ledger: SessionLedger,
    /// The current epoch of a windowed session (0 and never advanced for
    /// unwindowed ones). Mirrored on the control plane so `advance` can
    /// reject regressions *before* dispatching to the partial rings.
    epoch: u64,
    /// The home partial, applied on the caller.
    home: SessionSketch,
    /// The helper partial. It leaves the entry only by value, for the
    /// helper thread to apply a split batch's second half, and comes back
    /// before the call returns; it is gone for good only if that thread was
    /// lost, which retires the service.
    helper: Option<SessionSketch>,
}

impl SessionEntry {
    /// An entry whose two partials start as `sketch`.
    fn new(spec: SessionSpec, ledger: SessionLedger, epoch: u64, sketch: SessionSketch) -> Self {
        SessionEntry {
            spec,
            ledger,
            epoch,
            helper: Some(sketch.clone()),
            home: sketch,
        }
    }
}

/// A multi-tenant sketch service.
///
/// Named sessions own one sketch each, kept in the session's entry as two
/// identically-drawn partials: home and helper. The batch picks the
/// partition: a `u64` batch of 2048 items or more is cut into two halves,
/// the second applied on the service's one helper thread, which borrows
/// the helper partial by value; anything smaller, and every structured
/// batch, goes whole to the home partial on the calling thread. Every read
/// (estimate, snapshot, save) folds the helper partial into the home one.
/// The split and batching are **pure routing**: every output is
/// bit-identical to driving the underlying sketch directly with the same
/// command trace, for every batch split — the invariant the differential
/// test suite pins against [`crate::reference::ReferenceService`].
///
/// **Failure contract.** A panic inside a partial never re-raises in a
/// caller: it surfaces as [`ServiceError::ShardPanicked`] from the
/// operation that touched the partial, and from every later operation
/// (both partials have retired). An in-memory service cannot repair that
/// by itself — its state may be mid-command inconsistent — so callers
/// should discard it;
/// [`crate::DurableSketchService`] rebuilds automatically from checkpoint +
/// write-ahead log instead.
pub struct SketchService {
    partition: Partition,
    sessions: BTreeMap<String, SessionEntry>,
}

impl SketchService {
    /// Starts the service and its one helper thread. `shards` is ignored:
    /// the batch size, not a count, picks the partition. Pass 1.
    pub fn new(_shards: usize) -> Self {
        SketchService {
            partition: Partition::new(),
            sessions: BTreeMap::new(),
        }
    }

    /// Registered session names, sorted.
    pub fn list_sessions(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    /// A session's specification.
    pub fn spec(&self, name: &str) -> Result<&SessionSpec, ServiceError> {
        self.entry(name).map(|e| &e.spec)
    }

    /// A session's command-accounting ledger (deterministic and
    /// partition-invariant; see [`SessionLedger`]).
    pub fn ledger(&self, name: &str) -> Result<&SessionLedger, ServiceError> {
        self.entry(name).map(|e| &e.ledger)
    }

    /// Chaos hook for the supervision suite: panics inside the supervisor of
    /// partial `shard` (0 home, 1 helper), on the calling thread, and
    /// retires both partials. Returns the typed error the panic surfaced as
    /// (callers assert on it), or `Ok(())` for an out-of-range index.
    /// Deterministic and safe — but the service is state-poisoned
    /// afterwards, exactly like a real sketch bug.
    pub fn inject_worker_panic(&self, shard: usize) -> Result<(), ServiceError> {
        if shard > HELPER {
            return Ok(());
        }
        self.partition
            .run(shard, || panic!("injected worker panic"))
    }

    /// Registers a session. The sketch is drawn once from the spec's seed,
    /// and the helper partial starts as its clone.
    pub fn create_session(&mut self, name: &str, spec: SessionSpec) -> Result<(), ServiceError> {
        if self.sessions.contains_key(name) {
            return Err(ServiceError::DuplicateSession(name.to_string()));
        }
        spec.validate(name)?;
        let sketch = self.partition.run(HOME, || SessionSketch::new(&spec))?;
        let entry = SessionEntry::new(spec, SessionLedger::default(), 0, sketch);
        self.sessions.insert(name.to_string(), entry);
        Ok(())
    }

    /// Forgets a session and both its partials.
    pub fn drop_session(&mut self, name: &str) -> Result<(), ServiceError> {
        self.entry(name)?;
        self.partition.run(HOME, || self.sessions.remove(name))?;
        Ok(())
    }

    /// Feeds a batch of `u64` items: whole to the home partial on the
    /// caller, or, from 2048 items, in two contiguous halves with the second
    /// applied on the helper thread; the call returns once both are
    /// applied. The split never changes semantics — the sketches are
    /// functions of the distinct item set, and the partials merge back
    /// losslessly.
    pub fn ingest(&mut self, name: &str, items: &[u64]) -> Result<(), ServiceError> {
        let (partition, entry) = self.session_mut(name)?;
        entry.spec.check_items(name, items)?;
        partition.ingest(&mut entry.home, &mut entry.helper, items)?;
        entry.ledger.batches += 1;
        entry.ledger.items += items.len() as u64;
        Ok(())
    }

    /// Feeds a batch of structured set items, whole to the home partial.
    pub fn ingest_structured(
        &mut self,
        name: &str,
        sets: &[DnfFormula],
    ) -> Result<(), ServiceError> {
        let (partition, entry) = self.session_mut(name)?;
        entry.spec.check_sets(name, sets)?;
        // The outer error is a panic; the inner one, a kind mismatch that
        // `check_sets` has already ruled out.
        partition.run(HOME, || entry.home.ingest_structured(name, sets))??;
        entry.ledger.batches += 1;
        entry.ledger.structured_items += sets.len() as u64;
        Ok(())
    }

    /// Folds `src`'s sketch into `dst` (both sessions keep existing). The
    /// sessions must share their draw — equal specifications — for the
    /// distinct-union semantics to be meaningful; the merged `dst` is then
    /// bit-identical to a session that ingested both command streams.
    pub fn merge_sessions(&mut self, dst: &str, src: &str) -> Result<(), ServiceError> {
        let dst_spec = self.entry(dst)?.spec;
        let src_spec = self.entry(src)?.spec;
        // Same-spec twins are mergeable, but a session is not its own twin:
        // AMS merge is multiset-sum (self-merge silently double-counts the
        // stream), and for the F0 kinds it bumps the merge ledger without
        // effect. Checked after existence, before spec equality (which a
        // self-merge would trivially pass), in the same order as the
        // reference interpreter so error replies compare equal.
        if dst == src {
            return Err(ServiceError::MergeSelf(dst.to_string()));
        }
        if dst_spec != src_spec {
            return Err(ServiceError::MergeIncompatible {
                dst: dst.to_string(),
                src: src.to_string(),
            });
        }
        // Windowed twins must also *sit at the same epoch*: the merge is a
        // slot-wise ring union, and slots only mean the same epoch when the
        // rings are aligned. (Specs being equal, both are windowed or
        // neither is.)
        if dst_spec.window.is_some() && self.entry(dst)?.epoch != self.entry(src)?.epoch {
            return Err(ServiceError::WindowEpochMismatch {
                dst: dst.to_string(),
                src: src.to_string(),
            });
        }
        let merged_src = self.merged(src)?;
        // The whole of `src` lands on `dst`'s home partial; the per-sketch
        // merges are associative and commute with the partition, so
        // estimates and snapshots after this are exactly the direct-run
        // values.
        let (partition, dst) = self.session_mut(dst)?;
        partition.run(HOME, || dst.home.absorb(&merged_src))?;
        dst.ledger.merges += 1;
        Ok(())
    }

    /// The session's current estimate (F0; F2 for AMS sessions). Windowed
    /// sessions report the estimate of their live-window fold — the ring
    /// only holds the last `K` epochs, so there is no everything-ever
    /// estimate to report.
    ///
    /// Read-only operations take `&self`: they only fold the partials,
    /// never mutate them, so the durable wrapper can
    /// checkpoint (save every session) without exclusive access.
    pub fn estimate(&self, name: &str) -> Result<f64, ServiceError> {
        Ok(self.merged(name)?.into_folded().estimate())
    }

    /// Moves a windowed session to a strictly larger epoch, retiring the
    /// ring slots that rotate out of the window, on both partials. Epochs are
    /// caller-supplied (the service never reads a clock) and must move
    /// strictly forward; violations are typed rejections that leave every
    /// ring untouched.
    pub fn advance(&mut self, name: &str, epoch: u64) -> Result<(), ServiceError> {
        let current = self.epoch(name)?;
        if epoch <= current {
            return Err(ServiceError::EpochRegressed {
                session: name.to_string(),
                current,
                requested: epoch,
            });
        }
        let (partition, entry) = self.session_mut(name)?;
        partition.run(HOME, || entry.home.advance(name, epoch))?;
        if let Some(helper) = &mut entry.helper {
            partition.run(HELPER, || helper.advance(name, epoch))?;
        }
        entry.epoch = epoch;
        entry.ledger.advances += 1;
        Ok(())
    }

    /// A windowed session's current epoch.
    pub fn epoch(&self, name: &str) -> Result<u64, ServiceError> {
        let entry = self.entry(name)?;
        if entry.spec.window.is_none() {
            return Err(ServiceError::NotWindowed(name.to_string()));
        }
        Ok(entry.epoch)
    }

    /// The sliding-window estimate of a windowed session: the fold of its
    /// live epoch slots. `NotWindowed` on classic sessions (use
    /// [`SketchService::estimate`] there).
    pub fn estimate_window(&self, name: &str) -> Result<f64, ServiceError> {
        self.epoch(name)?;
        self.estimate(name)
    }

    /// The inclusion–exclusion intersection-size estimate of two same-spec
    /// sessions (windowed sessions: over their live-window folds). Purely a
    /// read — the union is folded on a scratch merge, neither session
    /// mutates.
    pub fn intersection_estimate(&self, a: &str, b: &str) -> Result<f64, ServiceError> {
        Ok(self.set_algebra(a, b)?.0)
    }

    /// The Jaccard-similarity estimate of two same-spec sessions, clamped
    /// into `[0, 1]`. Read-only, like
    /// [`SketchService::intersection_estimate`].
    pub fn jaccard_estimate(&self, a: &str, b: &str) -> Result<f64, ServiceError> {
        Ok(self.set_algebra(a, b)?.1)
    }

    /// Shared validation + computation of the set-algebra pair, in the same
    /// check order as the reference interpreter (existence of `a`, existence
    /// of `b`, spec equality, kind support) so error replies compare equal.
    fn set_algebra(&self, a: &str, b: &str) -> Result<(f64, f64), ServiceError> {
        let spec_a = self.entry(a)?.spec;
        let spec_b = self.entry(b)?.spec;
        if spec_a != spec_b {
            return Err(ServiceError::SpecMismatch {
                a: a.to_string(),
                b: b.to_string(),
            });
        }
        if spec_a.kind == SketchKind::Ams {
            return Err(ServiceError::SetAlgebraUnsupported {
                a: a.to_string(),
                b: b.to_string(),
            });
        }
        // `a == b` is allowed (the answer degenerates to est(A) and
        // similarity 1) — unlike merge, nothing is mutated, so self-pairing
        // is harmless.
        let view_a = self.merged(a)?.into_folded();
        let view_b = self.merged(b)?.into_folded();
        Ok(set_algebra_estimates(&view_a, &view_b))
    }

    /// The Estimation strategy's (ε, δ) estimate given a rough `r` (`None`
    /// for other session kinds or a degenerate `r`).
    pub fn estimate_with_r(&self, name: &str, r: u32) -> Result<Option<f64>, ServiceError> {
        Ok(self.merged(name)?.into_folded().estimate_with_r(r))
    }

    /// The merged session state's size in bits (windowed sessions: summed
    /// over every ring slot).
    pub fn space_bits(&self, name: &str) -> Result<usize, ServiceError> {
        Ok(self.merged(name)?.space_bits())
    }

    /// A fully materialized snapshot of the session (merged sketch + spec +
    /// ledger).
    pub fn snapshot(&self, name: &str) -> Result<SessionSnapshot, ServiceError> {
        let entry = self.entry(name)?;
        Ok(SessionSnapshot {
            name: name.to_string(),
            spec: entry.spec,
            ledger: entry.ledger,
            sketch: self.merged(name)?,
        })
    }

    /// Serializes the session to its canonical JSON snapshot document.
    pub fn save(&self, name: &str) -> Result<String, ServiceError> {
        Ok(self.snapshot(name)?.to_json())
    }

    /// Restores a session from a [`SketchService::save`] document, under its
    /// saved name. The sketch is re-drawn empty from the saved spec, once:
    /// the helper partial starts as its clone, and the saved state lands on
    /// the home partial, so subsequent ingestion continues exactly where the
    /// saved session left off (restore → save round trips are
    /// byte-identical).
    pub fn restore(&mut self, json: &str) -> Result<String, ServiceError> {
        let (name, spec, ledger, sketch) = snapshot::decode(json)?;
        if self.sessions.contains_key(&name) {
            return Err(ServiceError::DuplicateSession(name));
        }
        // Shape validation happened in decode; now pin the *draw*: the
        // document's hashes must be exactly what the spec's seed produces,
        // or the partials (redrawn from that seed) could never merge with
        // the restored state. A tampered seed or hash word is rejected here
        // instead of detonating a partial-side assert later.
        let mut fresh = SessionSketch::new(&spec);
        if !fresh.same_draw(&sketch) {
            return Err(ServiceError::Snapshot(
                "hash draws do not match the specification's seed".into(),
            ));
        }
        let epoch = sketch.ring().map_or(0, |ring| ring.epoch());
        // A freshly drawn ring sits at epoch 0; catch it up to the saved
        // epoch (its slots are still empty, so the catch-up retires
        // nothing) before it is cloned into the two partials and the saved
        // state lands on the home one — the two rings must be
        // epoch-aligned for every later fold.
        let entry = self.partition.run(HOME, || {
            if epoch > 0 {
                fresh.advance(&name, epoch);
            }
            let mut entry = SessionEntry::new(spec, ledger, epoch, fresh);
            entry.home.absorb(&sketch);
            entry
        })?;
        self.sessions.insert(name.clone(), entry);
        Ok(name)
    }

    /// Applies one replayable command (the trace surface the differential
    /// harness drives).
    pub fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError> {
        match command {
            ServiceCommand::Create { name, spec } => self
                .create_session(name, *spec)
                .map(|()| CommandReply::Done),
            ServiceCommand::Ingest { name, items } => {
                self.ingest(name, items).map(|()| CommandReply::Done)
            }
            ServiceCommand::IngestStructured { name, sets } => self
                .ingest_structured(name, sets)
                .map(|()| CommandReply::Done),
            ServiceCommand::Merge { dst, src } => {
                self.merge_sessions(dst, src).map(|()| CommandReply::Done)
            }
            ServiceCommand::Advance { name, epoch } => {
                self.advance(name, *epoch).map(|()| CommandReply::Done)
            }
            ServiceCommand::Estimate { name } => self.estimate(name).map(CommandReply::Estimate),
            ServiceCommand::EstimateWindow { name } => {
                self.estimate_window(name).map(CommandReply::Estimate)
            }
            ServiceCommand::IntersectionEstimate { a, b } => {
                self.intersection_estimate(a, b).map(CommandReply::Estimate)
            }
            ServiceCommand::JaccardEstimate { a, b } => {
                self.jaccard_estimate(a, b).map(CommandReply::Estimate)
            }
            ServiceCommand::EstimateWithR { name, r } => self
                .estimate_with_r(name, *r)
                .map(CommandReply::MaybeEstimate),
            ServiceCommand::SpaceBits { name } => {
                self.space_bits(name).map(CommandReply::SpaceBits)
            }
            ServiceCommand::Save { name } => self.save(name).map(CommandReply::Snapshot),
            ServiceCommand::Drop { name } => self.drop_session(name).map(|()| CommandReply::Done),
        }
    }

    fn entry(&self, name: &str) -> Result<&SessionEntry, ServiceError> {
        self.sessions
            .get(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_string()))
    }

    /// The partition and a session's entry, borrowed together.
    fn session_mut(
        &mut self,
        name: &str,
    ) -> Result<(&mut Partition, &mut SessionEntry), ServiceError> {
        let entry = self
            .sessions
            .get_mut(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_string()))?;
        Ok((&mut self.partition, entry))
    }

    /// The session's full state: the home partial cloned, the helper
    /// partial absorbed into it (for rings a slot-wise union: `advance`
    /// reaches both, so the two rings stay epoch-aligned).
    fn merged(&self, name: &str) -> Result<SessionSketch, ServiceError> {
        let entry = self.entry(name)?;
        let mut merged = self.partition.run(HOME, || entry.home.clone())?;
        if let Some(helper) = &entry.helper {
            self.partition.run(HELPER, || merged.absorb(helper))?;
        }
        Ok(merged)
    }
}
