//! The multi-tenant service front-end: the session registry, and the
//! routing of every command onto the two partials (see `shard.rs`).

use crate::command::{CommandReply, ServiceCommand};
use crate::error::ServiceError;
use crate::session::{SessionLedger, SessionSpec, SketchKind};
use crate::shard::{partial, Partition, HELPER, HOME};
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
}

/// A multi-tenant sketch service.
///
/// Named sessions own one sketch each, kept as two identically-drawn
/// partials: home and helper. The batch picks the partition: a `u64` batch
/// of 2048 items or more is cut into two halves, the second applied on the
/// service's one helper thread; anything smaller, and every structured
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
        match shard {
            HOME | HELPER => self
                .partition
                .run(shard, |_| panic!("injected worker panic")),
            _ => Ok(()),
        }
    }

    /// Registers a session. Both partials draw an identical sketch from the
    /// spec's seed; the draws never touch shared state.
    pub fn create_session(&mut self, name: &str, spec: SessionSpec) -> Result<(), ServiceError> {
        if self.sessions.contains_key(name) {
            return Err(ServiceError::DuplicateSession(name.to_string()));
        }
        spec.validate(name)?;
        self.partition.broadcast(|partials| {
            partials.insert(name.to_string(), SessionSketch::new(&spec));
        })?;
        self.sessions.insert(
            name.to_string(),
            SessionEntry {
                spec,
                ledger: SessionLedger::default(),
                epoch: 0,
            },
        );
        Ok(())
    }

    /// Forgets a session on both partials.
    pub fn drop_session(&mut self, name: &str) -> Result<(), ServiceError> {
        self.entry(name)?;
        self.partition.broadcast(|partials| {
            partials.remove(name);
        })?;
        self.sessions.remove(name);
        Ok(())
    }

    /// Feeds a batch of `u64` items: whole to the home partial on the
    /// caller, or, from 2048 items, in two contiguous halves with the second
    /// applied on the helper thread; the call returns once both are
    /// applied. The split never changes semantics — the sketches are
    /// functions of the distinct item set, and the partials merge back
    /// losslessly.
    pub fn ingest(&mut self, name: &str, items: &[u64]) -> Result<(), ServiceError> {
        self.entry(name)?.spec.check_items(name, items)?;
        self.partition.ingest(name, items)?;
        let ledger = &mut self.entry_mut(name)?.ledger;
        ledger.batches += 1;
        ledger.items += items.len() as u64;
        Ok(())
    }

    /// Feeds a batch of structured set items, whole to the home partial.
    pub fn ingest_structured(
        &mut self,
        name: &str,
        sets: &[DnfFormula],
    ) -> Result<(), ServiceError> {
        self.entry(name)?.spec.check_sets(name, sets)?;
        self.partition.run(HOME, |partials| {
            if let Err(e) = partial(partials, name).ingest_structured(name, sets) {
                panic!("shard invariant: item kind mismatch ({e})");
            }
        })?;
        let ledger = &mut self.entry_mut(name)?.ledger;
        ledger.batches += 1;
        ledger.structured_items += sets.len() as u64;
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
        if dst_spec.window.is_some() {
            let dst_epoch = self.entry(dst)?.epoch;
            let src_epoch = self.entry(src)?.epoch;
            if dst_epoch != src_epoch {
                return Err(ServiceError::WindowEpochMismatch {
                    dst: dst.to_string(),
                    src: src.to_string(),
                });
            }
        }
        let merged_src = self.partition.merged(src)?;
        // The whole of `src` lands on `dst`'s home partial; the per-sketch
        // merges are associative and commute with the partition, so
        // estimates and snapshots after this are exactly the direct-run
        // values.
        self.partition
            .run(HOME, |partials| partial(partials, dst).absorb(&merged_src))?;
        self.entry_mut(dst)?.ledger.merges += 1;
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
        self.entry(name)?;
        Ok(self.partition.merged(name)?.into_folded().estimate())
    }

    /// Moves a windowed session to a strictly larger epoch, retiring the
    /// ring slots that rotate out of the window, on both partials. Epochs are
    /// caller-supplied (the service never reads a clock) and must move
    /// strictly forward; violations are typed rejections that leave every
    /// ring untouched.
    pub fn advance(&mut self, name: &str, epoch: u64) -> Result<(), ServiceError> {
        let entry = self.entry(name)?;
        if entry.spec.window.is_none() {
            return Err(ServiceError::NotWindowed(name.to_string()));
        }
        let current = entry.epoch;
        if epoch <= current {
            return Err(ServiceError::EpochRegressed {
                session: name.to_string(),
                current,
                requested: epoch,
            });
        }
        self.partition
            .broadcast(|partials| partial(partials, name).advance(name, epoch))?;
        let entry = self.entry_mut(name)?;
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
        let entry = self.entry(name)?;
        if entry.spec.window.is_none() {
            return Err(ServiceError::NotWindowed(name.to_string()));
        }
        Ok(self.partition.merged(name)?.into_folded().estimate())
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
        let view_a = self.partition.merged(a)?.into_folded();
        let view_b = if a == b {
            view_a.clone()
        } else {
            self.partition.merged(b)?.into_folded()
        };
        Ok(set_algebra_estimates(&view_a, &view_b))
    }

    /// The Estimation strategy's (ε, δ) estimate given a rough `r` (`None`
    /// for other session kinds or a degenerate `r`).
    pub fn estimate_with_r(&self, name: &str, r: u32) -> Result<Option<f64>, ServiceError> {
        self.entry(name)?;
        Ok(self
            .partition
            .merged(name)?
            .into_folded()
            .estimate_with_r(r))
    }

    /// The merged session state's size in bits (windowed sessions: summed
    /// over every ring slot).
    pub fn space_bits(&self, name: &str) -> Result<usize, ServiceError> {
        self.entry(name)?;
        Ok(self.partition.merged(name)?.space_bits())
    }

    /// A fully materialized snapshot of the session (merged sketch + spec +
    /// ledger).
    pub fn snapshot(&self, name: &str) -> Result<SessionSnapshot, ServiceError> {
        let entry = self.entry(name)?;
        let (spec, ledger) = (entry.spec, entry.ledger);
        Ok(SessionSnapshot {
            name: name.to_string(),
            spec,
            ledger,
            sketch: self.partition.merged(name)?,
        })
    }

    /// Serializes the session to its canonical JSON snapshot document.
    pub fn save(&self, name: &str) -> Result<String, ServiceError> {
        Ok(self.snapshot(name)?.to_json())
    }

    /// Restores a session from a [`SketchService::save`] document, under its
    /// saved name. Both partials are re-drawn empty from the saved spec and
    /// the saved state lands on the home partial, so subsequent ingestion
    /// continues exactly where the saved session left off (restore → save
    /// round trips are byte-identical).
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
        if !SessionSketch::new(&spec).same_draw(&sketch) {
            return Err(ServiceError::Snapshot(
                "hash draws do not match the specification's seed".into(),
            ));
        }
        let epoch = match sketch.ring() {
            Some(ring) => ring.epoch(),
            None => 0,
        };
        self.partition.broadcast(|partials| {
            partials.insert(name.clone(), SessionSketch::new(&spec));
        })?;
        // Freshly created ring partials sit at epoch 0; catch both up to the
        // saved epoch (their slots are still empty, so the catch-up retires
        // nothing) before the saved state lands on the home partial — the
        // two rings must be epoch-aligned for every later fold.
        if epoch > 0 {
            self.partition
                .broadcast(|partials| partial(partials, &name).advance(&name, epoch))?;
        }
        self.partition
            .run(HOME, |partials| partial(partials, &name).absorb(&sketch))?;
        self.sessions.insert(
            name.clone(),
            SessionEntry {
                spec,
                ledger,
                epoch,
            },
        );
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

    fn entry_mut(&mut self, name: &str) -> Result<&mut SessionEntry, ServiceError> {
        self.sessions
            .get_mut(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_string()))
    }
}
