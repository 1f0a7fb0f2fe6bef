//! The unpartitioned reference interpreter.
//!
//! [`ReferenceService`] applies the same [`ServiceCommand`] trace surface as
//! [`crate::SketchService`], but holds exactly one direct sketch per session
//! on the calling thread — no partials, no routing, no worker threads. It
//! is the semantic ground truth of the differential suite: the service must
//! reproduce its estimates, ledgers and snapshot documents bit for bit at
//! every batch split.

use crate::command::{CommandReply, ServiceCommand};
use crate::error::ServiceError;
use crate::session::{SessionLedger, SessionSpec, SketchKind};
use crate::sketch::{set_algebra_estimates, SessionSketch};
use crate::snapshot;
use std::collections::BTreeMap;

struct ReferenceEntry {
    spec: SessionSpec,
    ledger: SessionLedger,
    sketch: SessionSketch,
}

impl ReferenceEntry {
    /// The ring's current epoch (0 for unwindowed sessions).
    fn epoch(&self) -> u64 {
        match self.sketch.ring() {
            Some(ring) => ring.epoch(),
            None => 0,
        }
    }
}

/// Direct (unpartitioned) execution of service command traces.
#[derive(Default)]
pub struct ReferenceService {
    sessions: BTreeMap<String, ReferenceEntry>,
}

impl ReferenceService {
    /// An empty interpreter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one command, mirroring [`crate::SketchService::apply`].
    pub fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError> {
        match command {
            ServiceCommand::Create { name, spec } => {
                if self.sessions.contains_key(name) {
                    return Err(ServiceError::DuplicateSession(name.clone()));
                }
                spec.validate(name)?;
                self.sessions.insert(
                    name.clone(),
                    ReferenceEntry {
                        spec: *spec,
                        ledger: SessionLedger::default(),
                        sketch: SessionSketch::new(spec),
                    },
                );
                Ok(CommandReply::Done)
            }
            ServiceCommand::Ingest { name, items } => {
                let entry = self.entry_mut(name)?;
                entry.spec.check_items(name, items)?;
                entry.sketch.ingest(name, items)?;
                entry.ledger.batches += 1;
                entry.ledger.items += items.len() as u64;
                Ok(CommandReply::Done)
            }
            ServiceCommand::IngestStructured { name, sets } => {
                let entry = self.entry_mut(name)?;
                entry.spec.check_sets(name, sets)?;
                entry.sketch.ingest_structured(name, sets)?;
                entry.ledger.batches += 1;
                entry.ledger.structured_items += sets.len() as u64;
                Ok(CommandReply::Done)
            }
            ServiceCommand::Merge { dst, src } => {
                // Same check order as the service (dst first), so
                // error replies compare equal in the differential suite.
                let dst_entry = self.entry(dst)?;
                let src_entry = self.entry(src)?;
                // Self-merge would double-count AMS sessions (multiset-sum
                // merge) and bump the merge ledger without effect for the
                // F0 kinds; rejected after existence, before the (trivially
                // passing) spec check — mirroring the service.
                if dst == src {
                    return Err(ServiceError::MergeSelf(dst.clone()));
                }
                if dst_entry.spec != src_entry.spec {
                    return Err(ServiceError::MergeIncompatible {
                        dst: dst.clone(),
                        src: src.clone(),
                    });
                }
                // Windowed twins must sit at the same epoch (ring slots only
                // line up when the rings are aligned) — same check position
                // as the service.
                if dst_entry.spec.window.is_some() && dst_entry.epoch() != src_entry.epoch() {
                    return Err(ServiceError::WindowEpochMismatch {
                        dst: dst.clone(),
                        src: src.clone(),
                    });
                }
                let src_sketch = src_entry.sketch.clone();
                let dst_entry = self.entry_mut(dst)?;
                dst_entry.sketch.absorb(&src_sketch);
                dst_entry.ledger.merges += 1;
                Ok(CommandReply::Done)
            }
            ServiceCommand::Advance { name, epoch } => {
                let entry = self.entry_mut(name)?;
                if entry.spec.window.is_none() {
                    return Err(ServiceError::NotWindowed(name.clone()));
                }
                let current = entry.epoch();
                if *epoch <= current {
                    return Err(ServiceError::EpochRegressed {
                        session: name.clone(),
                        current,
                        requested: *epoch,
                    });
                }
                entry.sketch.advance(name, *epoch);
                entry.ledger.advances += 1;
                Ok(CommandReply::Done)
            }
            ServiceCommand::Estimate { name } => Ok(CommandReply::Estimate(
                self.entry(name)?.sketch.folded().estimate(),
            )),
            ServiceCommand::EstimateWindow { name } => {
                let entry = self.entry(name)?;
                if entry.spec.window.is_none() {
                    return Err(ServiceError::NotWindowed(name.clone()));
                }
                Ok(CommandReply::Estimate(entry.sketch.folded().estimate()))
            }
            ServiceCommand::IntersectionEstimate { a, b } => {
                Ok(CommandReply::Estimate(self.set_algebra(a, b)?.0))
            }
            ServiceCommand::JaccardEstimate { a, b } => {
                Ok(CommandReply::Estimate(self.set_algebra(a, b)?.1))
            }
            ServiceCommand::EstimateWithR { name, r } => Ok(CommandReply::MaybeEstimate(
                self.entry(name)?.sketch.folded().estimate_with_r(*r),
            )),
            ServiceCommand::SpaceBits { name } => Ok(CommandReply::SpaceBits(
                self.entry(name)?.sketch.space_bits(),
            )),
            ServiceCommand::Save { name } => {
                let entry = self.entry(name)?;
                Ok(CommandReply::Snapshot(snapshot::encode(
                    name,
                    &entry.spec,
                    &entry.ledger,
                    &entry.sketch,
                )))
            }
            ServiceCommand::Drop { name } => {
                self.entry(name)?;
                self.sessions.remove(name);
                Ok(CommandReply::Done)
            }
        }
    }

    /// The ledger of a session (for ledger-pinning assertions).
    pub fn ledger(&self, name: &str) -> Result<&SessionLedger, ServiceError> {
        self.entry(name).map(|e| &e.ledger)
    }

    /// Shared validation + computation of the set-algebra pair, in the same
    /// check order as [`crate::SketchService`] (existence of `a`, existence
    /// of `b`, spec equality, kind support) so error replies compare equal.
    fn set_algebra(&self, a: &str, b: &str) -> Result<(f64, f64), ServiceError> {
        let entry_a = self.entry(a)?;
        let entry_b = self.entry(b)?;
        if entry_a.spec != entry_b.spec {
            return Err(ServiceError::SpecMismatch {
                a: a.to_string(),
                b: b.to_string(),
            });
        }
        if entry_a.spec.kind == SketchKind::Ams {
            return Err(ServiceError::SetAlgebraUnsupported {
                a: a.to_string(),
                b: b.to_string(),
            });
        }
        Ok(set_algebra_estimates(
            &entry_a.sketch.folded(),
            &entry_b.sketch.folded(),
        ))
    }

    /// Registered session names, sorted.
    pub fn list_sessions(&self) -> Vec<String> {
        self.sessions.keys().cloned().collect()
    }

    fn entry(&self, name: &str) -> Result<&ReferenceEntry, ServiceError> {
        self.sessions
            .get(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_string()))
    }

    fn entry_mut(&mut self, name: &str) -> Result<&mut ReferenceEntry, ServiceError> {
        self.sessions
            .get_mut(name)
            .ok_or_else(|| ServiceError::UnknownSession(name.to_string()))
    }
}
