//! Crash-safe durability: [`SketchService`] behind a write-ahead command
//! log and a checkpoint store.
//!
//! The design reuses the two halves the service already had: canonical
//! `mcf0-sketch-service/v1` snapshot documents (the checkpoint payload) and
//! the replayable [`ServiceCommand`] trace surface (the log payload).
//! A store directory holds
//!
//! ```text
//! store/
//! ├── checkpoint.json       # manifest: generation + one snapshot per session
//! └── wal-<generation>.log  # command log since that checkpoint
//! ```
//!
//! **Write path.** Every mutating command is framed and appended to the log
//! *before* it reaches the in-memory service (write-ahead); fsyncs are
//! batched by the [`DurableConfig::group_commit`] window. Queries are never
//! logged — they replay to the same answers from the same state.
//!
//! **Recovery** (`open`) = latest checkpoint + log replay: restore every
//! session document from the manifest, then re-apply the logged commands in
//! order through the exact `apply` surface the differential harness pins.
//! Replay is convergent even across commands that *failed* originally —
//! rejection is deterministic, so the same command is rejected again and
//! state is unchanged. A torn or corrupt log tail is truncated at the first
//! bad frame and reported as a typed [`ServiceError::WalRecord`] in the
//! [`RecoveryReport`]; recovery never panics on malformed input.
//!
//! **Checkpoint / compaction.** [`DurableSketchService::checkpoint`] saves
//! every session (read-only: `&self` service reads), writes the manifest
//! atomically (temp file + fsync + rename + directory fsync) with a bumped
//! generation pointing at a fresh, already-synced empty log, then deletes
//! the old log. A crash *before* the rename recovers from the old
//! checkpoint + full old log; a crash *after* it recovers from the new
//! checkpoint + empty new log — both bit-identical to the pre-crash state.
//! Stale logs from other generations are swept on open.
//!
//! **Fault model.** All IO goes through the [`Storage`] trait
//! ([`FsStorage`] in production, [`crate::FaultyStorage`] under the fault
//! harness) and every operation is retried under the
//! [`DurableConfig::retry`] policy — transient glitches are absorbed
//! invisibly. When retries exhaust, the store moves through an explicit
//! state machine (see [`Health`]):
//!
//! * A mutating command whose log append gives up returns the typed storage
//!   error and flips the store into **degraded read-only mode**: queries
//!   keep serving from memory, every mutation is rejected with
//!   [`ServiceError::Degraded`], and nothing is silently dropped.
//! * A checkpoint that fails *before* its manifest rename leaves the old
//!   generation fully intact — the store stays healthy and keeps logging.
//! * A checkpoint whose rename landed but whose directory fsync gave up is
//!   *published but maybe not durable*: a machine crash could rewind the
//!   rename, so the store keeps the superseded log and degrades rather
//!   than risk logging commands only the possibly-lost generation knows.
//! * A shard panic triggers an automatic **rebuild**: the log window
//!   is synced and the whole service is reloaded from checkpoint + log
//!   through the normal recovery surface. Write-ahead means the panicking
//!   mutating command is already on disk, so the rebuilt state *includes*
//!   it and the command reports success. If the rebuild itself fails (the
//!   disk died too), the store degrades with a stale memory image and
//!   [`DurableSketchService::heal`] must reload before serving.
//!
//! [`DurableSketchService::heal`] is the way back: once the operator fixed
//! the storage, it re-reads state if necessary, re-publishes a fresh
//! checkpoint generation onto the repaired storage and resumes logging.

use crate::command::{CommandReply, ServiceCommand};
use crate::error::ServiceError;
use crate::service::SketchService;
use crate::session::{SessionLedger, SessionSpec};
use crate::storage::{with_retries, FsStorage, RetryPolicy, Storage};
use crate::wal::{self, WalWriter};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the checkpoint manifest inside the store directory.
const MANIFEST_FILE: &str = "checkpoint.json";

/// Magic/version tag of the manifest format.
pub const MANIFEST_FORMAT: &str = "mcf0-wal-checkpoint/v1";

fn wal_file_name(generation: u64) -> String {
    format!("wal-{generation:020}.log")
}

/// The checkpoint manifest: which log generation follows it, plus one
/// canonical snapshot document per session (sorted by session name).
#[derive(Serialize, Deserialize)]
struct ManifestDoc {
    format: String,
    generation: u64,
    sessions: Vec<String>,
}

/// Durability knobs.
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// Group-commit window: fsync the log once per this many appended
    /// commands (1 = every command is durable before it is applied). A
    /// machine crash loses at most the unsynced suffix of the current
    /// window; a process crash loses nothing appended.
    pub group_commit: usize,
    /// Compact automatically: checkpoint (and start a fresh log) as soon as
    /// the log grows past this many bytes. `None` leaves compaction to
    /// explicit [`DurableSketchService::checkpoint`] calls.
    pub compact_after_bytes: Option<u64>,
    /// Bounded deterministic-backoff retry policy wrapped around every
    /// storage operation. Exhausting it on the write path degrades the
    /// store (see the module docs).
    pub retry: RetryPolicy,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            group_commit: 1,
            compact_after_bytes: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// The degradation state machine of the durable store.
///
/// ```text
///            append / checkpoint-durability give-up
/// Healthy ──────────────────────────────────────────▶ Degraded
///    ▲                                                   │
///    └────────────────── heal() ◀────────────────────────┘
/// ```
///
/// Degraded mode is **read-only**: queries keep serving from the in-memory
/// service, mutations return [`ServiceError::Degraded`]. When the memory
/// image itself is unreliable (`inner_stale` — a shard panicked *and* the
/// rebuild from storage failed), queries are rejected too, and
/// [`DurableSketchService::heal`] reloads from storage before resuming.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Health {
    /// Full service: mutations logged and applied, queries served.
    Healthy,
    /// Storage gave up; mutations rejected until [`DurableSketchService::heal`].
    Degraded {
        /// The failure that forced the transition.
        reason: String,
        /// The in-memory service no longer matches the durable state (a
        /// shard panic could not be repaired by rebuild); reads are
        /// rejected as well, and heal() must reload from storage.
        inner_stale: bool,
    },
}

/// What [`DurableSketchService::open`] found and did.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Sessions restored from the checkpoint manifest.
    pub checkpoint_sessions: usize,
    /// Commands replayed from the log (counting ones that were rejected —
    /// rejection is deterministic, so replaying them is convergent).
    pub replayed: usize,
    /// The typed error describing the torn/corrupt log tail that was
    /// truncated, if any ([`ServiceError::WalRecord`]).
    pub truncated: Option<ServiceError>,
}

/// A [`SketchService`] with crash-safe durability (write-ahead log +
/// checkpoint recovery) and an explicit fault model (retries, degraded
/// read-only mode, shard-panic rebuild — see the module docs). The
/// in-memory service is untouched — this wrapper adds logging around
/// [`SketchService::apply`], persistence IO, and supervision reactions.
pub struct DurableSketchService {
    inner: SketchService,
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    wal: WalWriter,
    generation: u64,
    config: DurableConfig,
    health: Health,
}

impl DurableSketchService {
    /// Opens (or initializes) the store at `dir` on the real filesystem and
    /// recovers: latest checkpoint + log replay, torn tail truncated. The
    /// recovered state is bit-identical to the durable prefix of the
    /// pre-crash command history — the invariant the kill-point
    /// differential suite pins. `shards` is ignored, as in
    /// [`SketchService::new`]; pass 1.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: usize,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        Self::open_with(Arc::new(FsStorage), dir, shards, config)
    }

    /// [`DurableSketchService::open`] over an explicit [`Storage`] backend —
    /// the entry point the fault-schedule harness uses to run the service
    /// over [`crate::FaultyStorage`]. `shards` is ignored; pass 1.
    pub fn open_with(
        storage: Arc<dyn Storage>,
        dir: impl AsRef<Path>,
        _shards: usize,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let dir = dir.as_ref().to_path_buf();
        let (inner, generation, wal, report) = Self::load(&storage, &dir, &config)?;
        Ok((
            DurableSketchService {
                inner,
                storage,
                dir,
                wal,
                generation,
                config,
                health: Health::Healthy,
            },
            report,
        ))
    }

    /// The recovery core shared by [`DurableSketchService::open_with`], the
    /// rebuild-after-panic path and the stale-image half of
    /// [`DurableSketchService::heal`]: restore the manifest's sessions,
    /// replay the log's valid prefix, truncate its bad tail, sweep stale
    /// generations.
    fn load(
        storage: &Arc<dyn Storage>,
        dir: &Path,
        config: &DurableConfig,
    ) -> Result<(SketchService, u64, WalWriter, RecoveryReport), ServiceError> {
        let retry = &config.retry;
        with_retries(retry, || storage.create_dir_all(dir))?;

        // 1. Latest checkpoint (absent on first open).
        let manifest_path = dir.join(MANIFEST_FILE);
        let mut inner = SketchService::new(1);
        let mut generation = 0u64;
        let mut checkpoint_sessions = 0usize;
        if let Some(bytes) = with_retries(retry, || storage.read(&manifest_path))? {
            let text = std::str::from_utf8(&bytes)
                .map_err(|e| ServiceError::Snapshot(format!("checkpoint manifest: {e}")))?;
            let doc: ManifestDoc = serde_json::from_str(text)
                .map_err(|e| ServiceError::Snapshot(format!("checkpoint manifest: {e}")))?;
            if doc.format != MANIFEST_FORMAT {
                return Err(ServiceError::Snapshot(format!(
                    "unsupported checkpoint format tag `{}`",
                    doc.format
                )));
            }
            for session in &doc.sessions {
                // Decoding validates each document's shape and checks its
                // hashes against one draw from its seed, which the restored
                // state is built on; a defect or duplicate session name is a
                // typed error.
                inner.restore(session)?;
            }
            generation = doc.generation;
            checkpoint_sessions = doc.sessions.len();
        }

        // 2. Stream this generation's log and replay its valid prefix.
        //    The cursor reads in bounded chunks through
        //    [`crate::storage::Storage::read_range`] and each record is
        //    decoded, applied and dropped before the next is read — peak
        //    recovery memory no longer scales with the log size.
        let scan_path = dir.join(wal_file_name(generation));
        let mut cursor = wal::WalCursor::new(storage.as_ref(), &scan_path, *retry);
        let mut replayed = 0usize;
        let (valid_len, truncated) = loop {
            let Some(record) = cursor.next_record()? else {
                break cursor.finish();
            };
            match ServiceCommand::from_log_record(&record.payload) {
                Ok(command) => {
                    // A shard panicking *during replay* makes the reload itself
                    // unreliable, so recovery fails as a value (the
                    // deterministically-poisonous-command edge the design
                    // notes document). Every other failed command fails
                    // identically on replay (see the module docs); its reply
                    // is not interesting here.
                    if let Err(e @ ServiceError::ShardPanicked { .. }) = inner.apply(&command) {
                        return Err(e);
                    }
                    replayed += 1;
                }
                Err(reason) => {
                    // Checksummed but undecodable: treat like any other
                    // corrupt frame — truncate here, keep the prefix.
                    break (
                        record.offset,
                        Some(ServiceError::WalRecord {
                            offset: record.offset,
                            reason: format!("undecodable command record: {reason}"),
                        }),
                    );
                }
            }
        };

        // 3. Truncate the bad tail (if any) and keep appending after the
        //    valid prefix.
        let wal = WalWriter::open_at(
            storage.as_ref(),
            &scan_path,
            valid_len,
            config.group_commit,
            retry,
        )?;

        // 4. Sweep stale logs from other generations (the old log a crash
        //    interrupted checkpoint-deletion of, or the pre-published log of
        //    a checkpoint that never renamed its manifest).
        if let Ok(names) = storage.list(dir) {
            let keep = wal_file_name(generation);
            for name in names {
                if name.starts_with("wal-") && name.ends_with(".log") && name != keep {
                    let _ = storage.delete(&dir.join(name));
                }
            }
        }

        Ok((
            inner,
            generation,
            wal,
            RecoveryReport {
                checkpoint_sessions,
                replayed,
                truncated,
            },
        ))
    }

    /// Applies one command with write-ahead durability: mutating commands
    /// are logged (and group-commit-synced) before they touch the service;
    /// queries pass straight through. Triggers compaction when the log
    /// outgrows [`DurableConfig::compact_after_bytes`].
    ///
    /// Fault reactions (see the module docs): log-append give-up degrades
    /// the store; a shard panic rebuilds from checkpoint + log and —
    /// because the command was already logged — still reports success.
    pub fn apply(&mut self, command: &ServiceCommand) -> Result<CommandReply, ServiceError> {
        if let Health::Degraded {
            reason,
            inner_stale,
        } = &self.health
        {
            let reason = reason.clone();
            if command.mutates() || *inner_stale {
                return Err(ServiceError::Degraded { reason });
            }
            // Degraded is read-only, not read-dead: queries keep serving
            // from the (still consistent) memory image.
            return match self.inner.apply(command) {
                Err(ServiceError::ShardPanicked { .. }) => {
                    // A shard panicked while storage is down, so the usual
                    // rebuild path is unavailable; the memory image is now
                    // unreliable too and heal() must reload it.
                    self.health = Health::Degraded {
                        reason: reason.clone(),
                        inner_stale: true,
                    };
                    Err(ServiceError::Degraded { reason })
                }
                other => other,
            };
        }

        let logged = command.mutates();
        if logged {
            let mut payload = String::new();
            command.serialize_json(&mut payload);
            if let Err(e) = self.wal.append(payload.as_bytes(), &self.config.retry) {
                // An oversized command is the *caller's* defect, not the
                // disk's: the writer rejected it before touching storage,
                // nothing was logged or applied, and the store stays
                // healthy for everyone else.
                if let ServiceError::FrameTooLarge { .. } = e {
                    return Err(e);
                }
                // Retries are exhausted inside the writer; a command that
                // cannot be made durable must not be applied. Nothing
                // reached the in-memory service, so reads stay consistent —
                // degrade to read-only and report the give-up.
                self.health = Health::Degraded {
                    reason: e.to_string(),
                    inner_stale: false,
                };
                return Err(e);
            }
        }
        let reply = match self.inner.apply(command) {
            Err(ServiceError::ShardPanicked { .. }) => self.rebuild_after_panic(command),
            other => other,
        };
        if logged && reply.is_ok() {
            if let Some(limit) = self.config.compact_after_bytes {
                // After the apply, so the checkpoint includes this command
                // before its log record is compacted away. Compaction
                // failure never fails the (already durable and applied)
                // command: a pre-publication failure leaves the old
                // generation serving and is retried at the next trigger; a
                // post-publication durability failure degrades the store
                // via `publish_checkpoint` itself.
                if self.wal.len() >= limit {
                    let _ = self.publish_checkpoint(true);
                }
            }
        }
        reply
    }

    /// The supervision reaction to retired partials: reload the whole
    /// service from checkpoint + log through the normal recovery surface.
    ///
    /// Write-ahead logging makes this sound for the *triggering* command
    /// too: a mutating command is on disk before it reaches the partials, so
    /// the replayed state includes it and the command reports success; a
    /// query is simply re-run against the rebuilt service. If the rebuild
    /// fails (storage died as well, or the log holds a command that
    /// deterministically panics on replay), the store degrades with a stale
    /// memory image.
    fn rebuild_after_panic(
        &mut self,
        command: &ServiceCommand,
    ) -> Result<CommandReply, ServiceError> {
        let rebuilt = self
            .wal
            .sync(&self.config.retry)
            .and_then(|()| Self::load(&self.storage, &self.dir, &self.config));
        match rebuilt {
            Ok((inner, generation, wal, _report)) => {
                self.inner = inner;
                self.generation = generation;
                self.wal = wal;
                if command.mutates() {
                    // Logged before dispatch, replayed by the reload: the
                    // command *is* in the rebuilt state.
                    Ok(CommandReply::Done)
                } else {
                    self.inner.apply(command)
                }
            }
            Err(e) => {
                let reason = format!("shard worker panicked and the rebuild failed: {e}");
                self.health = Health::Degraded {
                    reason: reason.clone(),
                    inner_stale: true,
                };
                Err(ServiceError::Degraded { reason })
            }
        }
    }

    /// Writes a checkpoint and compacts the log: every session's canonical
    /// snapshot goes into a new manifest (atomic temp-file + rename +
    /// directory fsync) whose bumped generation points at a fresh empty
    /// log; the old log is deleted afterwards. Crash-safe at every step —
    /// see the module docs for the two crash windows and the fault
    /// taxonomy (pre-publication failures keep the store healthy on the
    /// old generation; a published-but-not-durable checkpoint degrades it).
    pub fn checkpoint(&mut self) -> Result<(), ServiceError> {
        if let Health::Degraded { reason, .. } = &self.health {
            return Err(ServiceError::Degraded {
                reason: reason.clone(),
            });
        }
        self.publish_checkpoint(true)
    }

    /// The checkpoint-publication engine. `sync_old` drains the current
    /// log's group-commit window first (the normal path; [`Self::heal`]
    /// skips it — the old log may live on dead storage and the in-memory
    /// state is authoritative there).
    fn publish_checkpoint(&mut self, sync_old: bool) -> Result<(), ServiceError> {
        let retry = self.config.retry;
        if sync_old {
            // Anything still in the group-commit window must be durable
            // before the old log becomes the fallback of a half-finished
            // checkpoint. Give-up here is harmless: old generation intact.
            self.wal.sync(&retry)?;
        }

        let next = self.generation + 1;
        let mut sessions = Vec::new();
        for name in self.inner.list_sessions() {
            sessions.push(self.inner.save(&name)?);
        }
        let doc = ManifestDoc {
            format: MANIFEST_FORMAT.to_string(),
            generation: next,
            sessions,
        };
        let mut manifest = String::new();
        doc.serialize_json(&mut manifest);

        // New log first: the manifest must never point at a file that could
        // be lost by a crash.
        let new_wal_path = self.dir.join(wal_file_name(next));
        let new_wal = match WalWriter::create(
            self.storage.as_ref(),
            &new_wal_path,
            self.config.group_commit,
            &retry,
        ) {
            Ok(w) => w,
            Err(e) => {
                let _ = self.storage.delete(&new_wal_path);
                return Err(e);
            }
        };

        // Publish the manifest atomically. A failure anywhere up to and
        // including the rename leaves the old generation fully intact (the
        // tmp file and the fresh log are swept best-effort), so the store
        // stays healthy and keeps logging where it was.
        let tmp = self.dir.join("checkpoint.json.tmp");
        let final_path = self.dir.join(MANIFEST_FILE);
        let published = write_whole_file(self.storage.as_ref(), &tmp, manifest.as_bytes(), &retry)
            .and_then(|()| with_retries(&retry, || self.storage.rename(&tmp, &final_path)));
        if let Err(e) = published {
            let _ = self.storage.delete(&tmp);
            let _ = self.storage.delete(&new_wal_path);
            return Err(e);
        }

        // The rename is visible; only its directory entry's durability
        // remains. The superseded writer is dropped, not `close`d: its
        // window was drained above when it mattered, and its file is about
        // to be deleted.
        let old_path = self.dir.join(wal_file_name(self.generation));
        self.generation = next;
        self.wal = new_wal;
        if let Err(e) = with_retries(&retry, || self.storage.sync_dir(&self.dir)) {
            // Published but maybe not durable: a machine crash could rewind
            // the rename to the old manifest. Logging on would put commands
            // where that rewound state would never look, so the old log is
            // KEPT as the fallback and the store degrades instead.
            let reason = format!("checkpoint {next} published but not durable: {e}");
            self.health = Health::Degraded {
                reason: reason.clone(),
                inner_stale: false,
            };
            return Err(ServiceError::Degraded { reason });
        }
        // Fully durable: the old log is superseded (best-effort delete;
        // open() sweeps leftovers).
        let _ = self.storage.delete(&old_path);
        Ok(())
    }

    /// Attempts to leave degraded mode after the storage was repaired (or
    /// replaced — with [`crate::FaultyStorage`] that is
    /// [`crate::FaultyStorage::clear`]): reloads the in-memory image from
    /// storage if it went stale, then re-publishes a fresh checkpoint
    /// generation and resumes logging. Returns `Ok(true)` when a heal
    /// happened, `Ok(false)` when the store was healthy all along; on
    /// `Err`, the store stays degraded and heal can be retried.
    pub fn heal(&mut self) -> Result<bool, ServiceError> {
        let stale = match &self.health {
            Health::Healthy => return Ok(false),
            Health::Degraded { inner_stale, .. } => *inner_stale,
        };
        if stale {
            // The memory image is unreliable (unrepaired shard panic):
            // reload the durable state through the normal recovery surface
            // before re-publishing it.
            let (inner, generation, wal, _report) =
                Self::load(&self.storage, &self.dir, &self.config)?;
            self.inner = inner;
            self.generation = generation;
            self.wal = wal;
        }
        // Re-publish everything under a fresh generation onto the repaired
        // storage. The old log is not trusted (its writer may be broken, or
        // its durability unknown) — the in-memory state is authoritative,
        // hence `sync_old: false`.
        self.publish_checkpoint(false)?;
        self.health = Health::Healthy;
        Ok(true)
    }

    /// Forces the group-commit window to stable storage now.
    pub fn sync(&mut self) -> Result<(), ServiceError> {
        self.wal.sync(&self.config.retry)
    }

    /// Explicitly retires the service: drains the group-commit window with
    /// a final sync and reports failure as a value — the fallible
    /// counterpart of just dropping it (which syncs best-effort).
    pub fn close(self) -> Result<(), ServiceError> {
        let DurableSketchService { wal, config, .. } = self;
        wal.close(&config.retry)
    }

    /// Current health of the degradation state machine.
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// Whether the store is in degraded read-only mode.
    pub fn is_degraded(&self) -> bool {
        matches!(self.health, Health::Degraded { .. })
    }

    /// The wrapped in-memory service (all read surfaces).
    pub fn service(&self) -> &SketchService {
        &self.inner
    }

    /// Current checkpoint generation (0 before the first checkpoint).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Current log length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Path of the active log file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join(wal_file_name(self.generation))
    }

    /// The session's current estimate (read-only; not logged).
    pub fn estimate(&self, name: &str) -> Result<f64, ServiceError> {
        self.inner.estimate(name)
    }

    /// Serializes a session to its canonical snapshot document.
    pub fn save(&self, name: &str) -> Result<String, ServiceError> {
        self.inner.save(name)
    }

    /// The merged sketch's size in bits.
    pub fn space_bits(&self, name: &str) -> Result<usize, ServiceError> {
        self.inner.space_bits(name)
    }

    /// A session's command-accounting ledger.
    pub fn ledger(&self, name: &str) -> Result<&SessionLedger, ServiceError> {
        self.inner.ledger(name)
    }

    /// A session's specification.
    pub fn spec(&self, name: &str) -> Result<&SessionSpec, ServiceError> {
        self.inner.spec(name)
    }

    /// Registered session names, sorted.
    pub fn list_sessions(&self) -> Vec<String> {
        self.inner.list_sessions()
    }
}

/// Writes `bytes` as the full contents of `path` (create + append + fsync),
/// clearing partial bytes with a truncate-to-zero before every append retry
/// so a short write can never leave garbage in front of a later attempt —
/// the same self-resetting discipline as the log writer's.
fn write_whole_file(
    storage: &dyn Storage,
    path: &Path,
    bytes: &[u8],
    retry: &RetryPolicy,
) -> Result<(), ServiceError> {
    let mut file = with_retries(retry, || storage.create(path))?;
    let mut attempt = 0u32;
    loop {
        match file.append(bytes) {
            Ok(()) => break,
            Err(e) => {
                if file.truncate(0).is_err() || attempt >= retry.max_retries {
                    return Err(e);
                }
                std::thread::sleep(std::time::Duration::from_millis(retry.delay_ms(attempt)));
                attempt += 1;
            }
        }
    }
    with_retries(retry, || file.sync())
}
