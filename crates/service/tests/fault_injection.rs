//! Fault-schedule differential harness: the IO-error analogue of the
//! durability suite's kill-point property, plus partial supervision and
//! the degradation state machine.
//!
//! The central property enumerates **every storage operation** of a
//! reference trace (recorded by [`FaultyStorage`] on a fault-free run) and
//! re-runs the trace once per operation index with a scripted fault
//! injected there:
//!
//! * a **transient** fault (fires once) must be absorbed invisibly by the
//!   retry policy — the reply stream is bit-identical to the fault-free run
//!   and the store never degrades;
//! * a **persistent** fault (a dead disk from that operation on) must
//!   surface as typed errors only — the store degrades to read-only instead
//!   of panicking or corrupting state, and after the disk is "repaired"
//!   ([`FaultyStorage::clear`]) a [`DurableSketchService::heal`] brings it
//!   back bit-identical to a [`ReferenceService`] over exactly the
//!   successfully-acknowledged command prefix, both in memory and after a
//!   full close/reopen from disk.
//!
//! Around that core: checkpoint-publication faults at every step (tmp
//! write, tmp fsync, rename, directory fsync, old-log delete) must leave a
//! recoverable generation behind; panics in either partial, on the
//! caller's thread or the helper thread, are caught by the supervisor,
//! reported as [`ServiceError::ShardPanicked`] values and repaired by the
//! durable layer's automatic rebuild; and the retry policy's deterministic
//! backoff schedule is pinned by a property test.

// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_bench::service_support::random_trace;
use mcf0_service::{
    with_retries, CommandReply, DurableConfig, DurableSketchService, FaultKind, FaultPlan,
    FaultyStorage, FsStorage, ReferenceService, RetryPolicy, ServiceCommand, ServiceError,
    SessionSpec, SketchKind, SketchService,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const BITS: usize = 16;

/// Ingest batch lengths on both sides of the service's split: 16 items go
/// whole to the home partial on the caller; 8192 (four times the
/// `2 × HELPER_MIN_ITEMS` of `src/shard.rs`) are split, and the second half
/// runs on the helper thread.
const BATCH_LENS: [u64; 2] = [16, 8192];

/// Self-cleaning scratch directory (the container has no tempfile crate;
/// process id + a counter keep parallel test binaries apart).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("mcf0-faults-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create scratch dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The supervision tests inject panics on purpose, on whichever thread runs
/// the partial; silence the default panic-hook output for exactly those
/// payloads (the panics are still observed — as the typed errors the
/// assertions pin).
fn silence_worker_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let ours = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|message| *message == "injected worker panic");
            if !ours {
                default(info);
            }
        }));
    });
}

fn default_spec() -> SessionSpec {
    SessionSpec {
        kind: SketchKind::Minimum,
        universe_bits: BITS,
        epsilon: 0.5,
        delta: 0.2,
        thresh: 40,
        rows: 3,
        columns: 0,
        seed: 7,
        window: None,
    }
}

/// Zero-backoff retries so persistent faults exhaust instantly; a small
/// group-commit window so sync scheduling differs from append scheduling.
fn config() -> DurableConfig {
    DurableConfig {
        group_commit: 2,
        compact_after_bytes: None,
        retry: RetryPolicy::immediate(2),
    }
}

fn fresh_storage() -> FaultyStorage {
    FaultyStorage::new(Arc::new(FsStorage))
}

fn open(storage: &FaultyStorage, dir: &TempDir) -> Result<DurableSketchService, ServiceError> {
    DurableSketchService::open_with(Arc::new(storage.clone()), dir.path(), 1, config())
        .map(|(service, _report)| service)
}

/// The fault kind that exercises the most interesting failure mode of the
/// operation recorded at a schedule index.
fn kind_for(op_name: &str) -> FaultKind {
    match op_name {
        "append" => FaultKind::ShortWrite,
        "sync" | "sync_dir" => FaultKind::FsyncFail,
        "rename" => FaultKind::RenameFail,
        "create" => FaultKind::Enospc,
        _ => FaultKind::Error,
    }
}

/// Pins the durable service's observable state bit-identical to the
/// reference interpreter: session lists, ledgers, and full snapshot
/// documents (which embed estimates, draws and sketch payloads).
fn assert_state_matches(durable: &DurableSketchService, reference: &mut ReferenceService) {
    let sessions = durable.list_sessions();
    assert_eq!(sessions, reference.list_sessions());
    for name in sessions {
        assert_eq!(
            durable.ledger(&name).unwrap(),
            reference.ledger(&name).unwrap(),
            "ledger of `{name}`"
        );
        let expected = match reference
            .apply(&ServiceCommand::Save { name: name.clone() })
            .unwrap()
        {
            CommandReply::Snapshot(doc) => doc,
            other => panic!("Save replied {other:?}"),
        };
        assert_eq!(
            durable.save(&name).unwrap(),
            expected,
            "snapshot of `{name}`"
        );
    }
}

/// The central enumeration property (see the module docs). One seeded trace
/// with a mid-trace checkpoint; the fault-free run records the complete
/// storage-operation schedule; every index is then re-run twice, once with
/// a transient and once with a persistent fault.
#[test]
fn every_single_fault_point_is_absorbed_or_degrades_cleanly_and_heals() {
    let trace = random_trace(5, BITS, 18);
    let checkpoint_after = trace.len() / 2;

    // Fault-free reference run: reply stream + the IO schedule to enumerate.
    let (clean_replies, schedule) = {
        let dir = TempDir::new("clean");
        let storage = fresh_storage();
        let mut durable = open(&storage, &dir).unwrap();
        let mut replies = Vec::new();
        for (i, cmd) in trace.iter().enumerate() {
            replies.push(durable.apply(cmd));
            if i + 1 == checkpoint_after {
                durable.checkpoint().unwrap();
            }
        }
        durable.close().unwrap();
        (replies, storage.op_log())
    };
    assert!(
        schedule.len() > 30,
        "expected a rich IO schedule, got {} ops",
        schedule.len()
    );

    for (at_op, op) in schedule.iter().enumerate() {
        let kind = kind_for(op.name);

        // --- Transient fault: retries absorb it invisibly. ---
        {
            let dir = TempDir::new("transient");
            let storage = fresh_storage();
            storage.arm(FaultPlan {
                at_op,
                kind,
                persistent: false,
            });
            let mut durable = open(&storage, &dir)
                .unwrap_or_else(|e| panic!("transient {kind:?} at op {at_op} broke open: {e}"));
            let mut replies = Vec::new();
            for (i, cmd) in trace.iter().enumerate() {
                replies.push(durable.apply(cmd));
                if i + 1 == checkpoint_after {
                    durable.checkpoint().unwrap();
                }
            }
            assert_eq!(
                replies, clean_replies,
                "transient {kind:?} at op {at_op} changed the reply stream"
            );
            assert!(!durable.is_degraded());
            assert!(storage.injected() <= 1);
            durable.close().unwrap();
        }

        // --- Persistent fault: typed errors, clean degradation, heal. ---
        {
            let dir = TempDir::new("persistent");
            let storage = fresh_storage();
            storage.arm(FaultPlan {
                at_op,
                kind,
                persistent: true,
            });
            let mut durable = match open(&storage, &dir) {
                Ok(service) => service,
                Err(_typed) => {
                    // The dead disk hit recovery itself: a typed error, no
                    // panic — and the store was not corrupted, so an open on
                    // repaired storage comes up (empty: nothing durable yet).
                    storage.clear();
                    let durable = open(&storage, &dir).unwrap();
                    assert!(durable.list_sessions().is_empty());
                    continue;
                }
            };
            // Ground truth accumulates exactly the commands the durable
            // store acknowledged; storage give-ups and degraded-mode
            // rejections are NOT in the durable prefix.
            let mut reference = ReferenceService::new();
            for (i, cmd) in trace.iter().enumerate() {
                match durable.apply(cmd) {
                    Ok(_) => {
                        let _ = reference.apply(cmd);
                    }
                    Err(ServiceError::Storage(_)) | Err(ServiceError::Degraded { .. }) => {}
                    Err(_deterministic_rejection) => {
                        // The reference rejects it identically; replaying
                        // keeps the interpreters in lockstep.
                        let _ = reference.apply(cmd);
                    }
                }
                if i + 1 == checkpoint_after {
                    let _ = durable.checkpoint();
                }
            }

            // "Replace the disk" and heal. Whether the fault ever became
            // visible (it may have hit only best-effort operations), the
            // store must end healthy and bit-identical to the reference —
            // in memory and through a full close/reopen from disk.
            storage.clear();
            durable
                .heal()
                .unwrap_or_else(|e| panic!("heal after {kind:?} at op {at_op} failed: {e}"));
            assert!(!durable.is_degraded());
            assert_state_matches(&durable, &mut reference);
            durable.close().unwrap();
            let reopened = open(&storage, &dir).unwrap();
            assert_state_matches(&reopened, &mut reference);
        }
    }
}

/// Satellite pin for the checkpoint-publication steps specifically: a
/// persistent fault at each operation of the publication sequence (old-log
/// drain, new-log create+fsync, tmp write, tmp fsync, rename, directory
/// fsync, old-log delete) must leave *some* complete generation behind —
/// the store either stays healthy on the old one or degrades and heals —
/// and reopening from disk recovers the exact pre-checkpoint state.
#[test]
fn checkpoint_publication_faults_leave_a_recoverable_generation() {
    let trace = random_trace(9, BITS, 12);

    // Fault-free run to locate the checkpoint's slice of the IO schedule.
    let (start, end, schedule) = {
        let dir = TempDir::new("ckpt-clean");
        let storage = fresh_storage();
        let mut durable = open(&storage, &dir).unwrap();
        for cmd in &trace {
            let _ = durable.apply(cmd);
        }
        let start = storage.op_count();
        durable.checkpoint().unwrap();
        let end = storage.op_count();
        durable.close().unwrap();
        (start, end, storage.op_log())
    };
    assert!(end - start >= 7, "checkpoint runs {} ops", end - start);

    let mut reference = ReferenceService::new();
    for cmd in &trace {
        let _ = reference.apply(cmd);
    }

    for (at_op, op) in schedule.iter().enumerate().take(end).skip(start) {
        let kind = kind_for(op.name);
        let dir = TempDir::new("ckpt-fault");
        let storage = fresh_storage();
        let mut durable = open(&storage, &dir).unwrap();
        for cmd in &trace {
            let _ = durable.apply(cmd);
        }
        storage.arm(FaultPlan {
            at_op,
            kind,
            persistent: true,
        });
        let result = durable.checkpoint();
        storage.clear();
        match result {
            // Only the best-effort tail (old-log delete) may swallow the
            // fault; everything else must report.
            Ok(()) => assert!(!durable.is_degraded()),
            Err(_typed) => {
                if durable.is_degraded() {
                    // Published but not durable: heal re-publishes.
                    assert!(durable.heal().unwrap());
                }
            }
        }
        assert_state_matches(&durable, &mut reference);
        durable.close().unwrap();

        // Whichever generation survived on disk recovers the same state.
        let reopened = open(&storage, &dir).unwrap();
        assert_state_matches(&reopened, &mut reference);
    }
}

/// Supervision of the bare in-memory service: a panic in the helper partial
/// is caught, surfaces as [`ServiceError::ShardPanicked`] and retires both
/// partials, so every later operation reports it — small ingests that touch
/// only the home partial included — and neither the panic nor the teardown
/// ever unwinds into the caller.
#[test]
fn worker_panics_surface_as_typed_errors_and_never_unwind() {
    silence_worker_panics();
    let mut service = SketchService::new(1);
    service.create_session("t", default_spec()).unwrap();
    service.ingest("t", &[1, 2, 3, 4, 5]).unwrap();
    let before = service.estimate("t").unwrap();

    let err = service.inject_worker_panic(1).unwrap_err();
    match &err {
        ServiceError::ShardPanicked { shard, message } => {
            assert_eq!(*shard, 1);
            assert!(message.contains("injected worker panic"), "{message}");
        }
        other => panic!("expected ShardPanicked, got {other}"),
    }

    // Every later operation on the partials reports a typed error: reads,
    // creates, and ingests both whole on the caller and split...
    assert!(matches!(
        service.estimate("t"),
        Err(ServiceError::ShardPanicked { shard: 1, .. })
    ));
    assert!(matches!(
        service.create_session("u", default_spec()),
        Err(ServiceError::ShardPanicked { shard: 1, .. })
    ));
    for len in BATCH_LENS {
        assert!(matches!(
            service.ingest("t", &(0..len).collect::<Vec<u64>>()),
            Err(ServiceError::ShardPanicked { shard: 1, .. })
        ));
    }
    // ...while control-plane validation still answers without the partials.
    assert!(matches!(
        service.ingest("missing", &[1]),
        Err(ServiceError::UnknownSession(_))
    ));
    assert_eq!(service.list_sessions(), vec!["t".to_string()]);
    let _ = before;
    // Dropping the service joins the helpers without re-panicking.
    drop(service);
}

/// The durable layer's supervision reaction: a dead worker triggers a
/// transparent rebuild from checkpoint + log. Queries re-run on the rebuilt
/// service; a mutating command was logged write-ahead, so it reports
/// success and is present in the rebuilt state — bit-identical to the
/// reference either way.
#[test]
fn durable_service_rebuilds_transparently_after_a_worker_panic() {
    silence_worker_panics();
    let trace = random_trace(13, BITS, 16);
    let dir = TempDir::new("rebuild");
    let storage = fresh_storage();
    let mut durable = open(&storage, &dir).unwrap();
    let mut reference = ReferenceService::new();
    for cmd in &trace {
        let got = durable.apply(cmd);
        let want = reference.apply(cmd);
        assert_eq!(got.is_ok(), want.is_ok());
    }

    // Query path: the panic is repaired mid-command and the answer matches.
    durable.service().inject_worker_panic(0).unwrap_err();
    let name = durable.list_sessions().first().cloned().unwrap();
    let got = durable
        .apply(&ServiceCommand::Estimate { name: name.clone() })
        .unwrap();
    let want = reference.apply(&ServiceCommand::Estimate { name }).unwrap();
    assert_eq!(got, want);
    assert!(!durable.is_degraded());

    // Mutation path: logged before the partials saw it, so the rebuilt state
    // contains it and the command still reports success.
    durable.service().inject_worker_panic(1).unwrap_err();
    let create = ServiceCommand::Create {
        name: "post-panic".into(),
        spec: default_spec(),
    };
    assert_eq!(durable.apply(&create).unwrap(), CommandReply::Done);
    reference.apply(&create).unwrap();
    assert!(!durable.is_degraded());
    assert_state_matches(&durable, &mut reference);

    // Ingests after a helper-partial panic rebuild the same way, whole on
    // the caller (the home partial retired too) and split.
    for len in BATCH_LENS {
        durable.service().inject_worker_panic(1).unwrap_err();
        let ingest = ServiceCommand::Ingest {
            name: "post-panic".into(),
            items: (0..len).collect(),
        };
        assert_eq!(durable.apply(&ingest).unwrap(), CommandReply::Done);
        reference.apply(&ingest).unwrap();
        assert!(!durable.is_degraded());
    }
    assert_state_matches(&durable, &mut reference);

    // And the rebuilt state is the durable state.
    durable.close().unwrap();
    let reopened = open(&storage, &dir).unwrap();
    assert_state_matches(&reopened, &mut reference);
}

/// The full state machine walk: healthy → degraded (storage give-up; reads
/// still serve) → stale (worker dies while storage is down; reads rejected
/// too) → healed (reload + re-publish). Every transition is observable and
/// every rejection is typed.
#[test]
fn degraded_mode_is_read_only_and_staleness_blocks_reads_until_heal() {
    silence_worker_panics();
    let dir = TempDir::new("degrade");
    let storage = fresh_storage();
    let mut durable = open(&storage, &dir).unwrap();
    durable
        .apply(&ServiceCommand::Create {
            name: "t".into(),
            spec: default_spec(),
        })
        .unwrap();
    durable
        .apply(&ServiceCommand::Ingest {
            name: "t".into(),
            items: vec![1, 2, 3],
        })
        .unwrap();
    durable.sync().unwrap();
    let mut reference = ReferenceService::new();
    reference
        .apply(&ServiceCommand::Create {
            name: "t".into(),
            spec: default_spec(),
        })
        .unwrap();
    reference
        .apply(&ServiceCommand::Ingest {
            name: "t".into(),
            items: vec![1, 2, 3],
        })
        .unwrap();

    // Kill the disk: the next mutation exhausts its retries and degrades.
    storage.arm(FaultPlan {
        at_op: storage.op_count(),
        kind: FaultKind::Error,
        persistent: true,
    });
    let ingest = ServiceCommand::Ingest {
        name: "t".into(),
        items: vec![9, 10],
    };
    let err = durable.apply(&ingest).unwrap_err();
    assert!(matches!(err, ServiceError::Storage(_)), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    assert!(durable.is_degraded());

    // Read-only mode: mutations are typed rejections, queries keep serving
    // the pre-fault state.
    assert!(matches!(
        durable.apply(&ingest),
        Err(ServiceError::Degraded { .. })
    ));
    assert!(matches!(
        durable.checkpoint(),
        Err(ServiceError::Degraded { .. })
    ));
    let estimate = ServiceCommand::Estimate { name: "t".into() };
    assert_eq!(
        durable.apply(&estimate).unwrap(),
        reference.apply(&estimate).unwrap()
    );

    // A worker dying while the disk is down makes the memory image stale:
    // now even queries are rejected (nothing trustworthy left to serve).
    durable.service().inject_worker_panic(0).unwrap_err();
    assert!(matches!(
        durable.apply(&estimate),
        Err(ServiceError::Degraded { .. })
    ));
    assert!(matches!(
        durable.apply(&estimate),
        Err(ServiceError::Degraded { .. })
    ));

    // Repair the disk; heal reloads from storage and re-publishes.
    storage.clear();
    assert!(durable.heal().unwrap());
    assert!(!durable.is_degraded());
    assert!(!durable.heal().unwrap(), "healthy heal is a no-op");
    assert_eq!(
        durable.apply(&estimate).unwrap(),
        reference.apply(&estimate).unwrap()
    );
    // The rejected ingest is NOT in the healed state; new mutations work.
    assert_eq!(durable.apply(&ingest).unwrap(), CommandReply::Done);
    reference.apply(&ingest).unwrap();
    assert_state_matches(&durable, &mut reference);
}

/// [`mcf0_service::wal::WalWriter::close`] reports the final sync's failure
/// as a value — the silent half of the old `Drop`-only retirement is gone.
#[test]
fn wal_close_reports_final_sync_failure_as_a_value() {
    use mcf0_service::wal::WalWriter;
    let dir = TempDir::new("wal-close");
    let retry = RetryPolicy::none();

    // Success path: append inside an open group-commit window, close drains
    // it and reports Ok.
    let storage = fresh_storage();
    let path = dir.path().join("wal-ok.log");
    let mut writer = WalWriter::create(&storage, &path, 1000, &retry).unwrap();
    writer.append(b"alpha", &retry).unwrap();
    assert!(writer.close(&retry).is_ok());

    // Failure path: the final sync dies; close must say so.
    let storage = fresh_storage();
    let path = dir.path().join("wal-bad.log");
    let mut writer = WalWriter::create(&storage, &path, 1000, &retry).unwrap();
    writer.append(b"beta", &retry).unwrap();
    storage.arm(FaultPlan {
        at_op: storage.op_count(),
        kind: FaultKind::FsyncFail,
        persistent: true,
    });
    let err = writer.close(&retry).unwrap_err();
    assert!(matches!(err, ServiceError::Storage(_)), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The retry/backoff schedule is a pure function of the policy: exact
    /// closed form `min(base << attempt, cap)`, monotone non-decreasing,
    /// reproducible call to call — the determinism the fault harness's
    /// byte-identical replays stand on.
    #[test]
    fn retry_backoff_schedule_is_deterministic(
        max_retries in 0u32..10,
        base in 0u64..50,
        cap in 0u64..100,
    ) {
        let policy = RetryPolicy { max_retries, base_delay_ms: base, cap_delay_ms: cap };
        let schedule = policy.schedule();
        prop_assert_eq!(schedule.len(), max_retries as usize);
        prop_assert_eq!(&schedule, &policy.schedule());
        for (attempt, &delay) in schedule.iter().enumerate() {
            prop_assert_eq!(delay, base.saturating_mul(1u64 << attempt).min(cap));
        }
        prop_assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(policy.attempts(), max_retries + 1);
    }

    /// `with_retries` makes exactly `max_retries + 1` attempts on a
    /// persistent failure and reports the give-up count in the error.
    #[test]
    fn with_retries_attempt_count_is_exact(max_retries in 0u32..6) {
        let policy = RetryPolicy::immediate(max_retries);
        let mut calls = 0u32;
        let out: Result<(), ServiceError> = with_retries(&policy, || {
            calls += 1;
            Err(ServiceError::Storage("dead".into()))
        });
        prop_assert_eq!(calls, max_retries + 1);
        match out {
            Err(ServiceError::Storage(why)) => prop_assert!(
                why.contains(&format!("gave up after {} attempts", max_retries + 1)),
                "{}", why
            ),
            other => prop_assert!(false, "expected storage give-up, got {:?}", other),
        }
    }
}
