//! Durability suite: kill-point differential recovery plus error-path
//! hardening of the write-ahead log and the snapshot/manifest decoders.
//!
//! The central property mirrors the partition one: crash-recovery is **pure
//! persistence, never a semantic change**. A store cut at *any* byte offset
//! mid-trace must recover to a state bit-identical (estimates, ledgers,
//! snapshot documents) to an uninterrupted [`ReferenceService`] run over the
//! durable command prefix — and every malformed input (torn frames, flipped
//! checksum bits, undecodable records, corrupt manifests, hostile snapshot
//! documents) must surface as a typed error, never a panic.

// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_bench::service_support::random_trace;
use mcf0_hashing::Xoshiro256StarStar;
use mcf0_service::{
    CommandReply, DurableConfig, DurableSketchService, ReferenceService, ServiceCommand,
    ServiceError, SessionSpec, SketchKind, SketchService,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const BITS: usize = 16;

/// Self-cleaning scratch directory (the container has no tempfile crate;
/// process id + a counter keep parallel test binaries apart).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("mcf0-durability-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create scratch dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
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

/// The kill-point differential property. For several seeded traces:
/// run the trace through a durable store (checkpointing partway), then for
/// a spread of byte offsets — 0, mid-frame, frame boundaries, EOF — "crash"
/// by truncating a copy of the log there, recover, and require the result
/// bit-identical to an uninterrupted reference run over exactly the
/// command prefix the surviving frames encode.
#[test]
fn kill_points_recover_the_exact_durable_prefix() {
    for seed in [3u64, 17, 2026] {
        let trace = random_trace(seed, BITS, 40);
        let muts: Vec<&ServiceCommand> = trace.iter().filter(|c| c.mutates()).collect();
        let checkpoint_after = trace.len() / 2;

        // Uninterrupted durable run; checkpoint midway so recovery has to
        // combine a snapshot with a log suffix.
        let store = TempDir::new("killpoint");
        let (mut durable, report) =
            DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
        assert_eq!(report.checkpoint_sessions + report.replayed, 0);
        let mut base = 0usize; // mutating commands captured by the checkpoint
        for (i, cmd) in trace.iter().enumerate() {
            let _ = durable.apply(cmd);
            if i + 1 == checkpoint_after {
                durable.checkpoint().unwrap();
                base = trace[..checkpoint_after]
                    .iter()
                    .filter(|c| c.mutates())
                    .count();
            }
        }
        durable.sync().unwrap();
        let wal_bytes = fs::read(durable.wal_path()).unwrap();
        let generation = durable.generation();
        let manifest = fs::read(store.join("checkpoint.json")).unwrap();
        drop(durable);

        // Candidate crash offsets: every frame boundary is interesting, plus
        // seeded interior cuts and both extremes.
        let mut cuts = vec![0usize, wal_bytes.len()];
        let scan = mcf0_service::wal::scan_bytes(&wal_bytes);
        assert!(scan.torn.is_none());
        cuts.extend(scan.records.iter().map(|r| r.offset as usize));
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0xD00D);
        cuts.extend((0..8).map(|_| (rng.next_u64() as usize) % (wal_bytes.len() + 1)));

        for cut in cuts {
            let crashed = TempDir::new("crashed");
            fs::write(crashed.join("checkpoint.json"), &manifest).unwrap();
            let wal_name = format!("wal-{generation:020}.log");
            fs::write(crashed.join(&wal_name), &wal_bytes[..cut]).unwrap();

            let (recovered, report) =
                DurableSketchService::open(crashed.path(), 1, DurableConfig::default()).unwrap();
            let clean_cut =
                scan.records.iter().any(|r| r.offset as usize == cut) || cut == wal_bytes.len();
            assert_eq!(report.truncated.is_none(), clean_cut, "cut at {cut}");
            // The torn tail was truncated on disk; reopening is clean.
            assert_eq!(
                fs::metadata(crashed.join(&wal_name)).unwrap().len(),
                recovered.wal_len()
            );

            // Ground truth: the reference interpreter over exactly the
            // durable mutating-command prefix.
            let survived = base + report.replayed;
            assert!(survived <= muts.len());
            let mut reference = ReferenceService::new();
            for cmd in &muts[..survived] {
                let _ = reference.apply(cmd);
            }
            assert_state_matches(&recovered, &mut reference);
        }
    }
}

/// After recovery the service keeps running — and stays bit-identical to a
/// reference that saw the same durable prefix plus the new commands.
#[test]
fn recovered_stores_continue_identically() {
    let trace = random_trace(11, BITS, 30);
    let store = TempDir::new("continue");
    let (mut durable, _) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    for cmd in &trace {
        let _ = durable.apply(cmd);
    }
    drop(durable);

    let (mut durable, report) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    assert!(report.truncated.is_none());
    let mut reference = ReferenceService::new();
    for cmd in trace.iter().filter(|c| c.mutates()) {
        let _ = reference.apply(cmd);
    }
    let tail = random_trace(12, BITS, 20);
    for cmd in &tail {
        let durable_reply = durable.apply(cmd);
        let reference_reply = reference.apply(cmd);
        if cmd.mutates() {
            assert_eq!(durable_reply, reference_reply, "{cmd:?}");
        }
    }
    assert_state_matches(&durable, &mut reference);
}

/// Hostile commands (specs no sketch can be drawn from, items outside the
/// universe) are logged like any mutation but rejected with typed errors:
/// no apply panics, the store stays healthy, the other sessions carry on,
/// and the log holding them reopens to the same state.
#[test]
fn hostile_commands_leave_the_store_healthy_and_reopenable() {
    let store = TempDir::new("hostile");
    let (mut durable, _) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    let mut reference = ReferenceService::new();
    let create = |name: &str, spec| ServiceCommand::Create {
        name: name.into(),
        spec,
    };
    let ingest = |name: &str, items: Vec<u64>| ServiceCommand::Ingest {
        name: name.into(),
        items,
    };
    let small = SessionSpec {
        universe_bits: 8,
        ..default_spec()
    };
    let trace = [
        create("other", default_spec()),
        ingest("other", (0..500).collect()),
        create("small", small),
        ingest("small", vec![1, 300]),
        create(
            "u0",
            SessionSpec {
                universe_bits: 0,
                ..default_spec()
            },
        ),
        create(
            "wide",
            SessionSpec {
                kind: SketchKind::StructuredMinimum,
                universe_bits: 70,
                ..default_spec()
            },
        ),
        create(
            "t0",
            SessionSpec {
                thresh: 0,
                ..default_spec()
            },
        ),
        ingest("small", vec![1, 255]),
        ingest("other", (500..900).collect()),
    ];
    for command in &trace {
        let got = durable.apply(command);
        assert!(
            !matches!(got, Err(ServiceError::ShardPanicked { .. })),
            "{command:?}"
        );
        assert_eq!(got, reference.apply(command), "{command:?}");
    }
    assert!(!durable.is_degraded());
    assert_eq!(durable.list_sessions(), ["other", "small"]);
    assert_state_matches(&durable, &mut reference);
    durable.close().unwrap();

    let (reopened, report) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    assert!(report.truncated.is_none());
    assert_eq!(report.replayed, trace.len());
    assert_state_matches(&reopened, &mut reference);
}

/// Checkpoints compact the log and bump the generation; automatic
/// compaction (`compact_after_bytes`) includes the triggering command, and
/// stale logs are swept on reopen.
#[test]
fn checkpoints_compact_and_preserve_state() {
    let store = TempDir::new("compact");
    let config = DurableConfig {
        group_commit: 4,
        compact_after_bytes: Some(256),
        ..DurableConfig::default()
    };
    let (mut durable, _) = DurableSketchService::open(store.path(), 1, config).unwrap();
    durable
        .apply(&ServiceCommand::Create {
            name: "t".into(),
            spec: default_spec(),
        })
        .unwrap();
    for chunk in 0..6u64 {
        durable
            .apply(&ServiceCommand::Ingest {
                name: "t".into(),
                items: (0..40).map(|i| chunk * 17 + i).collect(),
            })
            .unwrap();
    }
    // 7 mutating commands at ≥ 256/record-ish bytes: compaction must have
    // fired at least once, and the active log is the only wal file left.
    assert!(durable.generation() > 0, "compaction never triggered");
    let wal_files: Vec<_> = fs::read_dir(store.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .collect();
    assert_eq!(wal_files.len(), 1);

    let estimate = durable.estimate("t").unwrap();
    let doc = durable.save("t").unwrap();
    drop(durable);

    let (durable, report) = DurableSketchService::open(store.path(), 1, config).unwrap();
    assert_eq!(report.checkpoint_sessions, 1);
    assert!(report.truncated.is_none());
    assert_eq!(durable.estimate("t").unwrap().to_bits(), estimate.to_bits());
    assert_eq!(durable.save("t").unwrap(), doc);
}

/// A flipped checksum bit anywhere in the log is detected, reported as a
/// typed [`ServiceError::WalRecord`], and the log is truncated to the
/// frames before it — the intact suffix is deliberately dropped (replay
/// must never skip a frame).
#[test]
fn flipped_checksum_bytes_truncate_at_the_bad_frame() {
    let trace = random_trace(5, BITS, 25);
    let store = TempDir::new("bitrot");
    let (mut durable, _) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    for cmd in &trace {
        let _ = durable.apply(cmd);
    }
    let wal_path = durable.wal_path();
    drop(durable);

    let mut bytes = fs::read(&wal_path).unwrap();
    let scan = mcf0_service::wal::scan_bytes(&bytes);
    assert!(scan.records.len() >= 3, "trace produced too few records");
    let victim = scan.records[scan.records.len() / 2].clone();
    bytes[victim.offset as usize + 8] ^= 0x01; // first payload byte
    fs::write(&wal_path, &bytes).unwrap();

    let (recovered, report) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    match report.truncated {
        Some(ServiceError::WalRecord { offset, .. }) => assert_eq!(offset, victim.offset),
        other => panic!("expected WalRecord truncation, got {other:?}"),
    }
    assert_eq!(recovered.wal_len(), victim.offset);
    assert_eq!(
        report.replayed,
        scan.records
            .iter()
            .filter(|r| r.offset < victim.offset)
            .count()
    );
}

/// A frame whose checksum is valid but whose payload is not a decodable
/// command (e.g. written by a future version) is treated exactly like a
/// torn tail: typed error, truncate, keep the prefix.
#[test]
fn undecodable_but_checksummed_records_are_truncated_not_panicked() {
    let store = TempDir::new("undecodable");
    let (mut durable, _) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    durable
        .apply(&ServiceCommand::Create {
            name: "t".into(),
            spec: default_spec(),
        })
        .unwrap();
    let wal_path = durable.wal_path();
    let good_len = durable.wal_len();
    drop(durable);

    for payload in [
        b"{\"op\":\"telepathy\",\"name\":\"t\"}".as_slice(), // unknown op
        b"{\"name\":\"t\"}",                                 // missing op
        b"not json at all",
        b"{\"op\":\"ingest\",\"name\":\"t\",\"items\":[\"x\"]}", // wrong item type
    ] {
        let mut bytes = fs::read(&wal_path).unwrap();
        bytes.extend_from_slice(&mcf0_service::wal::frame(payload));
        fs::write(&wal_path, &bytes).unwrap();

        let (recovered, report) =
            DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
        match report.truncated {
            Some(ServiceError::WalRecord { offset, reason }) => {
                assert_eq!(offset, good_len);
                assert!(reason.contains("undecodable"), "reason: {reason}");
            }
            other => panic!("expected WalRecord truncation, got {other:?}"),
        }
        assert_eq!(report.replayed, 1);
        assert_eq!(recovered.list_sessions(), vec!["t".to_string()]);
        // The truncation is durable: the next open is clean.
        drop(recovered);
        let (_, report) =
            DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
        assert!(report.truncated.is_none());
    }
}

/// Replay decodes canonical ingest records with the typed scanner and every
/// other record with the generic parser. A log holding both kinds, in the
/// byte format this service has always written, recovers to the state and
/// the `RecoveryReport` the generic decoder alone gives.
#[test]
fn a_log_of_canonical_and_hand_written_records_recovers_as_before() {
    let create = serde_json::to_string(&ServiceCommand::Create {
        name: "t".into(),
        spec: default_spec(),
    })
    .unwrap();
    let canonical = r#"{"op":"ingest","name":"t","items":[1,2,3,65535]}"#;
    // The writer's bytes are these records, framed.
    let store = TempDir::new("canonical");
    let (mut durable, _) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
    for record in [&create, canonical] {
        durable
            .apply(&serde_json::from_str(record).unwrap())
            .unwrap();
    }
    let written = fs::read(durable.wal_path()).unwrap();
    drop(durable);
    let framed = |records: &[&str]| -> Vec<u8> {
        records
            .iter()
            .flat_map(|r| mcf0_service::wal::frame(r.as_bytes()))
            .collect()
    };
    assert_eq!(written, framed(&[&create, canonical]));

    let decoded = [
        create.as_str(),
        canonical,
        r#"{"op":"ingest","name":"t","items":[]}"#,
        r#"{ "op": "ingest", "name": "t", "items": [4, 5] }"#,
        r#"{"items":[6,07],"name":"t","op":"ingest"}"#,
        r#"{"op":"ingest","name":"t","items":[8],"items":[9]}"#,
        "{\"op\":\"ingest\",\"name\":\"\\u0074\",\"items\":[10]}", // an escaped `t`
        r#"{"op":"ingest","name":"té","items":[11]}"#,
    ];
    let undecodable = r#"{"op":"ingest","name":"t","items":[1.5]}"#;
    let behind = r#"{"op":"ingest","name":"t","items":[12]}"#;
    let mut log = framed(&decoded);
    let bad_offset = log.len() as u64;
    log.extend(framed(&[undecodable, behind]));

    let crashed = TempDir::new("handwritten");
    fs::write(crashed.join("wal-00000000000000000000.log"), &log).unwrap();
    let (recovered, report) =
        DurableSketchService::open(crashed.path(), 1, DurableConfig::default()).unwrap();
    assert_eq!(report.checkpoint_sessions, 0);
    assert_eq!(report.replayed, decoded.len());
    match report.truncated {
        Some(ServiceError::WalRecord { offset, reason }) => {
            assert_eq!(offset, bad_offset);
            assert_eq!(
                reason,
                "undecodable command record: JSON error: number `1.5` out of range for u64"
            );
        }
        other => panic!("expected WalRecord truncation, got {other:?}"),
    }
    let mut reference = ReferenceService::new();
    for record in decoded {
        let _ = reference.apply(&serde_json::from_str(record).unwrap());
    }
    assert_state_matches(&recovered, &mut reference);
}

/// Corrupt checkpoint manifests — malformed JSON, wrong format tag,
/// hostile nesting, duplicate or tampered session documents — are typed
/// open errors, never panics and never silently-empty stores.
#[test]
fn corrupt_manifests_are_rejected_not_trusted() {
    // Build one healthy store to harvest a genuine manifest from.
    let store = TempDir::new("manifest");
    let (mut durable, _) =
        DurableSketchService::open(store.path(), 1, DurableConfig::default()).unwrap();
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
    durable.checkpoint().unwrap();
    drop(durable);
    let healthy = fs::read_to_string(store.join("checkpoint.json")).unwrap();

    let session_doc_start = healthy.find("\"{").expect("embedded session doc");
    let mut duplicated = healthy.clone();
    let doc_json: String = {
        // The manifest's sessions array holds JSON-encoded snapshot strings;
        // duplicate the first one to provoke DuplicateSession on restore.
        let tail = &healthy[session_doc_start..];
        let end = tail
            .char_indices()
            .scan(false, |escaped, (i, c)| {
                if *escaped {
                    *escaped = false;
                } else if c == '\\' {
                    *escaped = true;
                } else if c == '"' && i > 0 {
                    return Some(Some(i));
                }
                Some(None)
            })
            .flatten()
            .next()
            .unwrap();
        tail[..=end].to_string()
    };
    duplicated.insert_str(session_doc_start, &format!("{doc_json},"));

    type ErrCheck = fn(&ServiceError) -> bool;
    let cases: Vec<(String, ErrCheck)> = vec![
        ("not json".to_string(), |e| {
            matches!(e, ServiceError::Snapshot(_))
        }),
        ("{}".to_string(), |e| matches!(e, ServiceError::Snapshot(_))),
        (
            healthy.replace("mcf0-wal-checkpoint/v1", "someone-else/v9"),
            |e| matches!(e, ServiceError::Snapshot(_)),
        ),
        // Deep nesting exercises the JSON parser's recursion cap — typed
        // error, not a stack overflow.
        (
            format!("{}{}", "[".repeat(100_000), "]".repeat(100_000)),
            |e| matches!(e, ServiceError::Snapshot(_)),
        ),
        (
            duplicated,
            |e| matches!(e, ServiceError::DuplicateSession(name) if name == "t"),
        ),
        // Tampering with an embedded session document trips the snapshot
        // decoder's own validation.
        (healthy.replace("\\\"seed\\\":7", "\\\"seed\\\":8"), |e| {
            matches!(e, ServiceError::Snapshot(_))
        }),
    ];
    for (i, (bad, check)) in cases.into_iter().enumerate() {
        let crashed = TempDir::new("badmanifest");
        fs::write(crashed.join("checkpoint.json"), &bad).unwrap();
        let err = match DurableSketchService::open(crashed.path(), 1, DurableConfig::default()) {
            Err(e) => e,
            Ok(_) => panic!("case {i}: corrupt manifest accepted"),
        };
        assert!(check(&err), "case {i}: unexpected error {err:?}");
    }
}

/// Truncated snapshot documents are typed restore errors at every cut
/// point — `snapshot::decode` never panics on a partial read.
#[test]
fn truncated_snapshot_documents_never_panic() {
    let mut service = SketchService::new(1);
    service.create_session("t", default_spec()).unwrap();
    service.ingest("t", &[9, 8, 7, 6]).unwrap();
    let doc = service.save("t").unwrap();
    service.drop_session("t").unwrap();
    for cut in 0..doc.len() {
        if !doc.is_char_boundary(cut) {
            continue;
        }
        let err = service
            .restore(&doc[..cut])
            .expect_err("accepted truncated snapshot");
        assert!(
            matches!(err, ServiceError::Snapshot(_)),
            "cut {cut}: unexpected error {err:?}"
        );
    }
}

/// Every command in the trace language round-trips through its log record
/// encoding byte-exactly (the property log replay stands on).
#[test]
fn command_log_records_round_trip() {
    for seed in [1u64, 2, 3] {
        for cmd in random_trace(seed, BITS, 60) {
            let encoded = serde_json::to_string(&cmd).unwrap();
            let decoded: ServiceCommand = serde_json::from_str(&encoded).unwrap();
            assert_eq!(cmd, decoded, "record: {encoded}");
            // Encoding is deterministic (replay produces identical logs).
            assert_eq!(serde_json::to_string(&decoded).unwrap(), encoded);
        }
    }
}

/// Group-commit batching is a durability knob, not a semantics knob: the
/// synced store recovers identically regardless of the window size.
#[test]
fn group_commit_windows_do_not_change_recovered_state() {
    let trace = random_trace(21, BITS, 30);
    let mut docs: Vec<Vec<(String, String)>> = Vec::new();
    for group_commit in [1usize, 8, 1024] {
        let store = TempDir::new("window");
        let config = DurableConfig {
            group_commit,
            compact_after_bytes: None,
            ..DurableConfig::default()
        };
        let (mut durable, _) = DurableSketchService::open(store.path(), 1, config).unwrap();
        for cmd in &trace {
            let _ = durable.apply(cmd);
        }
        durable.sync().unwrap();
        drop(durable);
        let (recovered, report) = DurableSketchService::open(store.path(), 1, config).unwrap();
        assert!(report.truncated.is_none());
        docs.push(
            recovered
                .list_sessions()
                .into_iter()
                .map(|name| {
                    let doc = recovered.save(&name).unwrap();
                    (name, doc)
                })
                .collect(),
        );
    }
    assert_eq!(docs[0], docs[1]);
    assert_eq!(docs[0], docs[2]);
}
