//! Windowed-session and set-algebra coverage the random traces cannot pin
//! precisely: every new typed error asserted **identically** in the
//! service, the reference interpreter, and over a real socket; serde round
//! trips (WAL framing + wire codec) and adversarial decode rows for the
//! four new command variants; and snapshot save → restore → save
//! byte-identity for ring-bearing sessions, including hostile ring
//! documents.

// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_service::net::proto::{decode_request, encode_line};
use mcf0_service::wal::{frame, scan_bytes};
use mcf0_service::{
    serve, CommandReply, ErrorCode, ReferenceService, Request, Response, ServerConfig,
    ServiceCommand, ServiceError, SessionSpec, SketchKind, SketchService, TenantDirectory,
    TenantQuota, WireError, MAX_WINDOW_EPOCHS,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const BITS: usize = 16;

fn spec(kind: SketchKind, seed: u64) -> SessionSpec {
    SessionSpec::new(kind, BITS, 12, 3, seed)
}

fn create(name: &str, kind: SketchKind, seed: u64) -> ServiceCommand {
    ServiceCommand::Create {
        name: name.into(),
        spec: spec(kind, seed),
    }
}

fn create_windowed(name: &str, kind: SketchKind, seed: u64, window: usize) -> ServiceCommand {
    ServiceCommand::Create {
        name: name.into(),
        spec: spec(kind, seed).with_window(window),
    }
}

fn ingest(name: &str, items: &[u64]) -> ServiceCommand {
    ServiceCommand::Ingest {
        name: name.into(),
        items: items.to_vec(),
    }
}

fn advance(name: &str, epoch: u64) -> ServiceCommand {
    ServiceCommand::Advance {
        name: name.into(),
        epoch,
    }
}

/// The scripted error gauntlet: a fixed roster of sessions, then one
/// command per typed rejection the windowed/set-algebra surface can emit,
/// with the exact `ServiceError` value each must produce.
fn error_gauntlet() -> (Vec<ServiceCommand>, Vec<(ServiceCommand, ServiceError)>) {
    let setup = vec![
        create_windowed("w", SketchKind::Minimum, 7, 3),
        create_windowed("w-twin", SketchKind::Minimum, 7, 3),
        create_windowed("w-other", SketchKind::Minimum, 8, 3),
        create("plain", SketchKind::Minimum, 7),
        create("ams", SketchKind::Ams, 9),
        ingest("w", &[1, 2, 3]),
        advance("w", 5),
        ingest("w", &[4, 5]),
    ];
    let probes = vec![
        // Non-monotonic advances: repeat and regression, both typed.
        (
            advance("w", 5),
            ServiceError::EpochRegressed {
                session: "w".into(),
                current: 5,
                requested: 5,
            },
        ),
        (
            advance("w", 2),
            ServiceError::EpochRegressed {
                session: "w".into(),
                current: 5,
                requested: 2,
            },
        ),
        // Windowed commands on an unwindowed session.
        (
            advance("plain", 1),
            ServiceError::NotWindowed("plain".into()),
        ),
        (
            ServiceCommand::EstimateWindow {
                name: "plain".into(),
            },
            ServiceError::NotWindowed("plain".into()),
        ),
        // Unknown sessions, in argument order.
        (
            ServiceCommand::EstimateWindow {
                name: "ghost".into(),
            },
            ServiceError::UnknownSession("ghost".into()),
        ),
        (
            ServiceCommand::IntersectionEstimate {
                a: "ghost".into(),
                b: "w".into(),
            },
            ServiceError::UnknownSession("ghost".into()),
        ),
        (
            ServiceCommand::JaccardEstimate {
                a: "w".into(),
                b: "ghost".into(),
            },
            ServiceError::UnknownSession("ghost".into()),
        ),
        // Set algebra needs identical draws…
        (
            ServiceCommand::IntersectionEstimate {
                a: "w".into(),
                b: "w-other".into(),
            },
            ServiceError::SpecMismatch {
                a: "w".into(),
                b: "w-other".into(),
            },
        ),
        // …and never covers the linear AMS sketch (self-pair is the
        // spec-identical case, so the kind check is what fires).
        (
            ServiceCommand::JaccardEstimate {
                a: "ams".into(),
                b: "ams".into(),
            },
            ServiceError::SetAlgebraUnsupported {
                a: "ams".into(),
                b: "ams".into(),
            },
        ),
        // Unusable windows are rejected before any ring slot is drawn.
        (
            create_windowed("w-zero", SketchKind::Minimum, 7, 0),
            ServiceError::InvalidWindow {
                session: "w-zero".into(),
                window: 0,
            },
        ),
        (
            create_windowed("w-huge", SketchKind::Minimum, 7, MAX_WINDOW_EPOCHS + 1),
            ServiceError::InvalidWindow {
                session: "w-huge".into(),
                window: MAX_WINDOW_EPOCHS + 1,
            },
        ),
        // Merging rings at different epochs would mix epochs slot-wise.
        (
            ServiceCommand::Merge {
                dst: "w".into(),
                src: "w-twin".into(),
            },
            ServiceError::WindowEpochMismatch {
                dst: "w".into(),
                src: "w-twin".into(),
            },
        ),
    ];
    (setup, probes)
}

/// Every probe of the gauntlet produces the exact same typed error in the
/// service and the reference interpreter, and the failed command leaves no
/// trace: the follow-up estimate still answers.
#[test]
fn typed_errors_are_identical_in_sharded_and_reference_interpreters() {
    let (setup, probes) = error_gauntlet();
    let mut service = SketchService::new(1);
    let mut reference = ReferenceService::new();
    for command in &setup {
        service.apply(command).unwrap();
        reference.apply(command).unwrap();
    }
    for (command, want) in &probes {
        assert_eq!(service.apply(command).unwrap_err(), *want, "{command:?}");
        assert_eq!(
            reference.apply(command).unwrap_err(),
            *want,
            "reference {command:?}"
        );
    }
    // The rejections were pure: both interpreters still agree on the live
    // window (and the fold still holds the two live epochs).
    let est = ServiceCommand::EstimateWindow { name: "w".into() };
    let got = service.apply(&est).unwrap();
    assert_eq!(got, reference.apply(&est).unwrap());
    assert_eq!(got, CommandReply::Estimate(2.0));
}

/// The same gauntlet over a real loopback connection: every reply line is
/// byte-identical to the reference interpreter's, and each probe surfaces
/// the intended wire [`ErrorCode`].
#[test]
fn typed_errors_survive_the_wire_byte_identically() {
    let codes = [
        ErrorCode::EpochRegressed,
        ErrorCode::EpochRegressed,
        ErrorCode::NotWindowed,
        ErrorCode::NotWindowed,
        ErrorCode::UnknownSession,
        ErrorCode::UnknownSession,
        ErrorCode::UnknownSession,
        ErrorCode::SpecMismatch,
        ErrorCode::SetAlgebraUnsupported,
        ErrorCode::InvalidWindow,
        ErrorCode::InvalidWindow,
        ErrorCode::WindowEpochMismatch,
    ];
    let (setup, probes) = error_gauntlet();
    assert_eq!(probes.len(), codes.len());

    let mut directory = TenantDirectory::new();
    directory
        .register("alpha", "tok-alpha", TenantQuota::unlimited())
        .unwrap();
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(1),
        directory,
        ServerConfig::default(),
    )
    .unwrap();

    let writer = TcpStream::connect(handle.local_addr()).unwrap();
    writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let mut writer = writer;
    let mut reference = ReferenceService::new();
    let commands: Vec<ServiceCommand> = setup
        .iter()
        .chain(probes.iter().map(|(c, _)| c))
        .cloned()
        .collect();
    for (i, command) in commands.iter().enumerate() {
        let request = Request {
            id: i as u64,
            token: "tok-alpha".to_string(),
            command: command.clone(),
        };
        writer.write_all(encode_line(&request).as_bytes()).unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);

        let scoped = TenantDirectory::scope_command("alpha", command);
        let body = reference
            .apply(&scoped)
            .map_err(|e| WireError::from_service(&e));
        let want = encode_line(&Response {
            id: Some(i as u64),
            seq: Some(i as u64),
            body,
        });
        assert_eq!(line, want, "command {i}: {command:?}");

        if let Some(probe) = i.checked_sub(setup.len()) {
            let response = serde_json::from_str::<Response>(line.trim_end()).unwrap();
            assert_eq!(
                response.body.unwrap_err().code,
                codes[probe],
                "probe {probe}"
            );
        }
    }
    handle.shutdown();
}

/// The four new command variants round trip through the WAL framing (what
/// the durable log persists) and the wire request codec, byte-stably.
#[test]
fn new_command_variants_round_trip_through_wal_and_wire_codecs() {
    let commands = vec![
        advance("w", 0),
        advance("sessions::scoped name é", u64::MAX),
        ServiceCommand::EstimateWindow { name: "w".into() },
        ServiceCommand::EstimateWindow { name: "".into() },
        ServiceCommand::IntersectionEstimate {
            a: "left".into(),
            b: "right\n\"quoted\"".into(),
        },
        ServiceCommand::JaccardEstimate {
            a: "α".into(),
            b: "α".into(),
        },
    ];
    // WAL: command → JSON payload → CRC frame → scan → JSON → command.
    let mut log = Vec::new();
    for command in &commands {
        log.extend_from_slice(&frame(serde_json::to_string(command).unwrap().as_bytes()));
    }
    let scan = scan_bytes(&log);
    assert!(scan.torn.is_none());
    assert_eq!(scan.records.len(), commands.len());
    for (record, want) in scan.records.iter().zip(&commands) {
        let text = std::str::from_utf8(&record.payload).unwrap();
        let decoded: ServiceCommand = serde_json::from_str(text).unwrap();
        assert_eq!(&decoded, want);
        // Canonical: re-encoding reproduces the logged payload.
        assert_eq!(
            serde_json::to_string(&decoded).unwrap().as_bytes(),
            &record.payload[..]
        );
    }
    // Wire: the same commands inside a request line.
    for (i, command) in commands.iter().enumerate() {
        let request = Request {
            id: i as u64,
            token: "tok".into(),
            command: command.clone(),
        };
        let line = encode_line(&request);
        let decoded = decode_request(line.trim_end().as_bytes()).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(encode_line(&decoded), line);
    }
}

/// Hostile encodings of the new variants are typed decode errors, never
/// panics and never a silently-defaulted command.
#[test]
fn adversarial_command_documents_are_rejected() {
    let rows = [
        // Missing members.
        r#"{"op":"advance","name":"w"}"#,
        r#"{"op":"advance","epoch":3}"#,
        r#"{"op":"estimate_window"}"#,
        r#"{"op":"intersection_estimate","a":"w"}"#,
        r#"{"op":"jaccard_estimate","b":"w"}"#,
        // Wrong member types.
        r#"{"op":"advance","name":"w","epoch":"3"}"#,
        r#"{"op":"advance","name":"w","epoch":-1}"#,
        r#"{"op":"advance","name":"w","epoch":3.5}"#,
        r#"{"op":"advance","name":7,"epoch":3}"#,
        r#"{"op":"intersection_estimate","a":"w","b":["x"]}"#,
        // A windowed create with a non-numeric / negative window.
        r#"{"op":"create","name":"w","spec":{"kind":"minimum","universe_bits":16,"epsilon":0.5,"delta":0.3,"thresh":12,"rows":3,"columns":4,"seed":7,"window":"many"}}"#,
        r#"{"op":"create","name":"w","spec":{"kind":"minimum","universe_bits":16,"epsilon":0.5,"delta":0.3,"thresh":12,"rows":3,"columns":4,"seed":7,"window":-2}}"#,
        // Unknown op.
        r#"{"op":"advance_window","name":"w","epoch":3}"#,
    ];
    for row in rows {
        assert!(
            serde_json::from_str::<ServiceCommand>(row).is_err(),
            "accepted: {row}"
        );
    }
}

/// Snapshot round trips for ring-bearing sessions: save → drop → restore →
/// save is byte-identical, and bit-identical to the reference
/// interpreter's document — wraparound state, empty slots and a
/// structured windowed session included.
#[test]
fn windowed_snapshots_round_trip_byte_identically() {
    let mut setup = vec![
        create_windowed("w", SketchKind::Bucketing, 11, 3),
        ingest("w", &[1, 2, 3]),
        advance("w", 1),
        ingest("w", &[4]),
        // Jump past the window: the whole ring rotates out.
        advance("w", 5),
        ingest("w", &[5, 6]),
        // An all-empty ring at a nonzero epoch.
        create_windowed("w-empty", SketchKind::Estimation, 12, 2),
        advance("w-empty", 9),
        // A structured windowed session.
        create_windowed("w-dnf", SketchKind::StructuredMinimum, 13, 2),
        ServiceCommand::IngestStructured {
            name: "w-dnf".into(),
            sets: vec![
                mcf0_bench::bench_dnf(BITS, 2, 99),
                mcf0_bench::bench_dnf(BITS, 3, 100),
            ],
        },
    ];
    setup.push(advance("w-dnf", 1));
    let mut service = SketchService::new(1);
    let mut reference = ReferenceService::new();
    for command in &setup {
        service.apply(command).unwrap();
        reference.apply(command).unwrap();
    }
    for name in ["w", "w-empty", "w-dnf"] {
        let save = ServiceCommand::Save { name: name.into() };
        let CommandReply::Snapshot(doc) = service.apply(&save).unwrap() else {
            panic!("save must reply with a snapshot");
        };
        assert_eq!(
            reference.apply(&save).unwrap(),
            CommandReply::Snapshot(doc.clone()),
            "{name}"
        );
        // Drop, restore, save again: byte-identical, window intact.
        let before = service.apply(&ServiceCommand::EstimateWindow { name: name.into() });
        service
            .apply(&ServiceCommand::Drop { name: name.into() })
            .unwrap();
        assert_eq!(service.restore(&doc).unwrap(), name);
        let CommandReply::Snapshot(again) = service.apply(&save).unwrap() else {
            panic!("save must reply with a snapshot");
        };
        assert_eq!(again, doc, "{name}");
        assert_eq!(
            service.apply(&ServiceCommand::EstimateWindow { name: name.into() }),
            before,
            "{name}"
        );
    }
}

/// Tampered ring documents are typed snapshot rejections — wrong slot
/// count, out-of-bounds window, ring state on an unwindowed spec, plain
/// state on a windowed spec — and a failed restore leaves no session
/// behind.
#[test]
fn hostile_ring_documents_are_typed_snapshot_rejections() {
    let mut service = SketchService::new(1);
    service
        .apply(&create_windowed("w", SketchKind::Minimum, 7, 2))
        .unwrap();
    service.apply(&ingest("w", &[1, 2, 3])).unwrap();
    service.apply(&advance("w", 1)).unwrap();
    let CommandReply::Snapshot(doc) = service
        .apply(&ServiceCommand::Save { name: "w".into() })
        .unwrap()
    else {
        panic!("save must reply with a snapshot");
    };
    service
        .apply(&ServiceCommand::Drop { name: "w".into() })
        .unwrap();

    // Each row is (mutation of the valid document, expected fragment of the
    // typed error message).
    let huge = MAX_WINDOW_EPOCHS + 1;
    let rows: Vec<(String, &str)> = vec![
        // Shrink the declared window: the two stored slots no longer fit.
        (
            doc.replace("\"window\":2", "\"window\":1"),
            "does not match",
        ),
        (
            doc.replace("\"window\":2", &format!("\"window\":{huge}")),
            "outside 1..=",
        ),
        (doc.replace("\"window\":2", "\"window\":0"), "outside 1..="),
        // Windowed spec but no ring state at all (the doc-level `window`
        // member is the last one — truncate it to null).
        (
            {
                let at = doc.rfind(",\"window\":{\"epoch\":").unwrap();
                format!("{}{}", &doc[..at], ",\"window\":null}")
            },
            "missing ring state",
        ),
        // Unwindowed spec carrying ring state.
        (
            doc.replace("\"window\":2", "\"window\":null"),
            "ring state on an unwindowed specification",
        ),
    ];
    for (i, (mutated, fragment)) in rows.iter().enumerate() {
        assert_ne!(mutated, &doc, "row {i} failed to mutate the document");
        let err = service.restore(mutated).unwrap_err();
        let text = err.to_string();
        assert!(
            matches!(err, ServiceError::Snapshot(_)) && text.contains(fragment),
            "row {i}: {text}"
        );
        assert_eq!(
            service
                .apply(&ServiceCommand::Estimate { name: "w".into() })
                .unwrap_err(),
            ServiceError::UnknownSession("w".into()),
            "row {i} left a session behind"
        );
    }
    // The untouched document still restores.
    assert_eq!(service.restore(&doc).unwrap(), "w");
}
