//! Differential harness: the partitioned service must be observationally
//! identical to the unpartitioned reference interpreter on every command
//! trace.
//!
//! Every property replays a seeded random trace (mixed sketch kinds,
//! duplicate-heavy batches, merges, saves, drops, and deliberately invalid
//! commands) through [`SketchService`] and through [`ReferenceService`],
//! then pins the full reply streams — estimates, space accounting, snapshot
//! documents, error values — equal via `PartialEq`, which on `f64` payloads
//! and JSON strings means bit-for-bit. Batch boundaries are re-split
//! separately: they may only move the ledger's batch count, never a query
//! answer. Random batches stay small, so one scripted trace adds batches on
//! both sides of the size from which the service splits a batch across its
//! two partials.

// Tests assert on infallible setup with `unwrap`; the production-code ban
// (clippy `disallowed-methods`, see clippy.toml) does not extend here.
#![allow(clippy::disallowed_methods)]

use mcf0_bench::service_support::{query_outputs, random_trace, resplit_batches, trace_sessions};
use mcf0_formula::generators::random_dnf;
use mcf0_service::{
    CommandReply, ReferenceService, ServiceCommand, ServiceError, SessionSpec, SketchKind,
    SketchService,
};
use proptest::prelude::*;

const BITS: usize = 16;

type Replies = Vec<Result<CommandReply, ServiceError>>;

fn run_reference(trace: &[ServiceCommand]) -> (ReferenceService, Replies) {
    let mut reference = ReferenceService::new();
    let replies = trace.iter().map(|cmd| reference.apply(cmd)).collect();
    (reference, replies)
}

fn run_service(trace: &[ServiceCommand]) -> (SketchService, Replies) {
    let mut service = SketchService::new(1);
    let replies = trace.iter().map(|cmd| service.apply(cmd)).collect();
    (service, replies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_replay_is_bit_identical_to_the_reference(seed in any::<u64>()) {
        let trace = random_trace(seed, BITS, 40);
        let (mut reference, expected) = run_reference(&trace);
        let (service, replies) = run_service(&trace);
        prop_assert_eq!(&expected, &replies);
        // Ledgers of every surviving session agree…
        for name in reference.list_sessions() {
            prop_assert_eq!(
                reference.ledger(&name).unwrap(),
                service.ledger(&name).unwrap(),
                "ledger of `{}`",
                &name
            );
            // …and so do the final snapshot documents (full sketch state:
            // hash draws, reservoirs, levels, counters).
            let doc = service.save(&name).unwrap();
            let expected_doc = match reference
                .apply(&ServiceCommand::Save { name: name.clone() })
                .unwrap()
            {
                CommandReply::Snapshot(doc) => doc,
                other => panic!("Save replied {other:?}"),
            };
            prop_assert_eq!(&expected_doc, &doc, "snapshot of `{}`", &name);
        }
    }

    #[test]
    fn batch_boundaries_never_change_query_answers(seed in any::<u64>(), chunk in 1usize..9) {
        let trace = random_trace(seed, BITS, 30);
        let split = resplit_batches(&trace, chunk);
        let (_, base_replies) = run_service(&trace);
        let (_, split_replies) = run_service(&split);
        prop_assert_eq!(
            query_outputs(&trace, &base_replies),
            query_outputs(&split, &split_replies),
            "chunk = {}",
            chunk
        );
    }

    #[test]
    fn save_restore_round_trips_preserve_state_and_future_behaviour(seed in any::<u64>()) {
        let trace = random_trace(seed, BITS, 25);
        let (mut donor, _) = run_service(&trace);
        let extra: Vec<u64> = (0..40).map(|i| seed.wrapping_mul(31).wrapping_add(i) % 500).collect();
        for name in donor.list_sessions() {
            let doc = donor.save(&name).unwrap();
            let mut fresh = SketchService::new(1);
            prop_assert_eq!(fresh.restore(&doc).unwrap(), name.clone());
            // Restoring resurrects the exact bytes…
            prop_assert_eq!(&fresh.save(&name).unwrap(), &doc);
            prop_assert_eq!(&ServiceError::DuplicateSession(name.clone()),
                            &fresh.restore(&doc).unwrap_err());
            // …and the restored session continues exactly like the donor.
            if donor.spec(&name).unwrap().kind != SketchKind::StructuredMinimum {
                donor.ingest(&name, &extra).unwrap();
                fresh.ingest(&name, &extra).unwrap();
                prop_assert_eq!(
                    donor.estimate(&name).unwrap().to_bits(),
                    fresh.estimate(&name).unwrap().to_bits()
                );
                prop_assert_eq!(&donor.save(&name).unwrap(), &fresh.save(&name).unwrap());
            }
        }
    }
}

#[test]
fn corrupt_snapshots_are_rejected_not_trusted() {
    let mut service = SketchService::new(1);
    let spec = SessionSpec::new(SketchKind::Minimum, 12, 8, 3, 1);
    service.create_session("s", spec).unwrap();
    service
        .ingest("s", &(1..=40).collect::<Vec<u64>>())
        .unwrap();
    let doc = service.save("s").unwrap();
    // Free the name so every rejection below is about the document itself,
    // not DuplicateSession.
    service.drop_session("s").unwrap();

    // The first row's full reservoir of 8 values, entry by entry, and the
    // document with a rewritten list in its place.
    let (head, rest) = doc.split_once("\"smallest\":[").unwrap();
    let (list, tail) = rest.split_at(rest.find("}]").unwrap() + 1);
    let entries: Vec<String> = list
        .split("},{")
        .map(|e| format!("{{{}}}", e.trim_matches(['{', '}'])))
        .collect();
    let with = |entries: &[String]| format!("{head}\"smallest\":[{}{tail}", entries.join(","));
    assert_eq!((entries.len(), with(&entries)), (8, doc.clone()));
    let mut permuted = entries.clone();
    permuted.swap(0, 1);
    let mut duplicated = entries.clone();
    duplicated[1] = entries[0].clone();
    // A ninth value above the rest: the largest 36-bit one, MSB-aligned.
    let mut overfull = entries.clone();
    overfull.push(format!("{{\"len\":36,\"words\":[{}]}}", !0u64 << 28));

    for corrupt in [
        // Reservoirs must list strictly ascending values, at most Thresh
        // of them: a permuted list would restore but not save back
        // byte-identically.
        with(&permuted),
        with(&duplicated),
        with(&overfull),
        "not json".to_string(),
        "{}".to_string(),
        doc.replace("mcf0-sketch-service/v1", "someone-else/v9"),
        doc.replace("\"minimum\"", "\"rhombus\""),
        doc.replace("\"minimum\":[", "\"minimum\":null,\"ignored\":["),
        // Well-formed but inconsistent: the seed no longer produces the
        // document's hashes, so merging the restored state with the
        // redrawn partials would be unsound — must be an Err, not a
        // partial-side assert.
        doc.replace("\"seed\":1", "\"seed\":2"),
    ] {
        assert!(
            matches!(service.restore(&corrupt), Err(ServiceError::Snapshot(_))),
            "accepted corrupt snapshot: {corrupt:.60}"
        );
    }
}

/// FNV-1a-64 over a document's bytes.
fn fnv1a64(doc: &str) -> u64 {
    doc.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests of canonical Minimum Save documents, per universe width: a plain
/// session and a 3-epoch windowed one. Every other suite compares the
/// service against `ReferenceService`, which shares `MinimumF0`, so a
/// reservoir layout change that altered documents would pass them all;
/// these fixed digests would not.
const SAVE_DIGESTS: [(usize, u64, u64); 4] = [
    (8, 0xb6edcb48f11a079f, 0x6575684869f70782),
    (22, 0x32628a7aeefef5c2, 0x1c50e55270f2115a),
    (43, 0x2823f0fda5206a44, 0x7f8916f4e5ef47b8),
    (64, 0x8876257c79861fdf, 0xc70693d81f5c9d2b),
];
/// The same for a plain width-43 session after a twin merge.
const MERGED_SAVE_DIGEST: u64 = 0x890677218b91d8a4;

/// Drives one session through four batches that fill and churn its
/// reservoirs (`Thresh` 24, 3 rows), advancing windowed sessions an epoch
/// per batch so slots also retire.
fn pinned_minimum_run(service: &mut SketchService, name: &str, spec: SessionSpec, salt: u64) {
    service.create_session(name, spec).unwrap();
    let mut rng = mcf0_hashing::Xoshiro256StarStar::seed_from_u64(salt);
    let shift = 64 - spec.universe_bits;
    for epoch in 1..=4u64 {
        let items: Vec<u64> = (0..300).map(|_| rng.next_u64() >> shift).collect();
        service.ingest(name, &items).unwrap();
        if spec.window.is_some() {
            service.advance(name, epoch).unwrap();
        }
    }
}

#[test]
fn minimum_save_documents_match_their_pinned_digests() {
    let mut service = SketchService::new(1);
    for (bits, plain, windowed) in SAVE_DIGESTS {
        let spec = SessionSpec::new(SketchKind::Minimum, bits, 24, 3, 7);
        pinned_minimum_run(&mut service, "plain", spec, bits as u64);
        pinned_minimum_run(&mut service, "win", spec.with_window(3), bits as u64);
        let got = (
            fnv1a64(&service.save("plain").unwrap()),
            fnv1a64(&service.save("win").unwrap()),
        );
        assert_eq!(got, (plain, windowed), "bits = {bits}");
        service.drop_session("plain").unwrap();
        service.drop_session("win").unwrap();
    }
    let spec = SessionSpec::new(SketchKind::Minimum, 43, 24, 3, 7);
    pinned_minimum_run(&mut service, "a", spec, 1);
    pinned_minimum_run(&mut service, "b", spec, 2);
    service.merge_sessions("a", "b").unwrap();
    assert_eq!(fnv1a64(&service.save("a").unwrap()), MERGED_SAVE_DIGEST);
}

/// Digests of canonical structured-Minimum Save documents, captured while
/// the structured sketch still kept its own `BitVec` reservoir: a plain and
/// a 3-epoch windowed session per width. `ReferenceService` shares
/// `StructuredMinimumF0` too, so only fixed digests pin the document layout.
const STRUCTURED_SAVE_DIGESTS: [(usize, u64, u64); 4] = [
    (8, 0xa1e7ccac4c732210, 0x754b3fcc7ee221c6),
    (22, 0x92fce2b7b3a86412, 0xf8227f791359265a),
    (43, 0x52611e0c5463b397, 0xe7a0141c008b11e9),
    (64, 0xf07defb6dced9bd0, 0x416854fd94abe347),
];
/// The same for a plain width-43 structured session after a twin merge.
const STRUCTURED_MERGED_SAVE_DIGEST: u64 = 0xf85ab5428071a79f;

/// Drives one structured session through four batches of three random DNF
/// sets (terms of 2–5 literals, so each set outnumbers `Thresh` 24 and the
/// reservoirs churn), advancing windowed sessions an epoch per batch.
fn pinned_structured_run(service: &mut SketchService, name: &str, spec: SessionSpec, salt: u64) {
    service.create_session(name, spec).unwrap();
    let mut rng = mcf0_hashing::Xoshiro256StarStar::seed_from_u64(salt);
    for epoch in 1..=4u64 {
        let sets: Vec<_> = (0..3)
            .map(|_| random_dnf(&mut rng, spec.universe_bits, 3, (2, 5)))
            .collect();
        service.ingest_structured(name, &sets).unwrap();
        if spec.window.is_some() {
            service.advance(name, epoch).unwrap();
        }
    }
}

#[test]
fn structured_save_documents_match_their_pinned_digests() {
    let mut service = SketchService::new(1);
    for (bits, plain, windowed) in STRUCTURED_SAVE_DIGESTS {
        let spec = SessionSpec::new(SketchKind::StructuredMinimum, bits, 24, 3, 7);
        pinned_structured_run(&mut service, "plain", spec, bits as u64);
        pinned_structured_run(&mut service, "win", spec.with_window(3), bits as u64);
        let got = (
            fnv1a64(&service.save("plain").unwrap()),
            fnv1a64(&service.save("win").unwrap()),
        );
        assert_eq!(got, (plain, windowed), "bits = {bits}");
        service.drop_session("plain").unwrap();
        service.drop_session("win").unwrap();
    }
    let spec = SessionSpec::new(SketchKind::StructuredMinimum, 43, 24, 3, 7);
    pinned_structured_run(&mut service, "a", spec, 1);
    pinned_structured_run(&mut service, "b", spec, 2);
    service.merge_sessions("a", "b").unwrap();
    assert_eq!(
        fnv1a64(&service.save("a").unwrap()),
        STRUCTURED_MERGED_SAVE_DIGEST
    );
}

/// Specs no sketch can be drawn from or too large to draw, and items
/// outside a session's universe, are typed rejections in both interpreters,
/// made before anything is drawn or dispatched; the sessions already there
/// carry on.
#[test]
fn hostile_specs_and_items_are_typed_rejections_in_both_interpreters() {
    let good = SessionSpec::new(SketchKind::Minimum, 8, 12, 3, 1);
    let dnf = SessionSpec::new(SketchKind::StructuredMinimum, 8, 12, 3, 1);
    let ams = SessionSpec::new(SketchKind::Ams, 8, 4, 3, 1);
    let create = |name: &str, spec| ServiceCommand::Create {
        name: name.into(),
        spec,
    };
    let bad_spec = |name: &str, reason| ServiceError::InvalidSpec {
        session: name.into(),
        reason,
    };
    let outside = |name: &str| ServiceError::ItemOutsideUniverse {
        session: name.into(),
        universe_bits: 8,
    };
    let mut rng = mcf0_hashing::Xoshiro256StarStar::seed_from_u64(5);
    let setup = [
        create("m", good),
        create("dnf", dnf),
        ServiceCommand::Ingest {
            name: "m".into(),
            items: (0..256).collect(),
        },
        ServiceCommand::IngestStructured {
            name: "dnf".into(),
            sets: vec![random_dnf(&mut rng, 8, 3, (1, 4))],
        },
    ];
    let width = "universe_bits must be in 1..=64";
    let too_big = "nominal size exceeds MAX_SESSION_BITS";

    let probes = [
        (
            create(
                "u0",
                SessionSpec {
                    universe_bits: 0,
                    ..good
                },
            ),
            bad_spec("u0", width),
        ),
        (
            create(
                "u65",
                SessionSpec {
                    universe_bits: 65,
                    ..good
                },
            ),
            bad_spec("u65", width),
        ),
        (
            create(
                "s70",
                SessionSpec {
                    universe_bits: 70,
                    ..dnf
                },
            ),
            bad_spec("s70", width),
        ),
        (
            create("t0", SessionSpec { thresh: 0, ..good }),
            bad_spec("t0", "thresh must be at least 1"),
        ),
        (
            create("r0", SessionSpec { rows: 0, ..dnf }),
            bad_spec("r0", "rows must be at least 1"),
        ),
        (
            create("c0", SessionSpec { columns: 0, ..ams }),
            bad_spec("c0", "ams columns must be at least 1"),
        ),
        (
            create(
                "e0",
                SessionSpec {
                    kind: SketchKind::Estimation,
                    epsilon: 0.0,
                    ..good
                },
            ),
            bad_spec("e0", "epsilon must be in (0, 1)"),
        ),
        (
            create(
                "enan",
                SessionSpec {
                    epsilon: f64::NAN,
                    ..good
                },
            ),
            bad_spec("enan", "epsilon must be in (0, 1)"),
        ),
        (
            create("d1", SessionSpec { delta: 1.0, ..good }),
            bad_spec("d1", "delta must be in (0, 1)"),
        ),
        (
            create(
                "r1e9",
                SessionSpec {
                    rows: 1_000_000_000,
                    ..good
                },
            ),
            bad_spec("r1e9", too_big),
        ),
        (
            create(
                "e1e-300",
                SessionSpec {
                    epsilon: 1e-300,
                    ..SessionSpec::new(SketchKind::Estimation, 64, 150, 9, 1)
                },
            ),
            bad_spec("e1e-300", too_big),
        ),
        (
            ServiceCommand::Ingest {
                name: "m".into(),
                items: vec![1, 300],
            },
            outside("m"),
        ),
        (
            ServiceCommand::Ingest {
                name: "m".into(),
                items: vec![256],
            },
            outside("m"),
        ),
        (
            ServiceCommand::IngestStructured {
                name: "dnf".into(),
                sets: vec![random_dnf(&mut rng, 9, 2, (1, 3))],
            },
            outside("dnf"),
        ),
    ];
    let (mut service, mut reference) = (SketchService::new(1), ReferenceService::new());
    for command in &setup {
        assert_eq!(service.apply(command), reference.apply(command));
    }
    for (command, want) in &probes {
        assert_eq!(service.apply(command).as_ref(), Err(want), "{command:?}");
        assert_eq!(reference.apply(command).as_ref(), Err(want), "{command:?}");
    }
    // Nothing was drawn or applied: the two sessions answer as before, in
    // both interpreters, and keep ingesting.
    assert_eq!(service.list_sessions(), ["dnf", "m"]);
    let more = ServiceCommand::Ingest {
        name: "m".into(),
        items: vec![255, 7],
    };
    assert_eq!(service.apply(&more), Ok(CommandReply::Done));
    assert_eq!(reference.apply(&more), Ok(CommandReply::Done));
    for name in ["m", "dnf"] {
        for query in [
            ServiceCommand::Estimate { name: name.into() },
            ServiceCommand::Save { name: name.into() },
        ] {
            assert_eq!(service.apply(&query), reference.apply(&query));
        }
    }
    // The ledgers count only the accepted batches.
    assert_eq!(service.ledger("m").unwrap().items, 256 + 2);
    assert_eq!(service.ledger("dnf").unwrap().structured_items, 1);
    // AMS has no `Thresh`, so a zero there is valid, and its Save
    // document restores like any other.
    let ams_zero = SessionSpec { thresh: 0, ..ams };
    service.create_session("ams", ams_zero).unwrap();
    let doc = service.save("ams").unwrap();
    service.drop_session("ams").unwrap();
    assert_eq!(service.restore(&doc).unwrap(), "ams");
}

#[test]
fn self_merge_is_rejected_in_both_interpreters() {
    // `merge(name, name)` used to be silently accepted; for the AMS F2
    // sketch (multiset-sum merge) that doubles every counter — the estimate
    // quadruples — and for every kind it bumps the merge ledger without
    // semantic effect. Both interpreters must reject it identically, and
    // the rejection must leave state untouched.
    let spec = SessionSpec {
        kind: SketchKind::Ams,
        universe_bits: 16,
        epsilon: 0.5,
        delta: 0.2,
        thresh: 0,
        rows: 3,
        columns: 32,
        seed: 99,
        window: None,
    };
    let mut service = SketchService::new(1);
    let mut reference = ReferenceService::new();
    let trace = [
        ServiceCommand::Create {
            name: "solo".into(),
            spec,
        },
        ServiceCommand::Ingest {
            name: "solo".into(),
            items: (0..200).map(|i| i % 37).collect(),
        },
    ];
    for cmd in &trace {
        service.apply(cmd).unwrap();
        reference.apply(cmd).unwrap();
    }
    let before = service.save("solo").unwrap();
    let cmd = ServiceCommand::Merge {
        dst: "solo".into(),
        src: "solo".into(),
    };
    let expected = Err(ServiceError::MergeSelf("solo".into()));
    assert_eq!(service.apply(&cmd), expected);
    assert_eq!(reference.apply(&cmd), expected);
    // No double-counting, no ledger bump: the snapshot is unchanged.
    assert_eq!(service.save("solo").unwrap(), before);
    assert_eq!(service.ledger("solo").unwrap().merges, 0);
    // Unknown sessions still win over the self-merge check (existence is
    // checked first, in dst → src order, in both interpreters).
    let ghost = ServiceCommand::Merge {
        dst: "ghost".into(),
        src: "ghost".into(),
    };
    let missing = Err(ServiceError::UnknownSession("ghost".into()));
    assert_eq!(service.apply(&ghost), missing);
    assert_eq!(reference.apply(&ghost), missing);
}

/// The batch size from which the service splits a `u64` batch in halves
/// across its two partials (`2 × HELPER_MIN_ITEMS` in `src/shard.rs`).
const SPLIT: usize = 2048;

/// A scripted trace whose `Ingest` batches hold `SPLIT − 1` (whole to the
/// home partial), `SPLIT` (the smallest split) and `4 × SPLIT` items, with
/// reads, twin merges, epoch advances and set algebra between them.
/// Returned in two halves, for a save/restore cut in between.
fn straddle_trace(seed: u64) -> [Vec<ServiceCommand>; 2] {
    let sessions = ["min", "min2", "bkt", "wmin", "wmin2"];
    let mut rng = mcf0_hashing::Xoshiro256StarStar::seed_from_u64(seed);
    let mut halves: [Vec<ServiceCommand>; 2] = Default::default();
    halves[0] = trace_sessions(BITS)
        .into_iter()
        .filter(|(name, _)| sessions.contains(&name.as_str()))
        .map(|(name, spec)| ServiceCommand::Create { name, spec })
        .collect();
    // Each half of the trace meets all three lengths.
    for (step, len) in [SPLIT - 1, SPLIT, 4 * SPLIT]
        .repeat(2)
        .into_iter()
        .enumerate()
    {
        let half = &mut halves[step / 3];
        for name in sessions {
            let items = (0..len).map(|_| rng.next_u64() & 0xFFFF).collect();
            half.push(ServiceCommand::Ingest {
                name: name.into(),
                items,
            });
        }
        let epoch = step as u64 + 1;
        half.extend([
            ServiceCommand::Estimate { name: "min".into() },
            ServiceCommand::EstimateWindow {
                name: "wmin".into(),
            },
            ServiceCommand::SpaceBits { name: "bkt".into() },
            ServiceCommand::Merge {
                dst: "min".into(),
                src: "min2".into(),
            },
            ServiceCommand::Advance {
                name: "wmin".into(),
                epoch,
            },
            ServiceCommand::Advance {
                name: "wmin2".into(),
                epoch,
            },
            ServiceCommand::Merge {
                dst: "wmin".into(),
                src: "wmin2".into(),
            },
            ServiceCommand::JaccardEstimate {
                a: "min".into(),
                b: "min2".into(),
            },
            ServiceCommand::Save {
                name: sessions[step % sessions.len()].into(),
            },
        ]);
    }
    halves
}

#[test]
fn batches_straddling_the_helper_gate_are_bit_identical_to_the_reference() {
    for seed in [1u64, 2] {
        let [first, second] = straddle_trace(seed);
        let (mut reference, mut expected) = run_reference(&first);
        expected.extend(second.iter().map(|cmd| reference.apply(cmd)));
        let (donor, mut replies) = run_service(&first);
        // Cut: every session saved, restored into a fresh service (state
        // lands on the home partial), and the second half runs there.
        let mut service = SketchService::new(1);
        for name in donor.list_sessions() {
            service.restore(&donor.save(&name).unwrap()).unwrap();
        }
        replies.extend(second.iter().map(|cmd| service.apply(cmd)));
        assert_eq!(expected, replies, "seed {seed}");
        for name in reference.list_sessions() {
            assert_eq!(reference.ledger(&name), service.ledger(&name), "{name}");
            let save = ServiceCommand::Save { name: name.clone() };
            assert_eq!(reference.apply(&save), service.apply(&save), "{name}");
        }
    }
}
