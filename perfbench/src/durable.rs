//! `durable_ingest`: `DurableSketchService` on the real filesystem, two
//! shards, `group_commit = 32`, 512-item batches, then `sync`, `close` and
//! a reopen. The only workload where `wal`, `storage` and `snapshot` do
//! most of the work; recovery is the second use of the same layers.
//!
//! A round feeds the planted pool to a fresh store directory; the
//! compaction threshold is the issue's 32 MiB scaled by the same factor as
//! the item count (10M → one pool), so a round still crosses it three
//! times. The recovered state of every round is compared with one
//! `ReferenceService` replay.

use crate::gen::{dedup_ratio, planted_stream, Rng};
use crate::harness::{
    end_to_end, measure_in_slices, timed, within, Block, BlockClock, Checks, Outcome, Plan,
    Samples, ROWS,
};
use crate::layers::{
    rung, service_apply, session_spec, sketch_process, toeplitz_eval, Cost, Layers, Ledger,
};
use crate::spans::{Recorder, ROOT};
use crate::stats::quiet;
use mcf0::service::storage::{FaultyStorage, FsStorage, RetryPolicy, Storage};
use mcf0::service::wal::{self, WalCursor, WalWriter};
use mcf0::service::{
    snapshot, CommandReply, DurableConfig, DurableSketchService, ReferenceService, ServiceCommand,
    SessionSpec, SketchKind,
};
use serde::Serialize;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items per `Ingest` command.
const BATCH: usize = 512;
/// Items of the planted pool one round logs (1024 commands).
const POOL_ITEMS: usize = 1024 * BATCH;
const SHARDS: usize = 2;
const GROUP_COMMIT: usize = 32;
/// The issue's sizing, which the pool scales down: 10M items against a
/// 32 MiB compaction threshold.
const FULL_ITEMS: u64 = 10_000_000;
const FULL_COMPACT_BYTES: u64 = 32 << 20;
const COMPACT_AFTER_BYTES: u64 = FULL_COMPACT_BYTES * POOL_ITEMS as u64 / FULL_ITEMS;
/// A round is timed in eight units of this many commands (a twentieth of a
/// second each), so that a unit fits inside one of the box's quiet stretches.
const UNIT_COMMANDS: usize = 128;
/// 1024 calls a round leave ten samples beyond the round's p99.
const TAIL_Q: f64 = 0.99;
const SESSION: &str = "durable";

fn config() -> DurableConfig {
    DurableConfig {
        group_commit: GROUP_COMMIT,
        compact_after_bytes: Some(COMPACT_AFTER_BYTES),
        retry: RetryPolicy::default(),
    }
}

struct Setup {
    stream: Vec<u64>,
    planted: usize,
    spec: SessionSpec,
    create: ServiceCommand,
    commands: Vec<ServiceCommand>,
    /// Holds this set-up's store directories; removed with the set-up.
    root: PathBuf,
    store: Option<DurableSketchService>,
}

impl Setup {
    fn store_dir(&self) -> PathBuf {
        self.root.join("store")
    }
}

/// What the process's store roots are called; the run must leave none.
fn root_prefix() -> String {
    format!("durable-{}-", std::process::id())
}

fn build(plan: &Plan) -> Setup {
    // Relaxed: the counter only keeps the names of two set-ups apart.
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    let nth = BUILDS.fetch_add(1, Ordering::Relaxed);
    let planted = POOL_ITEMS / 2;
    let stream = planted_stream(&mut Rng::lane(plan.seed, 40), planted, POOL_ITEMS);
    let spec = session_spec(
        SketchKind::Minimum,
        plan.seed.wrapping_mul(2).wrapping_add(41),
    );
    let commands = stream
        .chunks(BATCH)
        .map(|batch| ServiceCommand::Ingest {
            name: SESSION.to_string(),
            items: batch.to_vec(),
        })
        .collect();
    let mut setup = Setup {
        stream,
        planted,
        spec,
        create: ServiceCommand::Create {
            name: SESSION.to_string(),
            spec,
        },
        commands,
        root: plan.out_dir.join(format!("{}{nth}", root_prefix())),
        store: None,
    };
    setup.store = Some(fresh_store(&setup));
    setup
}

/// An empty store directory, opened, with the session created.
fn fresh_store(setup: &Setup) -> DurableSketchService {
    let dir = setup.store_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) =
        DurableSketchService::open(&dir, SHARDS, config()).expect("an empty store opens");
    store
        .apply(&setup.create)
        .expect("a fresh store takes the session");
    store
}

fn teardown(setup: Setup) {
    drop(setup.store);
    let _ = std::fs::remove_dir_all(&setup.root);
}

struct Expected {
    estimate: f64,
    document: String,
}

fn reference(setup: &Setup) -> Expected {
    let mut reference = ReferenceService::new();
    let mut run = |command: &ServiceCommand| {
        reference
            .apply(command)
            .expect("the reference interpreter takes the workload")
    };
    run(&setup.create);
    for command in &setup.commands {
        run(command);
    }
    let name = SESSION.to_string();
    let CommandReply::Estimate(estimate) = run(&ServiceCommand::Estimate { name: name.clone() })
    else {
        unreachable!("Estimate answers with an estimate");
    };
    let CommandReply::Snapshot(document) = run(&ServiceCommand::Save { name }) else {
        unreachable!("Save answers with a snapshot");
    };
    Expected { estimate, document }
}

/// What rounds bring back: every unit of every round as `(unit, block)`,
/// and every round's reopen time.
#[derive(Default)]
struct Rounds {
    repeats: Vec<(usize, Block)>,
    recover_s: Vec<f64>,
}

impl Rounds {
    fn absorb(&mut self, other: Rounds) {
        self.repeats.extend(other.repeats);
        self.recover_s.extend(other.recover_s);
    }

    /// The round as it runs undisturbed, and the reopen times beside it.
    fn settle(self) -> Samples {
        Samples {
            recover_s: self.recover_s,
            ..Samples::of_repeats(self.repeats)
        }
    }
}

/// Rounds until `budget` is spent (at least one): log the pool, `sync`,
/// `close`, reopen. A round is timed in units of `UNIT_COMMANDS` commands (a
/// unit does the same work in every round: the stores start empty, so the
/// fsyncs and the checkpoints fall on the same commands); the closing `sync`
/// belongs to the last unit.
fn measure(
    setup: &mut Setup,
    expected: &Expected,
    budget: Duration,
    mut rec: Option<&mut Recorder>,
    checks: &mut Checks,
) -> Rounds {
    let mut rounds = Rounds::default();
    let deadline = Instant::now() + budget;
    let mut call_id = 0u64;
    loop {
        let mut store = setup.store.take().expect("a round starts on an open store");
        let mut errors = 0u64;
        let units = setup.commands.chunks(UNIT_COMMANDS);
        let last = units.len() - 1;
        for (unit, commands) in units.enumerate() {
            let clock = BlockClock::start();
            let mut call_ms = Vec::with_capacity(commands.len());
            for command in commands {
                let start = Instant::now();
                errors += u64::from(store.apply(command).is_err());
                let elapsed = start.elapsed();
                call_ms.push(elapsed.as_secs_f64() * 1e3);
                if let Some(rec) = rec.as_deref_mut() {
                    let end = rec.now();
                    rec.push(
                        "e2e.call",
                        end - elapsed.as_nanos() as u64,
                        end,
                        ROOT,
                        call_id,
                    );
                }
                call_id += 1;
            }
            if unit == last {
                errors += u64::from(store.sync().is_err());
            }
            let ops = (commands.len() * BATCH) as u64;
            rounds.repeats.push((unit, clock.finish(ops, call_ms)));
        }
        checks.tally(
            setup.commands.len() as u64 + 1,
            errors,
            "durable apply or sync returned an error",
        );
        let checkpoints = store.generation();
        checks.check(checkpoints >= 3, || {
            format!("a round crossed the compaction threshold {checkpoints} times, not 3")
        });
        checks.check(store.close().is_ok(), || {
            "close returned an error".to_string()
        });

        // Recovery: checkpoint restore plus replay of the log's tail.
        let start = Instant::now();
        let reopened = DurableSketchService::open(setup.store_dir(), SHARDS, config());
        rounds.recover_s.push(start.elapsed().as_secs_f64());
        match reopened {
            Ok((recovered, report)) => {
                checks.check(report.truncated.is_none(), || {
                    format!("the log did not reopen clean: {:?}", report.truncated)
                });
                checks.check(
                    report.checkpoint_sessions == 1 && report.replayed < setup.commands.len(),
                    || "recovery did not start from the round's last checkpoint".to_string(),
                );
                let estimate = recovered.estimate(SESSION).unwrap_or(f64::NAN);
                checks.check(estimate.to_bits() == expected.estimate.to_bits(), || {
                    format!(
                        "recovered estimate {estimate} differs from the reference {}",
                        expected.estimate
                    )
                });
                checks.check(
                    within(estimate, setup.planted as f64, setup.spec.epsilon),
                    || {
                        format!(
                            "estimate {estimate} outside (1 ± ε) of the planted F0 {}",
                            setup.planted
                        )
                    },
                );
                checks.check(
                    recovered
                        .save(SESSION)
                        .is_ok_and(|doc| doc == expected.document),
                    || "recovered Save document differs from the reference".to_string(),
                );
            }
            Err(e) => checks.check(false, || format!("the store did not reopen: {e}")),
        }
        setup.store = Some(fresh_store(setup));
        if Instant::now() >= deadline {
            return rounds;
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut checks = Checks::default();
    let (mut setup, first_setup_s) = timed(|| build(plan));
    let expected = reference(&setup);
    let (metrics, mut guards) = if plan.trace {
        trace(plan, &mut setup, &expected, &mut checks)
    } else {
        let mut setup_s = vec![first_setup_s];
        let mut rounds = Rounds::default();
        measure_in_slices(
            plan,
            &mut setup_s,
            || build(plan),
            teardown,
            |budget| rounds.absorb(measure(&mut setup, &expected, budget, None, &mut checks)),
        );
        (end_to_end(&setup_s, &rounds.settle(), TAIL_Q), Vec::new())
    };
    teardown(setup);
    let left_behind = std::fs::read_dir(&plan.out_dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .find(|name| name.starts_with(&root_prefix()));
    if let Some(name) = left_behind {
        guards.push(format!("the store directory {name} was left behind"));
    }
    Outcome {
        checks,
        metrics,
        guards,
        remarks: Vec::new(),
    }
}

fn trace(
    plan: &Plan,
    setup: &mut Setup,
    expected: &Expected,
    checks: &mut Checks,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    // One round first: the plain and the traced phase then both run warm.
    measure(setup, expected, plan.share(0.01), None, checks);
    let plain = measure(setup, expected, plan.share(0.15), None, checks).settle();
    let traced = measure(setup, expected, plan.share(0.15), Some(&mut rec), checks);
    let traced_items: u64 = traced.repeats.iter().map(|(_, unit)| unit.ops).sum();
    let traced = traced.settle();
    layers.set(
        "gen.trace_overhead_frac",
        plain.ops_per_s() / traced.ops_per_s() - 1.0,
    );
    layers.set(
        "durable.apply_ns",
        rec.self_ns("e2e.call") / traced_items as f64,
    );

    let each = plan.share(0.6 / 8.0);
    let dir = setup.root.join("rungs");
    std::fs::create_dir_all(&dir).expect("the rung directory is created");
    let wal = wal_rungs(&mut rec, each * 2, &dir, &setup.commands);
    let store = store_rungs(&mut rec, each * 2, &dir, setup, expected, checks);
    let creates = [setup.create.clone()];
    let s2 = service_apply(&mut rec, each, SHARDS, &creates, &setup.commands);
    let s1 = service_apply(&mut rec, each, 1, &creates, &setup.commands);
    let batches: Vec<&[u64]> = setup.stream.chunks(BATCH).collect();
    let min = sketch_process(
        &mut rec,
        each,
        SketchKind::Minimum,
        &batches,
        setup.spec.seed,
    );
    let eval = toeplitz_eval(&mut rec, each, &setup.stream, setup.spec.seed);
    let dedup = dedup_ratio(batches.iter().copied());
    let _ = std::fs::remove_dir_all(&dir);

    // Per item: the in-memory apply, the log append (framing included),
    // the group-commit fsync once per 32 commands, and the round's
    // checkpoints spread over its items.
    let durable_cpu = (wal.append_per_frame.cpu_ns + wal.sync.cpu_ns / GROUP_COMMIT as f64)
        / BATCH as f64
        + store.checkpoint.cpu_ns * store.checkpoints / POOL_ITEMS as f64;
    let hashing_cpu = eval.cpu_ns * ROWS as f64 * dedup;
    Ledger {
        e2e_wall_ns: traced.wall_ns_per_op(),
        e2e_cpu_ns: traced.cpu_us_per_op() * 1e3,
        groups: vec![
            ("ledger.share_sketch", min.cpu_ns),
            ("ledger.share_service", s2.cpu_ns - min.cpu_ns),
            ("ledger.share_durable", durable_cpu),
        ],
        hashing_in_sketch_ns: hashing_cpu,
    }
    .write(&mut layers);
    layers.set("hashing.toeplitz_eval_ns", eval.wall_ns);
    layers.set("streaming.minimum_process_ns", min.wall_ns);
    layers.set("streaming.dedup_ratio", dedup);
    layers.set("service.apply_s1_ns", s1.wall_ns);
    layers.set("service.apply_s2_ns", s2.wall_ns);
    layers.set("service.route_tax_ns", s2.wall_ns - min.wall_ns);
    layers.set("wal.frame_ns_per_byte", wal.frame_per_byte.wall_ns);
    layers.set("wal.append_ns_per_frame", wal.append_per_frame.wall_ns);
    layers.set("wal.sync_ms", wal.sync.wall_ns / 1e6);
    layers.set("wal.bytes_per_item", wal.bytes_per_item);
    layers.set("wal.replay_ns_per_frame", wal.replay_per_frame.wall_ns);
    layers.set("storage.ops", store.ops);
    layers.set("storage.fsyncs", store.fsyncs);
    layers.set("durable.checkpoint_ms", store.checkpoint.wall_ns / 1e6);
    layers.set("durable.checkpoints", store.checkpoints);
    let reopens: Vec<f64> = [&plain.recover_s[..], &traced.recover_s[..]].concat();
    layers.set("durable.recover_s", quiet(&reopens, true));
    layers.set("snapshot.encode_ms", store.encode.wall_ns / 1e6);
    layers.set("snapshot.decode_ms", store.decode.wall_ns / 1e6);
    layers.set("snapshot.bytes", expected.document.len() as f64);

    let guards = crate::finish_trace(plan, &rec, &layers);
    (layers.into_metrics(), guards)
}

struct WalRungs {
    frame_per_byte: Cost,
    append_per_frame: Cost,
    sync: Cost,
    bytes_per_item: f64,
    replay_per_frame: Cost,
}

/// `wal::frame`, `WalWriter::append` / `sync` and `WalCursor::next_record`
/// over the round's commands as the durable service serialises them.
fn wal_rungs(
    rec: &mut Recorder,
    budget: Duration,
    dir: &Path,
    commands: &[ServiceCommand],
) -> WalRungs {
    let payloads: Vec<Vec<u8>> = commands
        .iter()
        .map(|command| {
            let mut json = String::new();
            command.serialize_json(&mut json);
            json.into_bytes()
        })
        .collect();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let framed_bytes = payload_bytes + payloads.len() * wal::FRAME_HEADER_BYTES;
    let (storage, retry) = (FsStorage, RetryPolicy::none());
    let path = dir.join("rung.log");
    let each = budget / 4;

    let frame_per_byte = rung(rec, "wal.frame", each, payload_bytes as f64, |pass| {
        for (i, payload) in payloads.iter().enumerate() {
            pass.call(i as u64, || black_box(wal::frame(payload)));
        }
    });
    // No group commit here: the fsync is its own rung.
    let append_per_frame = rung(rec, "wal.append", each, payloads.len() as f64, |pass| {
        let mut writer = WalWriter::create(&storage, &path, usize::MAX, &retry)
            .expect("the rung's log is created");
        for (i, payload) in payloads.iter().enumerate() {
            pass.call(i as u64, || writer.append(payload, &retry))
                .expect("the rung's log takes the frame");
        }
    });
    let windows = payloads.len() / GROUP_COMMIT;
    let sync = rung(rec, "wal.sync", each, windows as f64, |pass| {
        let mut writer = WalWriter::create(&storage, &path, usize::MAX, &retry)
            .expect("the rung's log is created");
        for (w, window) in payloads.chunks_exact(GROUP_COMMIT).enumerate() {
            for payload in window {
                writer
                    .append(payload, &retry)
                    .expect("the rung's log takes the frame");
            }
            pass.call(w as u64, || writer.sync(&retry))
                .expect("the rung's log syncs");
        }
    });
    // The sync rung left the whole round's log behind: replay it.
    let replay_per_frame = rung(rec, "wal.replay", each, payloads.len() as f64, |pass| {
        let mut cursor = WalCursor::new(&storage, &path, retry);
        for i in 0..windows * GROUP_COMMIT {
            let record = pass.call(i as u64, || cursor.next_record());
            assert!(matches!(record, Ok(Some(_))), "the rung's log replays");
        }
    });
    let _ = storage.delete(&path);
    WalRungs {
        frame_per_byte,
        append_per_frame,
        sync,
        bytes_per_item: framed_bytes as f64 / POOL_ITEMS as f64,
        replay_per_frame,
    }
}

struct StoreRungs {
    ops: f64,
    fsyncs: f64,
    checkpoints: f64,
    checkpoint: Cost,
    encode: Cost,
    decode: Cost,
}

/// One round over an unarmed `FaultyStorage` for the exact operation
/// counts, then `checkpoint` and the snapshot codec on the loaded store.
fn store_rungs(
    rec: &mut Recorder,
    budget: Duration,
    dir: &Path,
    setup: &Setup,
    expected: &Expected,
    checks: &mut Checks,
) -> StoreRungs {
    let counted = FaultyStorage::new(Arc::new(FsStorage));
    let store_dir = dir.join("counted");
    let open = || {
        DurableSketchService::open_with(Arc::new(counted.clone()), &store_dir, SHARDS, config())
            .expect("the counted store opens")
    };
    let (mut store, _) = open();
    store
        .apply(&setup.create)
        .expect("the counted store takes the session");
    for command in &setup.commands {
        store
            .apply(command)
            .expect("the counted store takes the round");
    }
    store.sync().expect("the counted store syncs");
    let checkpoints = store.generation() as f64;
    store.close().expect("the counted store closes");
    let (mut store, _) = open();
    let log = counted.op_log();
    let fsyncs = log
        .iter()
        .filter(|op| op.name == "sync" || op.name == "sync_dir")
        .count();
    checks.check(
        store
            .save(SESSION)
            .is_ok_and(|doc| doc == expected.document),
        || "the counted store's Save document differs from the reference".to_string(),
    );

    let each = budget / 3;
    let checkpoint = rung(rec, "durable.checkpoint", each, 1.0, |pass| {
        pass.call(0, || store.checkpoint())
            .expect("the loaded store checkpoints");
    });
    let view = store
        .service()
        .snapshot(SESSION)
        .expect("the loaded store holds the session");
    let encode = rung(rec, "snapshot.encode", each, 1.0, |pass| {
        pass.call(0, || {
            black_box(snapshot::encode(
                &view.name,
                &view.spec,
                &view.ledger,
                &view.sketch,
            ))
        });
    });
    let decode = rung(rec, "snapshot.decode", each, 1.0, |pass| {
        pass.call(0, || black_box(snapshot::decode(&expected.document)))
            .expect("the reference document decodes");
    });
    StoreRungs {
        ops: log.len() as f64,
        fsyncs: fsyncs as f64,
        checkpoints,
        checkpoint,
        encode,
        decode,
    }
}
