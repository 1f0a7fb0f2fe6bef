//! Sketch-service benchmark harness: seeded regression workloads driven
//! through the sharded multi-tenant service, with wall-clock / throughput
//! accounting and pinned-output gates — the service-layer counterpart of
//! `sketch_bench`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mcf0-bench --bin service_bench             # print table
//! cargo run --release -p mcf0-bench --bin service_bench -- --check  # fail on output drift
//! cargo run --release -p mcf0-bench --bin service_bench -- --check --heavy
//! cargo run --release -p mcf0-bench --bin service_bench -- --write  # update BENCH_streaming.json
//! ```
//!
//! The default workloads reuse `sketch_bench`'s seeds, so every service
//! estimate is pinned to the *direct sketch engine's* long-standing value:
//! sharding, batching, merging, save/restore — and now write-ahead-logged
//! crash recovery (`service_durable_minimum_w32_s2`, whose `items/s` column
//! tracks WAL-inclusive ingest throughput) — are pure routing/persistence,
//! and this gate enforces it in CI at both 1 and 4 shards. The
//! `service_socket_minimum_w32_s2` row drives the same workload end to end
//! through the TCP front-end (loopback socket, JSON wire codec, tenant
//! admission); its `items/s` column tracks the network tax. `--heavy` runs a
//! paper-scale (w = 48, Thresh = 150, 2·10^5 items) self-differential pass —
//! the sharded service against the unsharded reference interpreter,
//! snapshot documents compared byte for byte. `--write` merges a `service`
//! section into BENCH_streaming.json, preserving `sketch_bench`'s sections.

use mcf0::hashing::Xoshiro256StarStar;
use mcf0::service::net::proto::encode_line;
use mcf0::service::{
    serve, CommandReply, DurableConfig, DurableSketchService, ReferenceService, Request, Response,
    ServerConfig, ServiceCommand, SessionSpec, SketchKind, SketchService, TenantDirectory,
    TenantQuota,
};
use mcf0::streaming::workloads::{planted_f0_stream, skewed_stream};
use mcf0_bench::merge_bench_json;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// One measured service workload.
#[derive(Clone, Debug, Serialize)]
struct InstanceResult {
    /// Workload name.
    name: String,
    /// Wall-clock milliseconds for one run (release).
    wall_ms: f64,
    /// The estimate the workload produced (pinned).
    estimate: f64,
    /// Space bits of the merged session sketch (pinned).
    space_bits: u64,
    /// Ingest throughput in items/second (history only, not pinned).
    items_per_sec: Option<f64>,
}

/// Pinned `(name, estimate, space_bits)` — the values the *direct* sketch
/// engine has produced for these seeds since the word-packed-engine PR
/// (see `sketch_bench::PINNED`); the service must reproduce them at every
/// shard count. Drift means routing stopped being pure.
const PINNED: &[(&str, f64, u64)] = &[
    ("service_minimum_w32_s1", 19632.324160866257, 131607),
    ("service_minimum_w32_s4", 19632.324160866257, 131607),
    ("service_bucketing_w32_s4", 20480.0, 29015),
    ("service_estimation_w32_s4", 3604.454333655757, 220416),
    ("service_ams_f2_w24_s4", 9033068.157142857, 313600),
    ("service_structured_dnf_w16_s4", 53866.590500399325, 14955),
    ("service_merge_minimum_w32_s4", 19632.324160866257, 131607),
    // Windowed rows: the ring fold is pinned to `sketch_bench`'s
    // `windowed_minimum_w32_k3` value at both shard counts; space is the
    // whole 3-slot ring. The set-algebra rows pin inclusion–exclusion over
    // the shared draws.
    (
        "service_windowed_minimum_w32_k3_s1",
        13556.38196392681,
        394821,
    ),
    (
        "service_windowed_minimum_w32_k3_s4",
        13556.38196392681,
        394821,
    ),
    (
        "service_intersection_minimum_w32_s4",
        13410.404783482467,
        131607,
    ),
    ("service_jaccard_minimum_w32_s4", 0.683077799327186, 131607),
    ("service_restore_minimum_w32_s4", 19632.324160866257, 131607),
    ("service_durable_minimum_w32_s2", 19632.324160866257, 131607),
    ("service_socket_minimum_w32_s2", 19632.324160866257, 131607),
    // Concurrent-client rows: the same stream split across c pipelining
    // connections into one shared session. The F0 sketch is a function of
    // the distinct-item set — arrival order and interleaving are
    // irrelevant — so the estimate is pinned to the same value at every
    // client count.
    (
        "service_socket_minimum_w32_s2_c1",
        19632.324160866257,
        131607,
    ),
    (
        "service_socket_minimum_w32_s2_c8",
        19632.324160866257,
        131607,
    ),
    (
        "service_socket_minimum_w32_s2_c32",
        19632.324160866257,
        131607,
    ),
];

fn minimum_spec() -> SessionSpec {
    SessionSpec {
        kind: SketchKind::Minimum,
        universe_bits: 32,
        epsilon: 0.8,
        delta: 0.2,
        thresh: 150,
        rows: 9,
        columns: 0,
        seed: 22,
        window: None,
    }
}

fn minimum_stream() -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(21);
    planted_f0_stream(&mut rng, 32, 20_000, 40_000)
}

/// Minimum workload through a `shards`-shard service (the `sketch_bench`
/// `minimum_w32` seeds), with ingest throughput measured over the batch.
fn minimum(shards: usize) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let mut service = SketchService::new(shards);
    service.create_session("t", minimum_spec()).unwrap();
    let start = Instant::now();
    service.ingest("t", &stream).unwrap();
    let ingest_secs = start.elapsed().as_secs_f64();
    (
        service.estimate("t").unwrap(),
        service.space_bits("t").unwrap() as u64,
        Some(stream.len() as f64 / ingest_secs),
    )
}

fn bucketing(shards: usize) -> (f64, u64, Option<f64>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(11);
    let stream = planted_f0_stream(&mut rng, 32, 20_000, 40_000);
    let mut service = SketchService::new(shards);
    let spec = SessionSpec {
        kind: SketchKind::Bucketing,
        universe_bits: 32,
        epsilon: 0.8,
        delta: 0.2,
        thresh: 150,
        rows: 9,
        columns: 0,
        seed: 12,
        window: None,
    };
    service.create_session("t", spec).unwrap();
    let start = Instant::now();
    service.ingest("t", &stream).unwrap();
    let ingest_secs = start.elapsed().as_secs_f64();
    (
        service.estimate("t").unwrap(),
        service.space_bits("t").unwrap() as u64,
        Some(stream.len() as f64 / ingest_secs),
    )
}

fn estimation(shards: usize) -> (f64, u64, Option<f64>) {
    let truth = 4000usize;
    let mut rng = Xoshiro256StarStar::seed_from_u64(31);
    let stream = planted_f0_stream(&mut rng, 32, truth, 2 * truth);
    let mut service = SketchService::new(shards);
    let spec = SessionSpec {
        kind: SketchKind::Estimation,
        universe_bits: 32,
        epsilon: 0.5,
        delta: 0.2,
        thresh: 96,
        rows: 7,
        columns: 0,
        seed: 32,
        window: None,
    };
    service.create_session("t", spec).unwrap();
    let start = Instant::now();
    service.ingest("t", &stream).unwrap();
    let ingest_secs = start.elapsed().as_secs_f64();
    let r = ((truth as f64 * 8.0).log2().round()) as u32;
    let estimate = service
        .estimate_with_r("t", r)
        .unwrap()
        .expect("valid r yields an estimate");
    (
        estimate,
        service.space_bits("t").unwrap() as u64,
        Some(stream.len() as f64 / ingest_secs),
    )
}

fn ams_f2(shards: usize) -> (f64, u64, Option<f64>) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(51);
    let (stream, _) = skewed_stream(&mut rng, 24, 1000, 6000, 0.5);
    let mut service = SketchService::new(shards);
    let spec = SessionSpec {
        kind: SketchKind::Ams,
        universe_bits: 24,
        epsilon: 0.8,
        delta: 0.2,
        thresh: 280,
        rows: 7,
        columns: 280,
        seed: 52,
        window: None,
    };
    service.create_session("t", spec).unwrap();
    let start = Instant::now();
    service.ingest("t", &stream).unwrap();
    let ingest_secs = start.elapsed().as_secs_f64();
    (
        service.estimate("t").unwrap(),
        service.space_bits("t").unwrap() as u64,
        Some(stream.len() as f64 / ingest_secs),
    )
}

fn structured_dnf(shards: usize) -> (f64, u64, Option<f64>) {
    use mcf0::formula::generators::random_dnf;
    let mut rng = Xoshiro256StarStar::seed_from_u64(61);
    let sets: Vec<_> = (0..6)
        .map(|_| random_dnf(&mut rng, 16, 5, (3, 6)))
        .collect();
    let mut service = SketchService::new(shards);
    let spec = SessionSpec {
        kind: SketchKind::StructuredMinimum,
        universe_bits: 16,
        epsilon: 0.8,
        delta: 0.2,
        thresh: 60,
        rows: 5,
        columns: 0,
        seed: 62,
        window: None,
    };
    service.create_session("t", spec).unwrap();
    service.ingest_structured("t", &sets).unwrap();
    (
        service.estimate("t").unwrap(),
        service.space_bits("t").unwrap() as u64,
        None,
    )
}

/// Half the minimum stream into each of two same-spec sessions, then a
/// pairwise merge: the merged estimate must equal the single-session value.
fn merge_minimum(shards: usize) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let mut service = SketchService::new(shards);
    service.create_session("a", minimum_spec()).unwrap();
    service.create_session("b", minimum_spec()).unwrap();
    let (left, right): (Vec<_>, Vec<_>) = stream.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    service
        .ingest("a", &left.into_iter().map(|(_, x)| *x).collect::<Vec<_>>())
        .unwrap();
    service
        .ingest("b", &right.into_iter().map(|(_, x)| *x).collect::<Vec<_>>())
        .unwrap();
    service.merge_sessions("a", "b").unwrap();
    (
        service.estimate("a").unwrap(),
        service.space_bits("a").unwrap() as u64,
        None,
    )
}

/// Save → restore into a fresh service → the restored session must carry the
/// exact state (byte-identical re-save enforced here, pinned estimate in the
/// table).
fn restore_minimum(shards: usize) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let mut service = SketchService::new(shards);
    service.create_session("t", minimum_spec()).unwrap();
    service.ingest("t", &stream).unwrap();
    let saved = service.save("t").unwrap();
    let mut fresh = SketchService::new(shards.max(2) - 1);
    fresh.restore(&saved).unwrap();
    assert_eq!(fresh.save("t").unwrap(), saved, "restore → save round trip");
    (
        fresh.estimate("t").unwrap(),
        fresh.space_bits("t").unwrap() as u64,
        None,
    )
}

/// The minimum stream through a crash-safe durable store: every ingest
/// batch is framed, checksummed and group-commit-fsynced to the
/// write-ahead log before it reaches the shards, then the store is closed
/// and recovered from disk — the pinned estimate comes from the *recovered*
/// service. `items_per_sec` here is WAL-inclusive ingest throughput, the
/// number CI's history tracks for the durability tax.
fn durable_minimum(shards: usize) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let dir = std::env::temp_dir().join(format!("mcf0-service-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurableConfig {
        group_commit: 32,
        compact_after_bytes: None,
        ..DurableConfig::default()
    };
    let (mut durable, _) = DurableSketchService::open(&dir, shards, config).unwrap();
    durable
        .apply(&ServiceCommand::Create {
            name: "t".into(),
            spec: minimum_spec(),
        })
        .unwrap();
    let start = Instant::now();
    for batch in stream.chunks(500) {
        durable
            .apply(&ServiceCommand::Ingest {
                name: "t".into(),
                items: batch.to_vec(),
            })
            .unwrap();
    }
    durable.sync().unwrap();
    let ingest_secs = start.elapsed().as_secs_f64();
    drop(durable);

    let (recovered, report) = DurableSketchService::open(&dir, shards, config).unwrap();
    assert!(report.truncated.is_none(), "clean log scanned torn");
    let out = (
        recovered.estimate("t").unwrap(),
        recovered.space_bits("t").unwrap() as u64,
        Some(stream.len() as f64 / ingest_secs),
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The minimum stream split across 6 caller-supplied epochs into a 3-epoch
/// windowed session: `estimate_window` is pinned to `sketch_bench`'s
/// `windowed_minimum_w32_k3` fold at every shard count — epoch-ring
/// rotation composes with sharding as pure routing. `space_bits` here is
/// the whole ring (one sketch per slot).
fn windowed_minimum(shards: usize) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let mut spec = minimum_spec();
    spec.window = Some(3);
    let mut service = SketchService::new(shards);
    service.create_session("t", spec).unwrap();
    let chunk = stream.len().div_ceil(6);
    let start = Instant::now();
    for (e, batch) in stream.chunks(chunk).enumerate() {
        if e > 0 {
            service.advance("t", e as u64).unwrap();
        }
        service.ingest("t", batch).unwrap();
    }
    let ingest_secs = start.elapsed().as_secs_f64();
    (
        service.estimate_window("t").unwrap(),
        service.space_bits("t").unwrap() as u64,
        Some(stream.len() as f64 / ingest_secs),
    )
}

/// Two same-spec sessions over overlapping two-thirds slices of the
/// minimum stream: the inclusion–exclusion intersection and Jaccard
/// estimates are pinned — deterministic functions of the shared draws, at
/// every shard count.
fn set_algebra_minimum(shards: usize, jaccard: bool) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let mut service = SketchService::new(shards);
    service.create_session("a", minimum_spec()).unwrap();
    service.create_session("b", minimum_spec()).unwrap();
    let cut = stream.len() * 2 / 3;
    service.ingest("a", &stream[..cut]).unwrap();
    service.ingest("b", &stream[stream.len() - cut..]).unwrap();
    let estimate = if jaccard {
        service.jaccard_estimate("a", "b").unwrap()
    } else {
        service.intersection_estimate("a", "b").unwrap()
    };
    (estimate, service.space_bits("a").unwrap() as u64, None)
}

/// One request line out, one response line back, over the bench socket.
fn socket_round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    id: u64,
    command: ServiceCommand,
) -> CommandReply {
    let request = Request {
        id,
        token: "tok-bench".into(),
        command,
    };
    writer
        .write_all(encode_line(&request).as_bytes())
        .expect("bench socket write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("bench socket read");
    let response = serde_json::from_str::<Response>(line.trim_end()).expect("bench response line");
    assert_eq!(response.id, Some(id), "response out of order");
    response
        .body
        .unwrap_or_else(|e| panic!("socket request failed: {e}"))
}

/// A loopback bench server with the single `bench` tenant registered.
fn bench_server(shards: usize) -> mcf0::service::ServerHandle {
    let mut directory = TenantDirectory::new();
    directory
        .register("bench", "tok-bench", TenantQuota::unlimited())
        .expect("register bench tenant");
    serve(
        "127.0.0.1:0",
        SketchService::new(shards),
        directory,
        ServerConfig::default(),
    )
    .expect("bind loopback bench server")
}

/// The minimum workload driven end to end through the TCP front-end: a
/// loopback server, one authenticated tenant, every command a
/// newline-delimited JSON request and every reply decoded from the wire.
/// `items_per_sec` is the socket-inclusive ingest throughput (framing +
/// JSON codec + TCP + tenant admission on top of the shard routing), the
/// history column CI tracks for the network tax. The pinned estimate is
/// unchanged — the wire adds routing, never semantics.
fn socket_minimum(shards: usize) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let handle = bench_server(shards);
    let socket = TcpStream::connect(handle.local_addr()).expect("connect bench client");
    socket.set_nodelay(true).expect("bench socket nodelay");
    let mut reader = BufReader::new(socket.try_clone().expect("clone bench socket"));
    let mut writer = socket;
    let mut id = 0u64;
    let mut round_trip = |command| {
        id += 1;
        socket_round_trip(&mut writer, &mut reader, id, command)
    };
    round_trip(ServiceCommand::Create {
        name: "t".into(),
        spec: minimum_spec(),
    });
    let start = Instant::now();
    for batch in stream.chunks(500) {
        round_trip(ServiceCommand::Ingest {
            name: "t".into(),
            items: batch.to_vec(),
        });
    }
    let ingest_secs = start.elapsed().as_secs_f64();
    let estimate = match round_trip(ServiceCommand::Estimate { name: "t".into() }) {
        CommandReply::Estimate(x) => x,
        other => panic!("Estimate replied {other:?}"),
    };
    let space_bits = match round_trip(ServiceCommand::SpaceBits { name: "t".into() }) {
        CommandReply::SpaceBits(n) => n as u64,
        other => panic!("SpaceBits replied {other:?}"),
    };
    handle.shutdown();
    (
        estimate,
        space_bits,
        Some(stream.len() as f64 / ingest_secs),
    )
}

/// The minimum stream split round-robin across `clients` concurrent
/// connections, each *pipelining* its ingest batches (all requests written
/// before any reply is read) into one shared session. `items_per_sec` is
/// the aggregate multi-client ingest throughput. The estimate stays pinned:
/// the sketch is a function of the distinct-item set, not of the
/// interleaving.
fn socket_minimum_concurrent(shards: usize, clients: usize) -> (f64, u64, Option<f64>) {
    let stream = minimum_stream();
    let total_items = stream.len();
    let handle = bench_server(shards);
    let socket = TcpStream::connect(handle.local_addr()).expect("connect bench client");
    socket.set_nodelay(true).expect("bench socket nodelay");
    let mut reader = BufReader::new(socket.try_clone().expect("clone bench socket"));
    let mut writer = socket;
    socket_round_trip(
        &mut writer,
        &mut reader,
        0,
        ServiceCommand::Create {
            name: "t".into(),
            spec: minimum_spec(),
        },
    );
    // Round-robin the batches across the clients, several passes over the
    // stream: re-ingesting the same items is a no-op for the distinct-set
    // sketch (the pinned estimate is untouched) but keeps the wall-clock
    // long enough for the throughput comparison to be stable, and the
    // small batches keep the measurement dominated by wire handling
    // rather than by the lock-serialized apply.
    const PASSES: usize = 6;
    let mut per_client: Vec<Vec<Vec<u64>>> = vec![Vec::new(); clients];
    for pass in 0..PASSES {
        for (i, batch) in stream.chunks(125).enumerate() {
            per_client[(pass + i) % clients].push(batch.to_vec());
        }
    }
    let start = Instant::now();
    let joins: Vec<_> = per_client
        .into_iter()
        .map(|batches| {
            let addr = handle.local_addr();
            std::thread::spawn(move || {
                let socket = TcpStream::connect(addr).expect("connect concurrent client");
                socket.set_nodelay(true).expect("concurrent client nodelay");
                let mut reader = BufReader::new(socket.try_clone().expect("clone client socket"));
                let mut writer = socket;
                // Pipeline: every request on the wire before the first
                // reply is read.
                for (i, items) in batches.iter().enumerate() {
                    let request = Request {
                        id: i as u64,
                        token: "tok-bench".into(),
                        command: ServiceCommand::Ingest {
                            name: "t".into(),
                            items: items.clone(),
                        },
                    };
                    writer
                        .write_all(encode_line(&request).as_bytes())
                        .expect("concurrent client write");
                }
                for i in 0..batches.len() {
                    let mut line = String::new();
                    reader.read_line(&mut line).expect("concurrent client read");
                    let response = serde_json::from_str::<Response>(line.trim_end())
                        .expect("concurrent response line");
                    assert_eq!(response.id, Some(i as u64), "reply out of order");
                    response
                        .body
                        .unwrap_or_else(|e| panic!("concurrent ingest failed: {e}"));
                }
            })
        })
        .collect();
    for join in joins {
        join.join().expect("concurrent client panicked");
    }
    let ingest_secs = start.elapsed().as_secs_f64();
    let estimate = match socket_round_trip(
        &mut writer,
        &mut reader,
        1,
        ServiceCommand::Estimate { name: "t".into() },
    ) {
        CommandReply::Estimate(x) => x,
        other => panic!("Estimate replied {other:?}"),
    };
    let space_bits = match socket_round_trip(
        &mut writer,
        &mut reader,
        2,
        ServiceCommand::SpaceBits { name: "t".into() },
    ) {
        CommandReply::SpaceBits(n) => n as u64,
        other => panic!("SpaceBits replied {other:?}"),
    };
    handle.shutdown();
    (
        estimate,
        space_bits,
        Some((total_items * PASSES) as f64 / ingest_secs),
    )
}

/// CPU seconds this process has consumed (user + system), from
/// `/proc/self/stat`. `None` off Linux or if the file is unreadable.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14/15 (utime/stime) counted after the parenthesised comm,
    // which may itself contain spaces.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    let ticks_per_sec = 100.0; // USER_HZ on every supported target
    Some((utime + stime) / ticks_per_sec)
}

/// The idle-CPU sanity gate: 128 open-but-silent connections must cost
/// (near) zero CPU — the loop sits blocked in the kernel. Returns an error
/// string on regression, `None` when the platform cannot measure
/// (non-Linux).
fn idle_cpu_gate() -> Option<String> {
    let handle = bench_server(1);
    let mut conns = Vec::new();
    for _ in 0..128 {
        conns.push(TcpStream::connect(handle.local_addr()).expect("connect idle client"));
    }
    // Let accept/registration settle before the measurement window.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = process_cpu_seconds();
    std::thread::sleep(std::time::Duration::from_millis(500));
    let after = process_cpu_seconds();
    drop(conns);
    handle.shutdown();
    let (before, after) = (before?, after?);
    let spent = after - before;
    // The whole process (shard helpers, net workers, loop) should be
    // parked; 100ms of CPU over a 500ms idle window is already an order
    // of magnitude above healthy and far below a busy-wait.
    if spent > 0.1 {
        Some(format!(
            "idle-CPU regression: 128 idle connections burned {spent:.3}s CPU \
             in a 0.5s window (expected ~0)"
        ))
    } else {
        println!("idle-CPU gate: 128 idle connections cost {spent:.3}s CPU in 0.5s");
        None
    }
}

fn run_instances() -> Vec<InstanceResult> {
    let mut out = Vec::new();
    let mut record = |name: &str, body: &dyn Fn() -> (f64, u64, Option<f64>)| {
        let start = Instant::now();
        let (estimate, space_bits, items_per_sec) = body();
        out.push(InstanceResult {
            name: name.to_string(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            estimate,
            space_bits,
            items_per_sec,
        });
    };

    record("service_minimum_w32_s1", &|| minimum(1));
    record("service_minimum_w32_s4", &|| minimum(4));
    record("service_bucketing_w32_s4", &|| bucketing(4));
    record("service_estimation_w32_s4", &|| estimation(4));
    record("service_ams_f2_w24_s4", &|| ams_f2(4));
    record("service_structured_dnf_w16_s4", &|| structured_dnf(4));
    record("service_merge_minimum_w32_s4", &|| merge_minimum(4));
    record("service_windowed_minimum_w32_k3_s1", &|| {
        windowed_minimum(1)
    });
    record("service_windowed_minimum_w32_k3_s4", &|| {
        windowed_minimum(4)
    });
    record("service_intersection_minimum_w32_s4", &|| {
        set_algebra_minimum(4, false)
    });
    record("service_jaccard_minimum_w32_s4", &|| {
        set_algebra_minimum(4, true)
    });
    record("service_restore_minimum_w32_s4", &|| restore_minimum(4));
    record("service_durable_minimum_w32_s2", &|| durable_minimum(2));
    record("service_socket_minimum_w32_s2", &|| socket_minimum(2));
    record("service_socket_minimum_w32_s2_c1", &|| {
        socket_minimum_concurrent(2, 1)
    });
    record("service_socket_minimum_w32_s2_c8", &|| {
        socket_minimum_concurrent(2, 8)
    });
    record("service_socket_minimum_w32_s2_c32", &|| {
        socket_minimum_concurrent(2, 32)
    });
    out
}

/// Paper-scale self-differential pass: the 4-shard service against the
/// unsharded reference interpreter on a wide-universe, paper-Thresh
/// workload, snapshot documents compared byte for byte. No baked-in
/// constants — the gate is the bit-identity contract itself.
fn run_heavy() -> Result<Vec<InstanceResult>, String> {
    let mut out = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(2026);
    let stream = planted_f0_stream(&mut rng, 48, 100_000, 200_000);
    for kind in [
        SketchKind::Minimum,
        SketchKind::Bucketing,
        SketchKind::Estimation,
        SketchKind::Ams,
    ] {
        let spec = SessionSpec {
            kind,
            universe_bits: 48,
            epsilon: 0.8,
            delta: 0.2,
            thresh: 150,
            rows: 9,
            columns: if kind == SketchKind::Ams { 150 } else { 0 },
            seed: 4242,
            window: None,
        };
        let name = format!("service_heavy_{}_w48_s4", spec.kind.name());
        let start = Instant::now();

        let mut reference = ReferenceService::new();
        reference
            .apply(&ServiceCommand::Create {
                name: "big".into(),
                spec,
            })
            .unwrap();
        let mut service = SketchService::new(4);
        service.create_session("big", spec).unwrap();
        let ingest_start = Instant::now();
        for batch in stream.chunks(20_000) {
            service.ingest("big", batch).unwrap();
        }
        let ingest_secs = ingest_start.elapsed().as_secs_f64();
        for batch in stream.chunks(20_000) {
            reference
                .apply(&ServiceCommand::Ingest {
                    name: "big".into(),
                    items: batch.to_vec(),
                })
                .unwrap();
        }

        let expected = match reference
            .apply(&ServiceCommand::Save { name: "big".into() })
            .unwrap()
        {
            CommandReply::Snapshot(doc) => doc,
            other => panic!("Save replied {other:?}"),
        };
        let got = service.save("big").unwrap();
        if expected != got {
            return Err(format!(
                "{name}: sharded snapshot diverged from the direct engine"
            ));
        }
        out.push(InstanceResult {
            name,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            estimate: service.estimate("big").unwrap(),
            space_bits: service.space_bits("big").unwrap() as u64,
            items_per_sec: Some(stream.len() as f64 / ingest_secs),
        });
    }
    Ok(out)
}

#[derive(Serialize)]
struct ServiceSection {
    generated_by: String,
    profile: String,
    instances: Vec<InstanceResult>,
}

#[derive(Serialize)]
struct Fragment {
    service: ServiceSection,
}

fn print_table(results: &[InstanceResult]) {
    println!("| workload | wall (ms) | estimate | space bits | items/s |");
    println!("|---|---|---|---|---|");
    for r in results {
        println!(
            "| {} | {:.2} | {} | {} | {} |",
            r.name,
            r.wall_ms,
            r.estimate,
            r.space_bits,
            r.items_per_sec
                .map_or("–".to_string(), |v| format!("{v:.0}"))
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write = args.iter().any(|a| a == "--write");
    let heavy = args.iter().any(|a| a == "--heavy");

    let mut results = run_instances();
    let mut heavy_failure = None;
    if heavy {
        match run_heavy() {
            Ok(rows) => results.extend(rows),
            Err(why) => heavy_failure = Some(why),
        }
    }
    print_table(&results);

    if write {
        let fragment = Fragment {
            service: ServiceSection {
                generated_by: "cargo run --release -p mcf0-bench --bin service_bench -- --write"
                    .into(),
                profile: "release".into(),
                instances: results.clone(),
            },
        };
        let json = serde_json::to_string(&fragment).expect("serialization is infallible");
        merge_bench_json("BENCH_streaming.json", &json).expect("write BENCH_streaming.json");
        println!("merged service section into BENCH_streaming.json");
    }

    if check {
        let mut drift = false;
        if let Some(why) = heavy_failure {
            eprintln!("{why}");
            drift = true;
        }
        for &(name, estimate, space_bits) in PINNED {
            let got = results
                .iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("pinned workload {name} missing"));
            if got.estimate != estimate || got.space_bits != space_bits {
                eprintln!(
                    "output drift on {name}: expected ({estimate}, {space_bits}), got ({}, {})",
                    got.estimate, got.space_bits
                );
                drift = true;
            }
        }
        // Storage-trait indirection guard: the durable row's WAL-inclusive
        // ingest throughput must stay within an order of magnitude of the
        // direct in-memory path. Locally the ratio sits near 0.5; the 0.1
        // floor is generous for CI noise but trips if the storage
        // abstraction or retry plumbing ever adds per-operation cost to
        // the fault-free hot path.
        let throughput = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .and_then(|r| r.items_per_sec)
                .unwrap_or_else(|| panic!("workload {name} missing a throughput column"))
        };
        let direct = throughput("service_minimum_w32_s1");
        let durable = throughput("service_durable_minimum_w32_s2");
        if durable < direct * 0.1 {
            eprintln!(
                "durability tax regression: durable ingest at {durable:.0} items/s is below \
                 10% of the direct path's {direct:.0} items/s"
            );
            drift = true;
        }
        if let Some(why) = idle_cpu_gate() {
            eprintln!("{why}");
            drift = true;
        }
        if drift {
            eprintln!("service layer altered pinned sketch outputs; routing must stay pure");
            std::process::exit(1);
        }
        println!("service outputs match the direct-engine pinned baseline");
        println!(
            "durability tax within bounds: {durable:.0} items/s durable vs {direct:.0} items/s direct"
        );
    } else if let Some(why) = heavy_failure {
        eprintln!("{why}");
        std::process::exit(1);
    }
}
