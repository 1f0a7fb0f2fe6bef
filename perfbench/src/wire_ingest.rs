//! `wire_ingest`: the default server over loopback, two connections, each a
//! closed loop with 16 requests in flight sending 128-item `Ingest` lines
//! into its own Minimum session. Small batches: JSON decode, the event
//! loop, admission and the core lock do most of the work, the sketch little.
//!
//! A round sends each connection's pre-encoded pool once into a fresh
//! session; both connections start a round together. The end state of
//! every round is compared with one `ReferenceService` replay.

use crate::gen::{dedup_ratio, planted_stream, Rng};
use crate::harness::{
    end_to_end, measure_in_slices, timed, within, BlockClock, Checks, Outcome, Plan, Samples, ROWS,
};
use crate::layers::{
    decode_pool, proto_rungs, service_apply, session_spec, sketch_process, tenant_admit,
    toeplitz_eval, Layers, Ledger,
};
use crate::spans::{Recorder, ROOT};
use crate::wire::{
    is_done_ack, reply_seq, request_line, start_server, Client, CONNECTIONS, SHARDS, TENANT, TOKEN,
};
use mcf0::service::net::proto::encode_line;
use mcf0::service::{
    CommandReply, ReferenceService, Response, ServerHandle, ServiceCommand, SessionSpec,
    SketchKind, TenantDirectory,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Items per `Ingest` line.
const BATCH: usize = 128;
/// Lines of one connection's pool, sent once per round.
const POOL_LINES: usize = 2048;
/// Requests in flight per connection.
const WINDOW: usize = 16;
const TAIL_Q: f64 = 0.99;

/// Request ids of the lines that are not pool lines.
const CREATE_ID: u64 = 1_000_000;
const ESTIMATE_ID: u64 = 1_000_001;
const SAVE_ID: u64 = 1_000_002;
const DROP_ID: u64 = 1_000_003;

/// One connection's inputs: its session, its planted stream, and every
/// request line it will ever send, encoded.
struct Lane {
    session: String,
    spec: SessionSpec,
    stream: Vec<u64>,
    planted: usize,
    pool: Vec<Vec<u8>>,
    create: Vec<u8>,
    estimate: Vec<u8>,
    save: Vec<u8>,
    drop: Vec<u8>,
}

impl Lane {
    fn new(seed: u64, conn: usize) -> Self {
        let items = POOL_LINES * BATCH;
        let planted = items / 2;
        let stream = planted_stream(&mut Rng::lane(seed, 10 + conn as u64), planted, items);
        let session = format!("c{conn}");
        let spec = session_spec(
            SketchKind::Minimum,
            seed.wrapping_mul(4).wrapping_add(conn as u64),
        );
        let name = || session.clone();
        let pool = stream
            .chunks(BATCH)
            .enumerate()
            .map(|(i, batch)| request_line(i as u64, &ingest(&session, batch)))
            .collect();
        Lane {
            create: request_line(CREATE_ID, &ServiceCommand::Create { name: name(), spec }),
            estimate: request_line(ESTIMATE_ID, &ServiceCommand::Estimate { name: name() }),
            save: request_line(SAVE_ID, &ServiceCommand::Save { name: name() }),
            drop: request_line(DROP_ID, &ServiceCommand::Drop { name: name() }),
            session,
            spec,
            stream,
            planted,
            pool,
        }
    }
}

fn ingest(session: &str, batch: &[u64]) -> ServiceCommand {
    ServiceCommand::Ingest {
        name: session.to_string(),
        items: batch.to_vec(),
    }
}

struct Setup {
    lanes: Vec<Lane>,
    server: ServerHandle,
    clients: Vec<Client>,
}

fn build(plan: &Plan) -> Setup {
    let lanes: Vec<Lane> = (0..CONNECTIONS).map(|c| Lane::new(plan.seed, c)).collect();
    let server = start_server();
    let clients = lanes
        .iter()
        .map(|lane| {
            let mut client = Client::connect(server.local_addr()).expect("loopback connects");
            let reply = client.round_trip(&lane.create).expect("the server answers");
            assert!(
                is_done_ack(&reply, CREATE_ID),
                "session creation is acknowledged"
            );
            client
        })
        .collect();
    Setup {
        lanes,
        server,
        clients,
    }
}

/// What the reference interpreter says a connection's session ends a round
/// as.
struct Expected {
    estimate: f64,
    document: String,
}

fn reference(lane: &Lane) -> Expected {
    let mut reference = ReferenceService::new();
    let scoped = |command: ServiceCommand| TenantDirectory::scope_command(TENANT, &command);
    let name = || lane.session.clone();
    let mut run = |command: ServiceCommand| {
        reference
            .apply(&scoped(command))
            .expect("the reference interpreter takes the workload")
    };
    run(ServiceCommand::Create {
        name: name(),
        spec: lane.spec,
    });
    for batch in lane.stream.chunks(BATCH) {
        run(ingest(&lane.session, batch));
    }
    let CommandReply::Estimate(estimate) = run(ServiceCommand::Estimate { name: name() }) else {
        unreachable!("Estimate answers with an estimate");
    };
    let CommandReply::Snapshot(document) = run(ServiceCommand::Save { name: name() }) else {
        unreachable!("Save answers with a snapshot");
    };
    Expected { estimate, document }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    /// Per round, `(sent, acknowledged)` of every pool request, ns on the
    /// run's clock.
    rounds: Vec<Vec<(u64, u64)>>,
    checks: Checks,
}

/// Sends the pool once, `WINDOW` requests in flight, checking every ack.
fn send_pool(
    client: &mut Client,
    lane: &Lane,
    origin: Instant,
    calls: &mut Vec<(u64, u64)>,
) -> std::io::Result<u64> {
    let now = || origin.elapsed().as_nanos() as u64;
    let (mut sent, mut acked, mut bad) = (0usize, 0usize, 0u64);
    let mut reply = Vec::with_capacity(64);
    while acked < lane.pool.len() {
        while sent < lane.pool.len() && sent - acked < WINDOW {
            calls.push((now(), 0));
            client.send(&lane.pool[sent])?;
            sent += 1;
        }
        client.recv(&mut reply)?;
        calls[acked].1 = now();
        bad += u64::from(!is_done_ack(&reply, acked as u64));
        acked += 1;
    }
    Ok(bad)
}

/// After a round, untimed: `Estimate` and `Save` against the reference,
/// then a fresh session.
fn check_and_reset(
    client: &mut Client,
    lane: &Lane,
    expected: &Expected,
    checks: &mut Checks,
) -> std::io::Result<()> {
    // The bytes the reference predicts, at whatever `seq` the server
    // assigned.
    let scoped_name = TenantDirectory::scoped_name(TENANT, &lane.session);
    let estimate_reply = client.round_trip(&lane.estimate)?;
    let save_reply = client.round_trip(&lane.save)?;
    let want_estimate = encode_line(&Response {
        id: Some(ESTIMATE_ID),
        seq: reply_seq(&estimate_reply),
        body: Ok(CommandReply::Estimate(expected.estimate)),
    });
    let want_save = encode_line(&Response {
        id: Some(SAVE_ID),
        seq: reply_seq(&save_reply),
        body: Ok(CommandReply::Snapshot(expected.document.clone())),
    });
    checks.check(estimate_reply == want_estimate.as_bytes(), || {
        format!("{scoped_name}: Estimate reply differs from the reference")
    });
    checks.check(save_reply == want_save.as_bytes(), || {
        format!("{scoped_name}: Save reply differs from the reference")
    });
    checks.check(
        within(expected.estimate, lane.planted as f64, lane.spec.epsilon),
        || format!("{scoped_name}: estimate outside (1 ± ε) of the planted F0"),
    );
    let dropped = client.round_trip(&lane.drop)?;
    let created = client.round_trip(&lane.create)?;
    checks.check(is_done_ack(&dropped, DROP_ID), || {
        format!("{scoped_name}: Drop was not acknowledged")
    });
    checks.check(is_done_ack(&created, CREATE_ID), || {
        format!("{scoped_name}: Create was not acknowledged")
    });
    Ok(())
}

/// Rounds until `budget` is spent. Both connections start a round
/// together and meet again when both pools are acknowledged; the block is
/// what lies between, timed by this thread. Returns the samples and the
/// clients' logs.
fn measure(
    setup: &mut Setup,
    expected: &[Expected],
    budget: Duration,
    origin: Instant,
    checks: &mut Checks,
) -> (Samples, Vec<ClientLog>) {
    let barrier = Barrier::new(CONNECTIONS + 1);
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + budget;
    let mut samples = Samples::default();
    let Setup { lanes, clients, .. } = setup;
    let mut logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lanes.iter())
            .zip(expected)
            .map(|((client, lane), expected)| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut broken = false;
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return log;
                        }
                        let mut calls = Vec::with_capacity(lane.pool.len());
                        let pool = lane.pool.len() as u64;
                        if !broken {
                            match send_pool(client, lane, origin, &mut calls) {
                                Ok(bad) => {
                                    log.checks.tally(pool, bad, "Ingest was not acknowledged")
                                }
                                Err(e) => {
                                    broken = true;
                                    log.checks.tally(
                                        pool,
                                        pool,
                                        &format!("connection failed: {e}"),
                                    );
                                }
                            }
                        }
                        log.rounds.push(calls);
                        barrier.wait();
                        // Untimed: the round's end state, then a fresh session.
                        if !broken {
                            if let Err(e) = check_and_reset(client, lane, expected, &mut log.checks)
                            {
                                broken = true;
                                log.checks.tally(1, 1, &format!("connection failed: {e}"));
                            }
                        }
                    }
                })
            })
            .collect();
        loop {
            let over = Instant::now() >= deadline;
            stop.store(over, Ordering::SeqCst);
            barrier.wait();
            if over {
                break;
            }
            let clock = BlockClock::start();
            barrier.wait();
            let ops = (CONNECTIONS * POOL_LINES * BATCH) as u64;
            samples.blocks.push(clock.finish(ops, Vec::new()));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread does not panic"))
            .collect()
    });

    for (r, block) in samples.blocks.iter_mut().enumerate() {
        for log in &logs {
            block.call_ms.extend(
                log.rounds[r]
                    .iter()
                    .filter(|(_, acked)| *acked > 0)
                    .map(|(sent, acked)| (acked - sent) as f64 / 1e6),
            );
        }
    }
    for log in &mut logs {
        checks.absorb(std::mem::take(&mut log.checks));
    }
    (samples, logs)
}

pub fn run(plan: &Plan) -> Outcome {
    let mut checks = Checks::default();
    let (mut setup, first_setup_s) = timed(|| build(plan));
    let expected: Vec<Expected> = setup.lanes.iter().map(reference).collect();
    let outcome = if plan.trace {
        trace(plan, &mut setup, &expected, checks)
    } else {
        let origin = Instant::now();
        let mut setup_s = vec![first_setup_s];
        let mut samples = Samples::default();
        measure_in_slices(
            plan,
            &mut setup_s,
            || build(plan),
            retire,
            |budget| samples.absorb(measure(&mut setup, &expected, budget, origin, &mut checks).0),
        );
        Outcome {
            checks,
            metrics: end_to_end(&setup_s, &samples, TAIL_Q),
            guards: Vec::new(),
            remarks: Vec::new(),
        }
    };
    retire(setup);
    outcome
}

fn retire(setup: Setup) {
    drop(setup.clients);
    setup.server.shutdown();
}

fn trace(plan: &Plan, setup: &mut Setup, expected: &[Expected], mut checks: Checks) -> Outcome {
    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    let origin = rec.origin();
    // One round first: the plain and the traced phase then both run warm.
    measure(setup, expected, plan.share(0.01), origin, &mut checks);
    let (plain, _) = measure(setup, expected, plan.share(0.15), origin, &mut checks);
    let (traced, logs) = measure(setup, expected, plan.share(0.15), origin, &mut checks);
    for (conn, log) in logs.iter().enumerate() {
        for (i, (sent, acked)) in log.rounds.iter().flatten().enumerate() {
            let request = (conn * POOL_LINES + i % POOL_LINES) as u64;
            rec.push("e2e.call", *sent, (*acked).max(*sent), ROOT, request);
        }
    }
    // The clients stamp every request in both phases, so this is the
    // difference between two like phases: the noise floor of the ledger.
    layers.set(
        "gen.trace_overhead_frac",
        plain.ops_per_s() / traced.ops_per_s() - 1.0,
    );

    // Connection 0's exact inputs through each layer on its own.
    let lane = &setup.lanes[0];
    let each = plan.share(0.6 / 6.0);
    let lines: Vec<&[u8]> = lane.pool.iter().map(Vec::as_slice).collect();
    let requests = decode_pool(&lines);
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    let bytes_per_item = bytes as f64 / lane.stream.len() as f64;
    let proto = proto_rungs(&mut rec, each, &lines);
    let admit = tenant_admit(&mut rec, each, TENANT, TOKEN, &requests);
    let creates = [ServiceCommand::Create {
        name: lane.session.clone(),
        spec: lane.spec,
    }];
    let commands: Vec<ServiceCommand> = requests.iter().map(|r| r.command.clone()).collect();
    let s1 = service_apply(&mut rec, each, 1, &creates, &commands);
    let s2 = service_apply(&mut rec, each, SHARDS, &creates, &commands);
    let batches: Vec<&[u64]> = lane.stream.chunks(BATCH).collect();
    let min = sketch_process(
        &mut rec,
        each,
        SketchKind::Minimum,
        &batches,
        lane.spec.seed,
    );
    let eval = toeplitz_eval(&mut rec, each, &lane.stream, lane.spec.seed);
    let dedup = dedup_ratio(batches.iter().copied());

    let per_item = |per_request: f64| per_request / BATCH as f64;
    let proto_cpu = (proto.decode_per_byte.cpu_ns + proto.linereader_per_byte.cpu_ns)
        * bytes_per_item
        + per_item(proto.encode_per_reply.cpu_ns + admit.cpu_ns);
    let hashing_cpu = eval.cpu_ns * ROWS as f64 * dedup;
    let ledger = Ledger {
        e2e_wall_ns: traced.wall_ns_per_op(),
        e2e_cpu_ns: traced.cpu_us_per_op() * 1e3,
        groups: vec![
            ("ledger.share_sketch", min.cpu_ns),
            ("ledger.share_service", s2.cpu_ns - min.cpu_ns),
            ("ledger.share_proto_tenant", proto_cpu),
        ],
        hashing_in_sketch_ns: hashing_cpu,
    };
    ledger.write(&mut layers);
    layers.set("hashing.toeplitz_eval_ns", eval.wall_ns);
    layers.set("streaming.minimum_process_ns", min.wall_ns);
    layers.set("streaming.dedup_ratio", dedup);
    layers.set("service.apply_s1_ns", s1.wall_ns);
    layers.set("service.apply_s2_ns", s2.wall_ns);
    layers.set("service.route_tax_ns", s2.wall_ns - min.wall_ns);
    layers.set("proto.decode_ns_per_byte", proto.decode_per_byte.wall_ns);
    layers.set("proto.encode_ns_per_reply", proto.encode_per_reply.wall_ns);
    layers.set(
        "proto.linereader_ns_per_byte",
        proto.linereader_per_byte.wall_ns,
    );
    layers.set("proto.bytes_per_item", bytes_per_item);
    layers.set("tenant.admit_ns", admit.wall_ns);
    layers.set("server.residual_ns", ledger.residual_ns());
    layers.set("server.ack_p50_ms", traced.call_ms(0.5));
    layers.set("server.ack_p99_ms", traced.call_ms(0.99));

    let guards = crate::finish_trace(plan, &rec, &layers);
    Outcome {
        checks,
        metrics: layers.into_metrics(),
        guards,
        remarks: Vec::new(),
    }
}
