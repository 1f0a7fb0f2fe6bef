//! `wire_mixed`: the same server under an open loop at a fixed 1000
//! requests/s (500 per connection): 90 % 256-item `Ingest`, 10 % reads
//! cycling `Estimate` / `EstimateWindow` / `JaccardEstimate` / `SpaceBits`,
//! an `Advance` every 500 requests of a connection. Latency is timed from
//! the moment a request was due, so a stall is charged to every request it
//! delays.
//!
//! Each connection owns its sessions (a plain pair and a K = 4 windowed
//! one), so per-session command order is the connection's FIFO and every
//! reply, reads included, is byte-compared with a `ReferenceService`
//! replay.

use crate::gen::{planted_stream, Rng};
use crate::harness::{
    end_to_end, measure_in_slices, timed, within, Block, Checks, Outcome, Plan, Samples,
};
use crate::layers::{
    command_items, decode_pool, proto_rungs, rung, service_apply, session_spec, tenant_admit, Cost,
    Layers, Ledger,
};
use crate::spans::{Recorder, ROOT};
use crate::stats::quantile;
use crate::wire::{
    expected_reply, is_done_ack, recv_line, reply_seq, request_line, start_server, Client,
    CONNECTIONS, SHARDS, TENANT, TOKEN,
};
use mcf0::service::{
    CommandReply, ReferenceService, Response, ServerHandle, ServiceCommand, SessionSpec,
    SketchKind, SketchService, TenantDirectory,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items per `Ingest` line.
const BATCH: usize = 256;
/// Requests per second per connection, and the gap between them.
const RATE: f64 = 500.0;
const PERIOD_NS: u64 = 2_000_000;
/// Distinct `Ingest` lines of one connection (cycled).
const POOL_LINES: usize = 450;
/// Every tenth request is a read, every 500th an `Advance` instead.
const READ_EVERY: usize = 10;
const ADVANCE_EVERY: usize = 500;
/// `Advance` lines encoded ahead: enough for 64 s per connection.
const EPOCHS: usize = 64;
const WINDOW_EPOCHS: usize = 4;
/// A block is a quarter second of the schedule. Shorter than the box's
/// quiet stretches, so a run has many blocks that lie wholly inside one;
/// with one-second blocks the quiet blocks' value moved by a quarter between
/// runs, with these by a twentieth. A block's p99 is then the third largest
/// of its 250 latencies (a run's 18 000 leave 180 beyond).
const TAIL_Q: f64 = 0.99;
const BLOCK_NS: u64 = 250_000_000;
/// A request counts as late when the next one was already due.
const LATE_MS: f64 = PERIOD_NS as f64 / 1e6;
/// Beyond these the generator, not the server, set the numbers.
const MAX_LATE_FRAC: f64 = 0.10;
const MIN_ACHIEVED_RATE: f64 = 0.98;

const SESSIONS: [&str; 3] = ["a", "b", "w"];
const READS: usize = 4;

/// One connection's inputs and its running state.
struct Lane {
    specs: [SessionSpec; 3],
    /// Every request the connection can send: `POOL_LINES` writes, then the
    /// four reads, then the `Advance` lines. A request's id is its index.
    commands: Vec<ServiceCommand>,
    lines: Vec<Vec<u8>>,
    /// Requests sent so far (the schedule continues across phases).
    cursor: usize,
    /// The interpreter that has seen exactly what the server has.
    reference: ReferenceService,
    /// Distinct items sent to the plain sessions `a` and `b` so far.
    distinct: [HashSet<u64>; 2],
}

impl Lane {
    fn new(seed: u64, conn: usize) -> Self {
        let name = |s: &str| format!("{s}{conn}");
        let plain = session_spec(
            SketchKind::Minimum,
            seed.wrapping_mul(8).wrapping_add(conn as u64),
        );
        // `a` and `b` share their draw (Jaccard needs equal specs).
        let specs = [plain, plain, plain.with_window(WINDOW_EPOCHS)];
        let items = POOL_LINES * BATCH;
        let stream = planted_stream(&mut Rng::lane(seed, 20 + conn as u64), items / 2, items);
        let mut commands: Vec<ServiceCommand> = stream
            .chunks(BATCH)
            .enumerate()
            .map(|(k, batch)| ServiceCommand::Ingest {
                name: name(SESSIONS[k % 3]),
                items: batch.to_vec(),
            })
            .collect();
        commands.extend([
            ServiceCommand::Estimate { name: name("a") },
            ServiceCommand::EstimateWindow { name: name("w") },
            ServiceCommand::JaccardEstimate {
                a: name("a"),
                b: name("b"),
            },
            ServiceCommand::SpaceBits { name: name("w") },
        ]);
        commands.extend((1..=EPOCHS as u64).map(|epoch| ServiceCommand::Advance {
            name: name("w"),
            epoch,
        }));
        let lines = commands
            .iter()
            .enumerate()
            .map(|(id, command)| request_line(id as u64, command))
            .collect();
        Lane {
            specs,
            commands,
            lines,
            cursor: 0,
            reference: ReferenceService::new(),
            distinct: [HashSet::new(), HashSet::new()],
        }
    }

    fn creates(&self, conn: usize) -> Vec<ServiceCommand> {
        SESSIONS
            .iter()
            .zip(&self.specs)
            .map(|(s, spec)| ServiceCommand::Create {
                name: format!("{s}{conn}"),
                spec: *spec,
            })
            .collect()
    }
}

/// The line a connection's `i`-th request sends.
fn slot(i: usize) -> usize {
    if i % ADVANCE_EVERY == ADVANCE_EVERY - 1 {
        POOL_LINES + READS + (i / ADVANCE_EVERY) % EPOCHS
    } else if i % READ_EVERY == READ_EVERY - 1 {
        POOL_LINES + (i / READ_EVERY) % READS
    } else {
        // Writes so far: every index below `i` that is not a tenth one.
        (i - i / READ_EVERY) % POOL_LINES
    }
}

fn is_read(line: usize) -> bool {
    (POOL_LINES..POOL_LINES + READS).contains(&line)
}

struct Setup {
    lanes: Vec<Lane>,
    server: ServerHandle,
    clients: Vec<Client>,
}

/// Ids of the set-up's own requests, above every schedule id.
const CONTROL_ID: u64 = 1_000_000;

fn build(plan: &Plan) -> Setup {
    let mut lanes: Vec<Lane> = (0..CONNECTIONS).map(|c| Lane::new(plan.seed, c)).collect();
    let server = start_server();
    let clients = lanes
        .iter_mut()
        .enumerate()
        .map(|(conn, lane)| {
            let mut client = Client::connect(server.local_addr()).expect("loopback connects");
            for create in lane.creates(conn) {
                let reply = client
                    .round_trip(&request_line(CONTROL_ID, &create))
                    .expect("the server answers");
                assert!(
                    is_done_ack(&reply, CONTROL_ID),
                    "session creation is acknowledged"
                );
                lane.reference
                    .apply(&TenantDirectory::scope_command(TENANT, &create))
                    .expect("the reference interpreter creates the session");
            }
            client
        })
        .collect();
    Setup {
        lanes,
        server,
        clients,
    }
}

/// What one connection's sender and receiver bring back from a phase.
struct LaneLog {
    first: usize,
    /// Per request: when it was due and when it was written, ns.
    due: Vec<u64>,
    sent: Vec<u64>,
    /// Per reply received, in order: arrival time and the reply's bytes.
    received: Vec<u64>,
    replies: Vec<u8>,
    ends: Vec<usize>,
    error: Option<String>,
}

/// The generator's own record: how late it ran.
#[derive(Default)]
struct Pacing {
    /// Per request written: how long after it was due, ms.
    lag_ms: Vec<f64>,
    /// Per connection and phase: requests written per second over the
    /// nominal rate.
    rates: Vec<f64>,
}

impl Pacing {
    /// The share of requests written after the next one was due.
    fn late_frac(&self) -> f64 {
        let late = self.lag_ms.iter().filter(|lag| **lag > LATE_MS).count();
        late as f64 / self.lag_ms.len().max(1) as f64
    }

    fn lag_p99_ms(&self) -> f64 {
        quantile(&self.lag_ms, 0.99)
    }

    /// The slowest connection's rate, as a share of the nominal one.
    fn achieved_rate(&self) -> f64 {
        self.rates.iter().copied().fold(1.0, f64::min)
    }

    /// A run's slices are judged together: a three-second slice that fell in
    /// one of the box's slow stretches says nothing about a backlog.
    fn absorb(&mut self, other: Pacing) {
        self.lag_ms.extend(other.lag_ms);
        self.rates.extend(other.rates);
    }
}

/// One `SCHED_IDLE` spinner per core for the length of an open-loop phase.
///
/// At 1000 requests/s the cores sit idle some 40 % of the time, and on this
/// box what a request then costs is set by how deeply the host let an idle
/// vCPU sleep: the same binary gave a median ack of 0.43 ms or 0.66 ms, and
/// 480 or 640 CPU-us a request, for whole runs at a time, depending on what
/// the host's other guests were doing. A thread that runs only when nothing
/// else wants the core keeps the vCPUs awake without taking time from the
/// server (any thread that wakes preempts it at once), which is what fixing
/// the idle states does on hardware one controls. The spinners' own CPU time
/// is kept out of the phase's CPU figures.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    /// CPU nanoseconds each spinner has used so far, published by itself.
    used_ns: Vec<Arc<AtomicU64>>,
    /// Whether its spinner got the idle policy (one that did not, left).
    threads: Vec<std::thread::JoinHandle<bool>>,
}

impl KeepAwake {
    fn start() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let used_ns: Vec<_> = (0..cores).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let threads = used_ns
            .iter()
            .map(|used| {
                let (stop, used) = (Arc::clone(&stop), Arc::clone(used));
                std::thread::spawn(move || {
                    // At ordinary priority a spinner would take a core from
                    // the server: without the idle policy it does not spin.
                    if !crate::sys::run_only_when_idle() {
                        return false;
                    }
                    // Relaxed: the flag and the counter publish nothing else.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..2_000 {
                            std::hint::spin_loop();
                        }
                        let ns = crate::sys::thread_cpu_seconds() * 1e9;
                        used.store(ns as u64, Ordering::Relaxed);
                    }
                    true
                })
            })
            .collect();
        KeepAwake {
            stop,
            used_ns,
            threads,
        }
    }

    /// Process CPU seconds so far, the spinners' share taken out.
    fn cpu_seconds(&self) -> f64 {
        let spun: u64 = self
            .used_ns
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed))
            .sum();
        crate::sys::cpu_seconds() - spun as f64 / 1e9
    }

    /// Ends the spinners; whether every core had one for the whole phase.
    fn stop(self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        // Every spinner is joined before any answer is looked at.
        let spun: Vec<bool> = self
            .threads
            .into_iter()
            .map(|thread| thread.join().expect("a spinner does not panic"))
            .collect();
        spun.iter().all(|spun| *spun)
    }
}

struct Phase {
    /// One block per quarter second of the schedule, every request's latency.
    samples: Samples,
    /// The same blocks with only the writes' latencies, and only the reads'.
    acks: Samples,
    queries: Samples,
    pacing: Pacing,
    /// Whether the cores were kept awake (see `KeepAwake`).
    kept_awake: bool,
    /// `(due, received, connection, id)` per answered request.
    spans: Vec<(u64, u64, usize, u64)>,
}

/// Sends `budget`'s worth of the schedule on both connections and checks
/// every reply against the reference.
fn measure(setup: &mut Setup, budget: Duration, origin: Instant, checks: &mut Checks) -> Phase {
    let count = (budget.as_secs_f64() * RATE).round().max(1.0) as usize;
    let Setup { lanes, clients, .. } = setup;
    // Both schedules count from one start; the second connection is half a
    // period behind so the two never fall due together.
    let start = origin.elapsed().as_nanos() as u64 + 5_000_000;
    let whole_blocks = count as u64 * PERIOD_NS / BLOCK_NS;
    let mut cpu_marks = Vec::new();
    let awake = KeepAwake::start();
    let logs: Vec<LaneLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lanes.iter())
            .enumerate()
            .map(|(conn, (Client { writer, reader }, lane))| {
                let first = lane.cursor;
                let offset = start + conn as u64 * PERIOD_NS / CONNECTIONS as u64;
                let due: Vec<u64> = (0..count as u64).map(|i| offset + i * PERIOD_NS).collect();
                let sender_due = due.clone();
                let lines = &lane.lines;
                let sender = scope.spawn(move || {
                    let mut sent = Vec::with_capacity(count);
                    for (i, due) in sender_due.iter().enumerate() {
                        let now = origin.elapsed().as_nanos() as u64;
                        if now < *due {
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        sent.push(origin.elapsed().as_nanos() as u64);
                        if let Err(e) = writer.write_all(&lines[slot(first + i)]) {
                            return (sent, Some(format!("send failed: {e}")));
                        }
                    }
                    (sent, None)
                });
                let receiver = scope.spawn(move || {
                    let mut received = Vec::with_capacity(count);
                    let mut replies = Vec::with_capacity(count * 64);
                    let mut ends = Vec::with_capacity(count);
                    let mut reply = Vec::with_capacity(128);
                    for _ in 0..count {
                        if let Err(e) = recv_line(reader, &mut reply) {
                            return (
                                received,
                                replies,
                                ends,
                                Some(format!("receive failed: {e}")),
                            );
                        }
                        received.push(origin.elapsed().as_nanos() as u64);
                        replies.extend_from_slice(&reply);
                        ends.push(replies.len());
                    }
                    (received, replies, ends, None)
                });
                (first, due, sender, receiver)
            })
            .collect();
        // Meanwhile this thread reads the process CPU clock at every block
        // boundary of the schedule.
        for k in 0..=whole_blocks {
            let boundary = start + k * BLOCK_NS;
            let now = origin.elapsed().as_nanos() as u64;
            if now < boundary {
                std::thread::sleep(Duration::from_nanos(boundary - now));
            }
            cpu_marks.push(awake.cpu_seconds());
        }
        handles
            .into_iter()
            .map(|(first, due, sender, receiver)| {
                let (sent, send_error) = sender.join().expect("the sender does not panic");
                let (received, replies, ends, recv_error) =
                    receiver.join().expect("the receiver does not panic");
                LaneLog {
                    first,
                    due,
                    sent,
                    received,
                    replies,
                    ends,
                    error: send_error.or(recv_error),
                }
            })
            .collect()
    });
    cpu_marks.push(awake.cpu_seconds());
    let kept_awake = awake.stop();

    // Every reply against the reference, in each connection's own order.
    let mut spans = Vec::new();
    let mut seqs = Vec::new();
    for (conn, (lane, log)) in lanes.iter_mut().zip(&logs).enumerate() {
        if let Some(error) = &log.error {
            let lost = (count - log.received.len()) as u64;
            checks.tally(
                lost.max(1),
                lost.max(1),
                &format!("connection {conn}: {error}"),
            );
        }
        let mut wrong = 0u64;
        for (i, recv) in log.received.iter().enumerate() {
            let line = slot(log.first + i);
            let command = &lane.commands[line];
            let reply = &log.replies[if i == 0 { 0 } else { log.ends[i - 1] }..log.ends[i]];
            let seq = reply_seq(reply);
            let want = expected_reply(&mut lane.reference, line as u64, seq.unwrap_or(0), command);
            wrong += u64::from(seq.is_none() || reply != want.as_bytes());
            seqs.extend(seq);
            if let ServiceCommand::Ingest { name, items } = command {
                if let Some(k) = ["a", "b"].iter().position(|s| name.starts_with(s)) {
                    lane.distinct[k].extend(items);
                }
            }
            spans.push((log.due[i], *recv, conn, line as u64));
        }
        checks.tally(
            log.received.len() as u64,
            wrong,
            "reply differs from the reference interpreter's",
        );
        lane.cursor += count;
    }
    // The core lock handed out one position per request, none twice.
    seqs.sort_unstable();
    checks.check(seqs.windows(2).all(|w| w[1] == w[0] + 1), || {
        "acknowledged positions are not consecutive".to_string()
    });

    // One block per whole quarter second of the schedule (a shorter phase
    // is one block): what fell due in it, until the last of it was answered.
    let blocks = whole_blocks.max(1) as usize;
    let mut phase = Phase {
        samples: Samples::default(),
        acks: Samples::default(),
        queries: Samples::default(),
        pacing: pacing(&logs),
        kept_awake,
        spans,
    };
    for k in 0..blocks {
        let from = start + k as u64 * BLOCK_NS;
        let to = if whole_blocks > 0 {
            from + BLOCK_NS
        } else {
            u64::MAX
        };
        let members: Vec<_> = phase
            .spans
            .iter()
            .filter(|(due, ..)| (from..to).contains(due))
            .collect();
        let Some(last) = members.iter().map(|(_, recv, ..)| *recv).max() else {
            continue;
        };
        let block = |keep: &dyn Fn(bool) -> bool| Block {
            ops: members.len() as u64,
            wall_s: last.saturating_sub(from) as f64 / 1e9,
            cpu_s: cpu_marks[k + 1] - cpu_marks[k],
            call_ms: members
                .iter()
                .filter(|(.., id)| keep(is_read(*id as usize)))
                .map(|(due, recv, ..)| recv.saturating_sub(*due) as f64 / 1e6)
                .collect(),
        };
        phase.samples.blocks.push(block(&|_| true));
        phase.acks.blocks.push(block(&|read| !read));
        phase.queries.blocks.push(block(&|read| read));
    }
    phase
}

fn pacing(logs: &[LaneLog]) -> Pacing {
    let lag_ms = logs
        .iter()
        .flat_map(|l| l.sent.iter().zip(&l.due))
        .map(|(sent, due)| sent.saturating_sub(*due) as f64 / 1e6)
        .collect();
    // Per connection: requests written over the time from the first due
    // moment to the last write, against the nominal rate.
    let rates = logs
        .iter()
        .filter(|l| l.sent.len() > 1)
        .map(|l| {
            let span = (l.sent[l.sent.len() - 1] - l.due[0]) as f64 / 1e9;
            (l.sent.len() - 1) as f64 / span / RATE
        })
        .collect();
    Pacing { lag_ms, rates }
}

/// Refuses numbers from a run whose generator fell behind its schedule.
fn pacing_guards(pacing: &Pacing) -> Vec<String> {
    let mut guards = Vec::new();
    if pacing.late_frac() > MAX_LATE_FRAC {
        guards.push(format!(
            "gen.late_frac {:.4} > {MAX_LATE_FRAC}: too many requests left after the next was due",
            pacing.late_frac()
        ));
    }
    if pacing.achieved_rate() < MIN_ACHIEVED_RATE {
        guards.push(format!(
            "gen.achieved_rate {:.4} < {MIN_ACHIEVED_RATE}: the backlog is growing",
            pacing.achieved_rate()
        ));
    }
    guards
}

/// The final state against the reference: every session's Save document
/// and the plain sessions' estimates against their planted F0.
fn final_state(setup: &mut Setup, checks: &mut Checks) {
    for (conn, (lane, client)) in setup.lanes.iter_mut().zip(&mut setup.clients).enumerate() {
        for (k, session) in SESSIONS.iter().enumerate() {
            let name = format!("{session}{conn}");
            let mut ask = |command: ServiceCommand, checks: &mut Checks| {
                let reply = client
                    .round_trip(&request_line(CONTROL_ID, &command))
                    .unwrap_or_default();
                let seq = reply_seq(&reply).unwrap_or(0);
                let want = expected_reply(&mut lane.reference, CONTROL_ID, seq, &command);
                checks.check(reply == want.as_bytes(), || {
                    format!("{name}: final reply differs from the reference interpreter's")
                });
                serde_json::from_str::<Response>(want.trim_end())
                    .ok()
                    .and_then(|r| r.body.ok())
            };
            ask(ServiceCommand::Save { name: name.clone() }, checks);
            if k < 2 && !lane.distinct[k].is_empty() {
                let planted = lane.distinct[k].len() as f64;
                if let Some(CommandReply::Estimate(estimate)) =
                    ask(ServiceCommand::Estimate { name: name.clone() }, checks)
                {
                    checks.check(within(estimate, planted, lane.specs[k].epsilon), || {
                        format!("{name}: estimate {estimate} outside (1 ± ε) of the planted F0 {planted}")
                    });
                }
            }
        }
    }
}

/// The schedule run untimed until the K = 4 window has filled: for its
/// first seconds every read gets dearer as the ring's slots fill, and a
/// run must not report that climb as a quiet quarter. Scaled down with
/// short (smoke) runs.
fn warm_up(plan: &Plan, setup: &mut Setup, origin: Instant, checks: &mut Checks) {
    let fill = (WINDOW_EPOCHS * ADVANCE_EVERY) as f64 / RATE + 0.5;
    let budget = Duration::from_secs_f64(fill.min(plan.seconds / 3.0));
    measure(setup, budget, origin, checks);
}

pub fn run(plan: &Plan) -> Outcome {
    let mut checks = Checks::default();
    let (mut setup, first_setup_s) = timed(|| build(plan));
    let outcome = if plan.trace {
        trace(plan, &mut setup, checks)
    } else {
        let origin = Instant::now();
        warm_up(plan, &mut setup, origin, &mut checks);
        let mut setup_s = vec![first_setup_s];
        let mut pacing = Pacing::default();
        let mut kept_awake = true;
        let mut samples = Samples::default();
        measure_in_slices(
            plan,
            &mut setup_s,
            || build(plan),
            retire,
            |budget| {
                let phase = measure(&mut setup, budget, origin, &mut checks);
                pacing.absorb(phase.pacing);
                kept_awake &= phase.kept_awake;
                samples.absorb(phase.samples);
            },
        );
        final_state(&mut setup, &mut checks);
        Outcome {
            checks,
            metrics: end_to_end(&setup_s, &samples, TAIL_Q),
            guards: pacing_guards(&pacing),
            remarks: vec![regime(kept_awake), paced(&pacing)],
        }
    };
    retire(setup);
    outcome
}

fn retire(setup: Setup) {
    drop(setup.clients);
    setup.server.shutdown();
}

/// How the generator kept its schedule, for the trial record (an untraced
/// run prints no `gen.*` metric).
fn paced(pacing: &Pacing) -> String {
    format!(
        "gen.late_frac {:.4}, gen.lag_p99_ms {:.3}, gen.achieved_rate {:.4}",
        pacing.late_frac(),
        pacing.lag_p99_ms(),
        pacing.achieved_rate()
    )
}

/// Which of the two regimes the open loop ran in, for the trial record: two
/// runs of different regimes differ by half again with no other cause.
fn regime(kept_awake: bool) -> String {
    if kept_awake {
        "keep-awake spinners ran on every core for every open-loop phase".to_string()
    } else {
        "the kernel refused SCHED_IDLE, so no keep-awake spinners ran: the cores slept between \
         requests, and latency and CPU per request are that regime's (median ack 0.5 to 0.9 ms \
         where the spinners give 0.3 ms)"
            .to_string()
    }
}

fn trace(plan: &Plan, setup: &mut Setup, mut checks: Checks) -> Outcome {
    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    let origin = rec.origin();
    warm_up(plan, setup, origin, &mut checks);
    let plain = measure(setup, plan.share(0.2), origin, &mut checks);
    let traced = measure(setup, plan.share(0.3), origin, &mut checks);
    for (due, received, conn, id) in &traced.spans {
        rec.push(
            "e2e.call",
            *due,
            (*received).max(*due),
            ROOT,
            (*conn as u64) << 32 | id,
        );
    }
    let mut guards = pacing_guards(&plain.pacing);
    guards.extend(pacing_guards(&traced.pacing));
    let ack_p50 = traced.acks.call_ms(0.5);
    layers.set(
        "gen.trace_overhead_frac",
        ack_p50 / plain.acks.call_ms(0.5) - 1.0,
    );
    layers.set("gen.late_frac", traced.pacing.late_frac());
    layers.set("gen.lag_p99_ms", traced.pacing.lag_p99_ms());
    layers.set("gen.achieved_rate", traced.pacing.achieved_rate());
    layers.set("server.ack_p50_ms", ack_p50);
    layers.set("server.ack_p99_ms", traced.acks.call_ms(0.99));
    layers.set("server.query_p50_ms", traced.queries.call_ms(0.5));
    layers.set("server.query_p99_ms", traced.queries.call_ms(0.99));
    final_state(setup, &mut checks);

    // Connection 0's writes through each layer on its own.
    let lane = &setup.lanes[0];
    let each = plan.share(0.5 / 5.0);
    let lines: Vec<&[u8]> = lane.lines[..POOL_LINES].iter().map(Vec::as_slice).collect();
    let requests = decode_pool(&lines);
    let items: usize = lane.commands.iter().map(command_items).sum();
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    let bytes_per_item = bytes as f64 / items as f64;
    let proto = proto_rungs(&mut rec, each, &lines);
    let admit = tenant_admit(&mut rec, each, TENANT, TOKEN, &requests);
    let creates = lane.creates(0);
    let writes = &lane.commands[..POOL_LINES];
    let s1 = service_apply(&mut rec, each, 1, &creates, writes);
    let s2 = service_apply(&mut rec, each, SHARDS, &creates, writes);
    let reads = read_rungs(&mut rec, each, &creates, &lane.commands);

    // The average request: nine in ten carry 256 items through the codec,
    // admission and the sketches; one in ten is one of the four reads.
    let write_share = 1.0 - 1.0 / READ_EVERY as f64;
    let proto_cpu = (proto.decode_per_byte.cpu_ns + proto.linereader_per_byte.cpu_ns)
        * bytes_per_item
        * BATCH as f64
        * write_share
        + proto.encode_per_reply.cpu_ns
        + admit.cpu_ns;
    let reads_cpu = reads.iter().map(|r| r.cpu_ns).sum::<f64>() / READS as f64;
    let ledger = Ledger {
        e2e_wall_ns: ack_p50 * 1e6,
        e2e_cpu_ns: traced.samples.cpu_us_per_op() * 1e3,
        groups: vec![
            (
                "ledger.share_service",
                s2.cpu_ns * BATCH as f64 * write_share + reads_cpu * (1.0 - write_share),
            ),
            ("ledger.share_proto_tenant", proto_cpu),
        ],
        hashing_in_sketch_ns: 0.0,
    };
    ledger.write(&mut layers);
    layers.set("service.apply_s1_ns", s1.wall_ns);
    layers.set("service.apply_s2_ns", s2.wall_ns);
    layers.set("service.estimate_ms", reads[0].wall_ns / 1e6);
    layers.set("service.estimate_window_ms", reads[1].wall_ns / 1e6);
    layers.set("service.jaccard_ms", reads[2].wall_ns / 1e6);
    layers.set("service.space_bits_ms", reads[3].wall_ns / 1e6);
    layers.set("streaming.window_fold_ms", reads[4].wall_ns / 1e6);
    layers.set("proto.decode_ns_per_byte", proto.decode_per_byte.wall_ns);
    layers.set("proto.encode_ns_per_reply", proto.encode_per_reply.wall_ns);
    layers.set(
        "proto.linereader_ns_per_byte",
        proto.linereader_per_byte.wall_ns,
    );
    layers.set("proto.bytes_per_item", bytes_per_item);
    layers.set("tenant.admit_ns", admit.wall_ns);
    layers.set("server.residual_ns", ledger.residual_ns());

    guards.extend(crate::finish_trace(plan, &rec, &layers));
    Outcome {
        checks,
        metrics: layers.into_metrics(),
        guards,
        remarks: vec![regime(plain.kept_awake && traced.kept_awake)],
    }
}

/// The four reads in-process, then the ring fold under `EstimateWindow`,
/// on a two-shard service that holds one pass of the connection's pool
/// with the window advanced three times along the way.
fn read_rungs(
    rec: &mut Recorder,
    budget: Duration,
    creates: &[ServiceCommand],
    commands: &[ServiceCommand],
) -> [Cost; READS + 1] {
    let mut service = SketchService::new(SHARDS);
    for create in creates {
        service
            .apply(create)
            .expect("the rung's sessions are fresh");
    }
    let advances = &commands[POOL_LINES + READS..];
    let per_epoch = POOL_LINES / WINDOW_EPOCHS;
    for (k, write) in commands[..POOL_LINES].iter().enumerate() {
        if k > 0 && k % per_epoch == 0 {
            service
                .apply(&advances[k / per_epoch - 1])
                .expect("the window advances");
        }
        service.apply(write).expect("the pool applies");
    }
    const NAMES: [&str; READS] = [
        "service.estimate",
        "service.estimate_window",
        "service.jaccard",
        "service.space_bits",
    ];
    let each = budget / (READS as u32 + 1);
    let mut costs = [Cost::default(); READS + 1];
    for (k, name) in NAMES.into_iter().enumerate() {
        let read = &commands[POOL_LINES + k];
        costs[k] = rung(rec, name, each, 1.0, |pass| {
            pass.call(k as u64, || black_box(service.apply(read)))
                .expect("the read answers");
        });
    }
    let ServiceCommand::EstimateWindow { name } = &commands[POOL_LINES + 1] else {
        unreachable!("the second read is EstimateWindow");
    };
    let snapshot = service.snapshot(name).expect("the windowed session exists");
    let ring = snapshot
        .sketch
        .ring()
        .expect("the windowed session holds a ring");
    costs[READS] = rung(rec, "streaming.window_fold", each, 1.0, |pass| {
        pass.call(0, || black_box(ring.fold()));
    });
    costs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_nine_writes_a_read_and_an_advance_every_500() {
        let lines: Vec<usize> = (0..1000).map(slot).collect();
        assert_eq!(lines.iter().filter(|l| is_read(**l)).count(), 98);
        assert_eq!(
            lines.iter().filter(|l| **l >= POOL_LINES + READS).count(),
            2
        );
        assert_eq!(lines[499], POOL_LINES + READS);
        assert_eq!(lines[999], POOL_LINES + READS + 1);
        // Writes walk the pool in order and wrap.
        let writes: Vec<usize> = lines.iter().copied().filter(|l| *l < POOL_LINES).collect();
        assert_eq!(writes.len(), 900);
        assert!(writes.iter().enumerate().all(|(k, l)| *l == k % POOL_LINES));
        // The four reads take turns.
        let reads: Vec<usize> = lines.iter().copied().filter(|l| is_read(*l)).collect();
        assert_eq!(
            &reads[..5],
            &[
                POOL_LINES,
                POOL_LINES + 1,
                POOL_LINES + 2,
                POOL_LINES + 3,
                POOL_LINES
            ]
        );
    }

    #[test]
    fn request_lines_are_a_pure_function_of_the_seed() {
        let (a, b, c) = (Lane::new(1, 0), Lane::new(1, 0), Lane::new(2, 0));
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines[0], c.lines[0]);
        assert_eq!(a.lines.len(), POOL_LINES + READS + EPOCHS);
    }
}
