//! The per-layer rungs of the traced run: each replays a workload's exact
//! inputs through one layer's public functions in isolation, with a span
//! around every call, and reports the layer's cost per unit of work.
//!
//! A rung repeats whole passes over the inputs until its share of the run
//! is spent and reports the quiet passes' value, like every other number of
//! the benchmark (see `stats::quiet`).

use crate::gen::UNIVERSE_BITS;
use crate::harness::{ROWS, THRESH};
use crate::spans::{Recorder, ROOT};
use crate::stats::quiet;
use crate::sys;
use mcf0::hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0::service::net::proto::{decode_request, encode_line, Line, LineReader};
use mcf0::service::{
    CommandReply, Request, Response, ServiceCommand, SessionSpec, SketchKind, SketchService,
    TenantDirectory, TenantQuota,
};
use mcf0::streaming::{BucketingF0, F0Config, F0Sketch, MinimumF0};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The names, units and order of the per-layer metrics (BENCHMARK.json
/// lists the same). A workload reports 0 for a layer that is not on its
/// path.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("hashing.toeplitz_eval_ns", "ns"),
    ("hashing.sample_s", "s"),
    ("streaming.minimum_process_ns", "ns"),
    ("streaming.bucketing_process_ns", "ns"),
    ("streaming.dedup_ratio", "ratio"),
    ("streaming.window_fold_ms", "ms"),
    ("service.apply_s1_ns", "ns"),
    ("service.apply_s2_ns", "ns"),
    ("service.route_tax_ns", "ns"),
    ("service.estimate_ms", "ms"),
    ("service.estimate_window_ms", "ms"),
    ("service.jaccard_ms", "ms"),
    ("service.space_bits_ms", "ms"),
    ("proto.decode_ns_per_byte", "ns"),
    ("proto.encode_ns_per_reply", "ns"),
    ("proto.linereader_ns_per_byte", "ns"),
    ("proto.bytes_per_item", "count"),
    ("tenant.admit_ns", "ns"),
    ("server.residual_ns", "ns"),
    ("server.ack_p50_ms", "ms"),
    ("server.ack_p99_ms", "ms"),
    ("server.query_p50_ms", "ms"),
    ("server.query_p99_ms", "ms"),
    ("wal.frame_ns_per_byte", "ns"),
    ("wal.append_ns_per_frame", "ns"),
    ("wal.sync_ms", "ms"),
    ("wal.bytes_per_item", "count"),
    ("wal.replay_ns_per_frame", "ns"),
    ("storage.ops", "count"),
    ("storage.fsyncs", "count"),
    ("durable.apply_ns", "ns"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoints", "count"),
    ("durable.recover_s", "s"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.bytes", "count"),
    ("counting.self_s", "s"),
    ("sat.oracle_busy_s", "s"),
    ("sat.oracle_calls", "count"),
    ("sat.solutions_enumerated", "count"),
    ("sat.call_p50_us", "us"),
    ("sat.call_p99_us", "us"),
    ("solver.conflicts", "count"),
    ("solver.propagations", "count"),
    ("solver.decisions", "count"),
    ("solver.restarts", "count"),
    ("solver.learned_clauses", "count"),
    ("solver.props_per_s", "1/s"),
    ("gen.late_frac", "ratio"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.achieved_rate", "ratio"),
    ("gen.trace_overhead_frac", "ratio"),
    ("ledger.e2e_wall_ns", "ns"),
    ("ledger.e2e_cpu_ns", "ns"),
    ("ledger.rungs_cpu_ns", "ns"),
    ("ledger.residual_frac", "ratio"),
    ("ledger.share_hashing", "ratio"),
    ("ledger.share_sketch", "ratio"),
    ("ledger.share_service", "ratio"),
    ("ledger.share_proto_tenant", "ratio"),
    ("ledger.share_durable", "ratio"),
    ("ledger.share_sat", "ratio"),
    ("ledger.share_counting", "ratio"),
];

/// The per-layer values of one traced run; unset metrics read 0.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Every declared metric, in declaration order.
    pub fn into_metrics(self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, self.get(name)))
            .collect()
    }
}

/// The CPU ledger of a traced run: process CPU time per work unit over the
/// end-to-end phase against the CPU time of the layers replayed in
/// isolation, grouped by layer. CPU time adds up whatever overlaps on the
/// two cores, which wall time does not; what the rungs leave over is spent
/// outside them: sockets, the event loop, thread hops, the benchmark's own
/// clients.
pub struct Ledger {
    pub e2e_wall_ns: f64,
    pub e2e_cpu_ns: f64,
    /// `(ledger.share_* metric, CPU ns per work unit)` per layer group;
    /// the groups do not overlap, so they and the residual add up to 1.
    pub groups: Vec<(&'static str, f64)>,
    /// Of the sketch group, the Toeplitz row evaluations, as the kernel
    /// costs in isolation (`ledger.share_hashing`; not a group of its own:
    /// the evaluations happen inside `process_stream`). 0 where a workload
    /// lists hashing as a group itself.
    pub hashing_in_sketch_ns: f64,
}

impl Ledger {
    pub fn residual_ns(&self) -> f64 {
        self.e2e_cpu_ns - self.groups.iter().map(|(_, ns)| ns).sum::<f64>()
    }

    pub fn write(&self, layers: &mut Layers) {
        layers.set("ledger.e2e_wall_ns", self.e2e_wall_ns);
        layers.set("ledger.e2e_cpu_ns", self.e2e_cpu_ns);
        layers.set("ledger.rungs_cpu_ns", self.e2e_cpu_ns - self.residual_ns());
        layers.set("ledger.residual_frac", self.residual_ns() / self.e2e_cpu_ns);
        for (share, ns) in &self.groups {
            layers.set(share, ns / self.e2e_cpu_ns);
        }
        if self.hashing_in_sketch_ns > 0.0 {
            layers.set(
                "ledger.share_hashing",
                self.hashing_in_sketch_ns / self.e2e_cpu_ns,
            );
        }
    }
}

/// What a rung measured, per unit of work.
#[derive(Clone, Copy, Default)]
pub struct Cost {
    /// Span time of a pass: the layer's wall time per unit.
    pub wall_ns: f64,
    /// Process CPU time of a pass (the service's shard threads and the
    /// pass's own set-up included), which is what the CPU ledger adds up.
    pub cpu_ns: f64,
}

/// One pass of a rung: its calls' summed duration, and (on the first pass
/// only, to bound the file) a span around each.
pub struct Pass<'a> {
    rec: &'a mut Recorder,
    name: &'static str,
    keep_spans: bool,
    busy_ns: u64,
}

impl Pass<'_> {
    /// Times one call into the layer.
    pub fn call<T>(&mut self, request: u64, call: impl FnOnce() -> T) -> T {
        let start = self.rec.now();
        let out = call();
        let end = self.rec.now();
        if self.keep_spans {
            self.rec.push(self.name, start, end, ROOT, request);
        }
        self.busy_ns += end - start;
        out
    }
}

/// Runs `pass` until `budget` is spent (at least once).
pub fn rung(
    rec: &mut Recorder,
    name: &'static str,
    budget: Duration,
    units_per_pass: f64,
    mut pass: impl FnMut(&mut Pass),
) -> Cost {
    let units = units_per_pass.max(1.0);
    let deadline = Instant::now() + budget;
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    loop {
        let mut p = Pass {
            rec,
            name,
            keep_spans: wall.is_empty(),
            busy_ns: 0,
        };
        let cpu_before = sys::cpu_seconds();
        pass(&mut p);
        cpu.push((sys::cpu_seconds() - cpu_before) * 1e9 / units);
        wall.push(p.busy_ns as f64 / units);
        if Instant::now() >= deadline {
            return Cost {
                wall_ns: quiet(&wall, true),
                cpu_ns: quiet(&cpu, true),
            };
        }
    }
}

/// `ToeplitzHash::eval_u64` at 32 → 96 bits (the Minimum sketch's row hash)
/// over the stream's distinct items: nanoseconds per evaluation.
pub fn toeplitz_eval(rec: &mut Recorder, budget: Duration, stream: &[u64], seed: u64) -> Cost {
    let distinct: Vec<u64> = {
        let mut seen = HashSet::new();
        stream.iter().copied().filter(|x| seen.insert(*x)).collect()
    };
    let hash = ToeplitzHash::sample(
        &mut Xoshiro256StarStar::seed_from_u64(seed),
        UNIVERSE_BITS,
        3 * UNIVERSE_BITS,
    );
    rung(
        rec,
        "hashing.toeplitz_eval",
        budget,
        distinct.len() as f64,
        |pass| {
            for (i, block) in distinct.chunks(4096).enumerate() {
                pass.call(i as u64, || {
                    for &item in block {
                        black_box(hash.eval_u64(black_box(item)));
                    }
                });
            }
        },
    )
}

fn f0_config() -> F0Config {
    F0Config::explicit(0.8, 0.2, THRESH, ROWS)
}

/// `process_stream` on a bare sketch over the same batches: nanoseconds per
/// item sent (duplicates included).
pub fn sketch_process(
    rec: &mut Recorder,
    budget: Duration,
    kind: SketchKind,
    batches: &[&[u64]],
    seed: u64,
) -> Cost {
    let items: usize = batches.iter().map(|b| b.len()).sum();
    let name = match kind {
        SketchKind::Minimum => "streaming.minimum_process",
        _ => "streaming.bucketing_process",
    };
    rung(rec, name, budget, items as f64, |pass| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut sketch: Box<dyn F0Sketch> = match kind {
            SketchKind::Minimum => Box::new(MinimumF0::new(UNIVERSE_BITS, &f0_config(), &mut rng)),
            _ => Box::new(BucketingF0::new(UNIVERSE_BITS, &f0_config(), &mut rng)),
        };
        for (i, batch) in batches.iter().enumerate() {
            pass.call(i as u64, || sketch.process_stream(batch));
        }
        black_box(sketch.estimate());
    })
}

/// `SketchService::apply` over the workload's commands on `shards` shard
/// threads (`creates` first, untimed): nanoseconds per item.
pub fn service_apply(
    rec: &mut Recorder,
    budget: Duration,
    shards: usize,
    creates: &[ServiceCommand],
    commands: &[ServiceCommand],
) -> Cost {
    let items: usize = commands.iter().map(command_items).sum();
    let name = if shards == 1 {
        "service.apply_s1"
    } else {
        "service.apply_s2"
    };
    rung(rec, name, budget, items as f64, |pass| {
        let mut service = SketchService::new(shards);
        for create in creates {
            service
                .apply(create)
                .expect("the rung's sessions are fresh");
        }
        for (i, command) in commands.iter().enumerate() {
            pass.call(i as u64, || {
                black_box(
                    service
                        .apply(command)
                        .expect("the workload's commands apply"),
                )
            });
        }
    })
}

/// Items an `Ingest` carries (0 for every other command).
pub fn command_items(command: &ServiceCommand) -> usize {
    match command {
        ServiceCommand::Ingest { items, .. } => items.len(),
        _ => 0,
    }
}

/// The wire codec over the workload's request lines and reply lines.
pub struct ProtoRungs {
    pub decode_per_byte: Cost,
    pub encode_per_reply: Cost,
    pub linereader_per_byte: Cost,
}

/// `lines` are newline-terminated `Ingest` request lines; the replies
/// encoded are the acknowledgements the server gives them.
pub fn proto_rungs(rec: &mut Recorder, budget: Duration, lines: &[&[u8]]) -> ProtoRungs {
    let replies: Vec<Response> = (0..lines.len() as u64)
        .map(|i| Response {
            id: Some(i),
            seq: Some(i),
            body: Ok(CommandReply::Done),
        })
        .collect();
    let bytes: usize = lines.iter().map(|l| l.len()).sum();
    let each = budget / 3;
    let decode_per_byte = rung(rec, "proto.decode", each, bytes as f64, |pass| {
        for (i, line) in lines.iter().enumerate() {
            let frame = &line[..line.len() - 1];
            pass.call(i as u64, || {
                black_box(decode_request(frame).expect("the workload's lines decode"))
            });
        }
    });
    let encode_per_reply = rung(rec, "proto.encode", each, replies.len() as f64, |pass| {
        for (i, reply) in replies.iter().enumerate() {
            pass.call(i as u64, || black_box(encode_line(reply)));
        }
    });
    let wire: Vec<u8> = lines.concat();
    let linereader_per_byte = rung(rec, "proto.linereader", each, bytes as f64, |pass| {
        let mut reader = LineReader::new(std::io::Cursor::new(&wire));
        for i in 0..lines.len() {
            let line = pass.call(i as u64, || reader.next_line());
            assert!(
                matches!(line, Ok(Some(Line::Frame(_)))),
                "the in-memory wire splits into its lines"
            );
        }
    });
    ProtoRungs {
        decode_per_byte,
        encode_per_reply,
        linereader_per_byte,
    }
}

/// `authenticate` + `admit` + `scope_command` + `settle`, the tenant work
/// `handle_frame` does under the core lock: nanoseconds per request.
pub fn tenant_admit(
    rec: &mut Recorder,
    budget: Duration,
    tenant: &str,
    token: &str,
    requests: &[Request],
) -> Cost {
    rung(rec, "tenant.admit", budget, requests.len() as f64, |pass| {
        let mut directory = TenantDirectory::new();
        directory
            .register(tenant, token, TenantQuota::unlimited())
            .expect("a fresh directory takes the tenant");
        for (i, request) in requests.iter().enumerate() {
            pass.call(i as u64, || {
                let id = directory
                    .authenticate(&request.token)
                    .map(str::to_string)
                    .expect("the benchmark's token is registered");
                directory
                    .admit(&id, &request.command)
                    .expect("the tenant is unlimited");
                black_box(TenantDirectory::scope_command(&id, &request.command));
                directory.settle(&id, &request.command, true);
            });
        }
    })
}

/// A connection's pre-encoded request lines, decoded again: what the
/// server's worker hands to admission and to the service.
pub fn decode_pool(lines: &[&[u8]]) -> Vec<Request> {
    lines
        .iter()
        .map(|l| decode_request(&l[..l.len() - 1]).expect("the pool's lines decode"))
        .collect()
}

/// The session shape every service workload uses.
pub fn session_spec(kind: SketchKind, seed: u64) -> SessionSpec {
    SessionSpec::new(kind, UNIVERSE_BITS, THRESH, ROWS, seed)
}
