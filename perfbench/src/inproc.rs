//! `inproc_ingest`: `SketchService::new(2).ingest` called directly with
//! 4096-item batches, each batch fed to a Minimum and to a Bucketing
//! session. No wire, large batches: the hash kernel and `process_stream` do
//! nearly all the work.
//!
//! A round feeds the whole planted pool to fresh sessions, so every round
//! does the same work and ends in the same state, which is compared with
//! one `ReferenceService` replay.

use crate::gen::{dedup_ratio, planted_stream, Rng};
use crate::harness::{
    end_to_end, measure_in_slices, timed, within, Block, BlockClock, Checks, Outcome, Plan,
    Samples, ROWS,
};
use crate::layers::{service_apply, session_spec, sketch_process, toeplitz_eval, Layers, Ledger};
use crate::spans::{Recorder, ROOT};
use mcf0::service::{
    CommandReply, ReferenceService, ServiceCommand, SessionSpec, SketchKind, SketchService,
};
use std::time::{Duration, Instant};

/// Items per `ingest` call.
const BATCH: usize = 4096;
/// Items of the planted pool one round feeds to each session (256 batches).
const POOL_ITEMS: usize = 256 * BATCH;
const SHARDS: usize = 2;
/// A round is timed in eight units of this many batches (a twentieth of a
/// second each), so that a unit fits inside one of the box's quiet stretches.
const UNIT_BATCHES: usize = 32;
/// A call is one batch into both sessions; a round's 256 calls leave
/// twelve beyond p95.
const TAIL_Q: f64 = 0.95;

const SESSIONS: [(&str, SketchKind); 2] = [
    ("min", SketchKind::Minimum),
    ("buck", SketchKind::Bucketing),
];

struct Setup {
    stream: Vec<u64>,
    planted: usize,
    specs: [SessionSpec; 2],
    service: SketchService,
}

fn build(seed: u64, pool_items: usize) -> Setup {
    let planted = pool_items / 2;
    let stream = planted_stream(&mut Rng::lane(seed, 30), planted, pool_items);
    let specs = [
        session_spec(SketchKind::Minimum, seed.wrapping_mul(2).wrapping_add(31)),
        session_spec(SketchKind::Bucketing, seed.wrapping_mul(2).wrapping_add(32)),
    ];
    let mut service = SketchService::new(SHARDS);
    create_sessions(&mut service, &specs);
    Setup {
        stream,
        planted,
        specs,
        service,
    }
}

fn create_sessions(service: &mut SketchService, specs: &[SessionSpec; 2]) {
    for ((name, _), spec) in SESSIONS.iter().zip(specs) {
        service
            .create_session(name, *spec)
            .expect("a fresh service takes the benchmark's sessions");
    }
}

/// What the reference interpreter says each session ends a round as.
struct Expected {
    estimate: [f64; 2],
    document: [String; 2],
}

fn reference(setup: &Setup) -> Expected {
    let mut reference = ReferenceService::new();
    let mut estimate = [0.0; 2];
    let mut document = [String::new(), String::new()];
    for (k, ((name, _), spec)) in SESSIONS.iter().zip(&setup.specs).enumerate() {
        let name = name.to_string();
        let mut run = |command: ServiceCommand| {
            reference
                .apply(&command)
                .expect("the reference interpreter takes the workload")
        };
        run(ServiceCommand::Create {
            name: name.clone(),
            spec: *spec,
        });
        for batch in setup.stream.chunks(BATCH) {
            run(ServiceCommand::Ingest {
                name: name.clone(),
                items: batch.to_vec(),
            });
        }
        if let CommandReply::Estimate(e) = run(ServiceCommand::Estimate { name: name.clone() }) {
            estimate[k] = e;
        }
        if let CommandReply::Snapshot(doc) = run(ServiceCommand::Save { name }) {
            document[k] = doc;
        }
    }
    Expected { estimate, document }
}

/// Rounds until `budget` is spent (at least one), each timed in units of
/// `UNIT_BATCHES` batches and returned as `(unit, block)`: a unit does the
/// same work in every round. With a recorder, every call gets a span.
fn measure(
    setup: &mut Setup,
    expected: &Expected,
    budget: Duration,
    mut rec: Option<&mut Recorder>,
    checks: &mut Checks,
) -> Vec<(usize, Block)> {
    let mut repeats = Vec::new();
    let deadline = Instant::now() + budget;
    let mut call_id = 0u64;
    loop {
        let mut errors = 0u64;
        for (unit, items) in setup.stream.chunks(UNIT_BATCHES * BATCH).enumerate() {
            let clock = BlockClock::start();
            let mut call_ms = Vec::with_capacity(UNIT_BATCHES);
            for batch in items.chunks(BATCH) {
                let start = Instant::now();
                for (name, _) in SESSIONS {
                    errors += u64::from(setup.service.ingest(name, batch).is_err());
                }
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
            let ops = (SESSIONS.len() * items.len()) as u64;
            repeats.push((unit, clock.finish(ops, call_ms)));
        }
        checks.tally(
            (SESSIONS.len() * setup.stream.len().div_ceil(BATCH)) as u64,
            errors,
            "ingest call returned an error",
        );

        // Between rounds, untimed: the end state against the reference,
        // then fresh sessions for the next round.
        for (k, (name, _)) in SESSIONS.iter().enumerate() {
            let estimate = setup.service.estimate(name).unwrap_or(f64::NAN);
            checks.check(estimate.to_bits() == expected.estimate[k].to_bits(), || {
                format!(
                    "{name}: estimate {estimate} differs from the reference {}",
                    expected.estimate[k]
                )
            });
            checks.check(
                within(estimate, setup.planted as f64, setup.specs[k].epsilon),
                || {
                    format!(
                        "{name}: estimate {estimate} outside (1 ± ε) of the planted F0 {}",
                        setup.planted
                    )
                },
            );
            let document = setup.service.save(name).unwrap_or_default();
            checks.check(document == expected.document[k], || {
                format!("{name}: Save document differs from the reference")
            });
            setup
                .service
                .drop_session(name)
                .expect("the round's session exists");
        }
        create_sessions(&mut setup.service, &setup.specs);
        if Instant::now() >= deadline {
            return repeats;
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut checks = Checks::default();
    let (mut setup, first_setup_s) = timed(|| build(plan.seed, POOL_ITEMS));
    let expected = reference(&setup);
    if !plan.trace {
        let mut setup_s = vec![first_setup_s];
        let mut repeats = Vec::new();
        measure_in_slices(
            plan,
            &mut setup_s,
            || build(plan.seed, POOL_ITEMS),
            drop,
            |budget| repeats.extend(measure(&mut setup, &expected, budget, None, &mut checks)),
        );
        return Outcome {
            checks,
            metrics: end_to_end(&setup_s, &Samples::of_repeats(repeats), TAIL_Q),
            guards: Vec::new(),
            remarks: Vec::new(),
        };
    }

    let mut rec = Recorder::new();
    let mut layers = Layers::default();
    // One round first: the plain and the traced phase then both run warm.
    measure(&mut setup, &expected, plan.share(0.01), None, &mut checks);
    let plain = measure(&mut setup, &expected, plan.share(0.15), None, &mut checks);
    let plain = Samples::of_repeats(plain);
    let traced = measure(
        &mut setup,
        &expected,
        plan.share(0.15),
        Some(&mut rec),
        &mut checks,
    );
    let traced = Samples::of_repeats(traced);
    layers.set(
        "gen.trace_overhead_frac",
        plain.ops_per_s() / traced.ops_per_s() - 1.0,
    );

    let each = plan.share(0.6 / 5.0);
    let batches: Vec<&[u64]> = setup.stream.chunks(BATCH).collect();
    let eval = toeplitz_eval(&mut rec, each, &setup.stream, setup.specs[0].seed);
    let min = sketch_process(
        &mut rec,
        each,
        SketchKind::Minimum,
        &batches,
        setup.specs[0].seed,
    );
    let buck = sketch_process(
        &mut rec,
        each,
        SketchKind::Bucketing,
        &batches,
        setup.specs[1].seed,
    );
    let dedup = dedup_ratio(batches.iter().copied());

    // The same alternation as the measured rounds, as replayable commands.
    let creates: Vec<ServiceCommand> = SESSIONS
        .iter()
        .zip(&setup.specs)
        .map(|((name, _), spec)| ServiceCommand::Create {
            name: name.to_string(),
            spec: *spec,
        })
        .collect();
    let commands: Vec<ServiceCommand> = batches
        .iter()
        .flat_map(|batch| {
            SESSIONS.iter().map(|(name, _)| ServiceCommand::Ingest {
                name: name.to_string(),
                items: batch.to_vec(),
            })
        })
        .collect();
    let s1 = service_apply(&mut rec, each, 1, &creates, &commands);
    let s2 = service_apply(&mut rec, each, SHARDS, &creates, &commands);

    // One work unit is one item into one session, so the bare-sketch rung
    // is the mean of the two sketches; only the Minimum half evaluates the
    // 96-bit Toeplitz rows.
    let sketch_wall = (min.wall_ns + buck.wall_ns) / 2.0;
    let sketch_cpu = (min.cpu_ns + buck.cpu_ns) / 2.0;
    let hashing_cpu = eval.cpu_ns * ROWS as f64 * dedup / 2.0;
    layers.set("hashing.toeplitz_eval_ns", eval.wall_ns);
    layers.set("streaming.minimum_process_ns", min.wall_ns);
    layers.set("streaming.bucketing_process_ns", buck.wall_ns);
    layers.set("streaming.dedup_ratio", dedup);
    layers.set("service.apply_s1_ns", s1.wall_ns);
    layers.set("service.apply_s2_ns", s2.wall_ns);
    layers.set("service.route_tax_ns", s2.wall_ns - sketch_wall);
    Ledger {
        e2e_wall_ns: traced.wall_ns_per_op(),
        e2e_cpu_ns: traced.cpu_us_per_op() * 1e3,
        groups: vec![
            ("ledger.share_sketch", sketch_cpu),
            ("ledger.share_service", s2.cpu_ns - sketch_cpu),
        ],
        hashing_in_sketch_ns: hashing_cpu,
    }
    .write(&mut layers);

    let guards = crate::finish_trace(plan, &rec, &layers);
    Outcome {
        checks,
        metrics: layers.into_metrics(),
        guards,
        remarks: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_seed_gives_different_inputs_and_still_passes() {
        let mut streams = Vec::new();
        for seed in [1u64, 2] {
            // Four batches instead of 256: a debug build is slow.
            let mut setup = build(seed, 4 * BATCH);
            let expected = reference(&setup);
            let mut checks = Checks::default();
            let repeats = measure(&mut setup, &expected, Duration::ZERO, None, &mut checks);
            assert_eq!(repeats.len(), 1);
            assert_eq!(repeats[0].1.call_ms.len(), 4);
            assert_eq!(checks.failed, 0, "{:?}", checks.notes);
            assert!(checks.attempted > 0);
            streams.push(setup.stream);
        }
        assert_ne!(streams[0], streams[1]);
    }
}
