//! Sketch-engine benchmark harness: seeded regression workloads for the F0
//! sketch pipeline (streaming, structured, distributed), with wall-clock and
//! pinned-output accounting — the streaming-side counterpart of
//! `solver_bench`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mcf0-bench --bin sketch_bench             # print table
//! cargo run --release -p mcf0-bench --bin sketch_bench -- --check  # fail on output drift
//! cargo run --release -p mcf0-bench --bin sketch_bench -- --write  # rewrite BENCH_streaming.json
//! ```
//!
//! Every workload is seeded, so its estimate and space/communication
//! accounting are exact constants: a sketch-engine change (word-packing,
//! batching) must leave them untouched — only wall-clock may move.
//! `--check` exits non-zero if any pinned value drifts. Every workload runs
//! on the calling thread, so each row times one core.
//! `BENCH_streaming.json` records the wall-clock trajectory across PRs (the
//! `seed_baseline` block holds the pre-word-packing numbers of the
//! item-at-a-time engine for comparison).

use mcf0::counting::CountingConfig;
use mcf0::distributed::distributed_minimum;
use mcf0::formula::generators::{partition_dnf, random_dnf};
use mcf0::hashing::Xoshiro256StarStar;
use mcf0::streaming::workloads::{planted_f0_stream, skewed_stream};
use mcf0::streaming::{AmsF2, BucketingF0, EpochRing, EstimationF0, F0Config, F0Sketch, MinimumF0};
use mcf0::structured::{DnfSet, StructuredMinimumF0};
use serde::Serialize;
use std::time::Instant;

/// One measured regression workload.
#[derive(Clone, Debug, Serialize)]
struct InstanceResult {
    /// Workload name.
    name: String,
    /// Wall-clock milliseconds for one run (release).
    wall_ms: f64,
    /// The estimate the workload produced (pinned).
    estimate: f64,
    /// Space bits of the sketch, or total communication bits for the
    /// distributed workloads (pinned).
    space_bits: u64,
}

/// Pinned per-workload outputs `(name, estimate, space_bits)`, measured at
/// the revision that introduced the word-packed engine. The estimates and
/// space accounting are deterministic functions of the seeds; any drift
/// means an engine change altered sketch *semantics*, not just speed.
const PINNED: &[(&str, f64, u64)] = &[
    ("bucketing_w32", 20480.0, 29015),
    ("minimum_w32", 19632.324160866257, 131607),
    ("estimation_w32", 3604.454333655757, 220416),
    ("flajolet_martin_w48", 16384.0, 104),
    ("ams_f2_w24", 9033068.157142857, 313600),
    ("structured_dnf_w16", 53866.590500399325, 14955),
    ("windowed_minimum_w32_k3", 13556.38196392681, 131607),
    ("distributed_minimum_k4", 9774.647276773543, 230292),
];

/// Per-workload wall-clock at the seed of this PR (the item-at-a-time,
/// non-word-packed sketch engine; release profile). Informational history
/// for BENCH_streaming.json; the pinned columns above are what `--check`
/// enforces.
const SEED_BASELINE: &[(&str, f64)] = &[
    ("bucketing_w32", 18.70),
    ("minimum_w32", 364.71),
    ("estimation_w32", 5556.08),
    ("flajolet_martin_w48", 6.53),
    ("ams_f2_w24", 3274.70),
    ("structured_dnf_w16", 3.24),
    ("distributed_minimum_k4", 2.75),
];

fn bucketing() -> (f64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(11);
    let stream = planted_f0_stream(&mut rng, 32, 20_000, 40_000);
    let config = F0Config::explicit(0.8, 0.2, 150, 9);
    let mut sketch_rng = Xoshiro256StarStar::seed_from_u64(12);
    let mut sketch = BucketingF0::new(32, &config, &mut sketch_rng);
    sketch.process_stream(&stream);
    (sketch.estimate(), sketch.space_bits() as u64)
}

fn minimum() -> (f64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(21);
    let stream = planted_f0_stream(&mut rng, 32, 20_000, 40_000);
    let config = F0Config::explicit(0.8, 0.2, 150, 9);
    let mut sketch_rng = Xoshiro256StarStar::seed_from_u64(22);
    let mut sketch = MinimumF0::new(32, &config, &mut sketch_rng);
    sketch.process_stream(&stream);
    (sketch.estimate(), sketch.space_bits() as u64)
}

fn estimation() -> (f64, u64) {
    let truth = 4000usize;
    let mut rng = Xoshiro256StarStar::seed_from_u64(31);
    let stream = planted_f0_stream(&mut rng, 32, truth, 2 * truth);
    let config = F0Config::explicit(0.5, 0.2, 96, 7);
    let mut sketch_rng = Xoshiro256StarStar::seed_from_u64(32);
    let mut sketch = EstimationF0::new(32, &config, &mut sketch_rng);
    sketch.process_stream(&stream);
    // 2^r ≈ 8·F0 sits inside the valid window 2·F0 ≤ 2^r ≤ 50·F0.
    let r = ((truth as f64 * 8.0).log2().round()) as u32;
    let estimate = sketch
        .estimate_with_r(r)
        .expect("valid r yields an estimate");
    (estimate, sketch.space_bits() as u64)
}

fn flajolet_martin() -> (f64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(41);
    let stream = planted_f0_stream(&mut rng, 48, 30_000, 30_000);
    let mut sketch_rng = Xoshiro256StarStar::seed_from_u64(42);
    let mut sketch = mcf0::streaming::FlajoletMartinF0::new(48, &mut sketch_rng);
    sketch.process_stream(&stream);
    (sketch.estimate(), sketch.space_bits() as u64)
}

fn ams_f2() -> (f64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(51);
    let (stream, _) = skewed_stream(&mut rng, 24, 1000, 6000, 0.5);
    let mut sketch_rng = Xoshiro256StarStar::seed_from_u64(52);
    let mut sketch = AmsF2::new(24, 7, 280, &mut sketch_rng);
    sketch.process_stream(&stream);
    (sketch.estimate(), sketch.space_bits() as u64)
}

fn structured_dnf() -> (f64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(61);
    let items: Vec<DnfSet> = (0..6)
        .map(|_| DnfSet::new(random_dnf(&mut rng, 16, 5, (3, 6))))
        .collect();
    let config = CountingConfig::explicit(0.8, 0.2, 60, 5);
    let mut sketch_rng = Xoshiro256StarStar::seed_from_u64(62);
    let mut sketch = StructuredMinimumF0::new(16, &config, &mut sketch_rng);
    for item in &items {
        sketch.process_item(item);
    }
    (sketch.estimate(), sketch.space_bits() as u64)
}

/// The `minimum_w32` stream split across 6 caller-supplied epochs through a
/// 3-epoch ring: the fold's estimate must equal a direct sketch (same seed)
/// fed only the last 3 epochs' items — ring rotation is pure routing, like
/// sharding. The cross-check is enforced inline; the fold value is pinned.
fn windowed_minimum_k3() -> (f64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(21);
    let stream = planted_f0_stream(&mut rng, 32, 20_000, 40_000);
    let config = F0Config::explicit(0.8, 0.2, 150, 9);
    let window = 3usize;
    let chunk = stream.len().div_ceil(6);

    let mut sketch_rng = Xoshiro256StarStar::seed_from_u64(22);
    let template = MinimumF0::new(32, &config, &mut sketch_rng);
    let mut ring = EpochRing::new(template, window);
    for (e, batch) in stream.chunks(chunk).enumerate() {
        if e > 0 {
            ring.advance(e as u64).expect("epochs increase");
        }
        ring.current_mut().process_stream(batch);
    }
    let fold = ring.fold();

    let epochs = stream.chunks(chunk).count();
    let mut direct_rng = Xoshiro256StarStar::seed_from_u64(22);
    let mut direct = MinimumF0::new(32, &config, &mut direct_rng);
    for batch in stream.chunks(chunk).skip(epochs.saturating_sub(window)) {
        direct.process_stream(batch);
    }
    assert_eq!(
        fold.estimate(),
        direct.estimate(),
        "ring fold diverged from the direct in-window sketch"
    );
    (fold.estimate(), fold.space_bits() as u64)
}

fn distributed_minimum_k4() -> (f64, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(71);
    let f = random_dnf(&mut rng, 14, 12, (3, 6));
    let sites = partition_dnf(&mut rng, &f, 4);
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    let mut run_rng = Xoshiro256StarStar::seed_from_u64(72);
    let out = distributed_minimum(&sites, &config, &mut run_rng);
    (out.estimate, out.ledger.total_bits())
}

fn run_instances() -> Vec<InstanceResult> {
    let mut out = Vec::new();
    let mut record = |name: &str, body: &dyn Fn() -> (f64, u64)| {
        let start = Instant::now();
        let (estimate, space_bits) = body();
        out.push(InstanceResult {
            name: name.to_string(),
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            estimate,
            space_bits,
        });
    };

    record("bucketing_w32", &bucketing);
    record("minimum_w32", &minimum);
    record("estimation_w32", &estimation);
    record("flajolet_martin_w48", &flajolet_martin);
    record("ams_f2_w24", &ams_f2);
    record("structured_dnf_w16", &structured_dnf);
    record("windowed_minimum_w32_k3", &windowed_minimum_k3);
    record("distributed_minimum_k4", &distributed_minimum_k4);
    out
}

#[derive(Serialize)]
struct BaselineRow {
    name: String,
    wall_ms: f64,
}

#[derive(Serialize)]
struct Report {
    generated_by: String,
    profile: String,
    seed_baseline: Vec<BaselineRow>,
    instances: Vec<InstanceResult>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write = args.iter().any(|a| a == "--write");

    let results = run_instances();
    println!("| workload | wall (ms) | estimate | space/comm bits |");
    println!("|---|---|---|---|");
    for r in &results {
        println!(
            "| {} | {:.2} | {} | {} |",
            r.name, r.wall_ms, r.estimate, r.space_bits
        );
    }

    if write {
        let report = Report {
            generated_by: "cargo run --release -p mcf0-bench --bin sketch_bench -- --write".into(),
            profile: "release".into(),
            seed_baseline: SEED_BASELINE
                .iter()
                .map(|&(name, wall_ms)| BaselineRow {
                    name: name.to_string(),
                    wall_ms,
                })
                .collect(),
            instances: results.clone(),
        };
        let json = serde_json::to_string(&report).expect("serialization is infallible");
        // Merge rather than overwrite: `service_bench --write` owns the
        // `service` section of the same file.
        mcf0_bench::merge_bench_json("BENCH_streaming.json", &json)
            .expect("write BENCH_streaming.json");
        println!("wrote BENCH_streaming.json");
    }

    if check {
        let mut drift = false;
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
        if drift {
            eprintln!("sketch-engine change altered pinned sketch outputs; see PINNED");
            std::process::exit(1);
        }
        println!("sketch outputs match the pinned baseline");
    }
}
