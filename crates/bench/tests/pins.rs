//! The pin table: every seeded workload whose output the paper's claims fix,
//! checked bit for bit.
//!
//! The paper states its complexity in NP-oracle calls, so the counting rows
//! pin oracle calls next to the value they produce. The sketch rows pin the
//! estimate and the space (or communication) bits of a seeded sketch. A
//! solver or sketch-engine change may make a row faster; it must not move a
//! number here. Conflicts, learned clauses and restarts are engine internals
//! and stay unpinned; time is perfbench's alone.
//!
//! Service rows have no numbers of their own (except the two set-algebra
//! queries): each names the direct-engine row it must reproduce, because
//! sharding, merging, persistence and the wire are pure routing.
//!
//! ```text
//! cargo test -p mcf0-bench --test pins
//! cargo test --release -p mcf0-bench --test pins -- --ignored   # paper-scale service differential
//! ```

use mcf0::counting::est_based::EstBackend;
use mcf0::counting::{
    approx_mc_on_oracle, approx_model_count_est, approx_model_count_min, CountingConfig,
    FormulaInput, LevelSearch,
};
use mcf0::distributed::distributed_minimum;
use mcf0::formula::generators::{partition_dnf, random_dnf, random_k_cnf};
use mcf0::formula::{Clause, CnfFormula, DnfFormula, Literal};
use mcf0::hashing::{ToeplitzHash, Xoshiro256StarStar};
use mcf0::sat::{find_max_range_cnf, find_min_cnf, SatOracle, SolutionOracle};
use mcf0::service::net::proto::encode_line;
use mcf0::service::{
    serve, CommandReply, DurableConfig, DurableSketchService, ReferenceService, Request, Response,
    ServerConfig, ServerHandle, ServiceCommand, SessionSpec, SketchKind, SketchService,
    TenantDirectory, TenantQuota,
};
use mcf0::streaming::workloads::{planted_f0_stream, skewed_stream};
use mcf0::streaming::{
    AmsF2, BucketingF0, EpochRing, EstimationF0, F0Config, F0Sketch, FlajoletMartinF0, MinimumF0,
};
use mcf0::structured::{DnfSet, StructuredMinimumF0};
use mcf0_bench::bench_dnf;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// `(name, value, space_bits, oracle_calls)`. Counting rows have no space
/// column and sketch rows issue no oracle calls; both read 0 there.
const PINS: &[(&str, f64, u64, u64)] = &[
    // ApproxMC (Algorithm 5) with its model pool (DESIGN.md §4).
    ("approxmc_cnf_linear", 144.0, 0, 162),
    ("approxmc_cnf_galloping", 144.0, 0, 162),
    ("approxmc_cnf_blocking", 45.0, 0, 140),
    ("approxmc_cnf_n44", 58720256.0, 0, 556),
    // FindMin prefix search: the value is the number of minima found.
    ("findmin_cnf", 16.0, 0, 107),
    ("findmin_cnf_n40", 8.0, 0, 1148),
    ("findmin_cnf_n48", 8.0, 0, 1375),
    // FindMaxRange binary search: the value is the deepest trailing-zero
    // count reached (-1 if the formula is unsatisfiable).
    ("findmaxrange_cnf", 10.0, 0, 5),
    ("findmaxrange_cnf_n56", 36.0, 0, 7),
    // The Estimation and Minimum counters end to end.
    ("est_enumerative_dnf", 11948.534385038376, 0, 0),
    ("min_counter_cnf", 52.47877988798629, 0, 4889),
    // F0 sketches on seeded streams; the distributed row's bits are its
    // total communication.
    ("bucketing_w32", 20480.0, 29015, 0),
    ("minimum_w32", 19632.324160866257, 131607, 0),
    ("estimation_w32", 3604.454333655757, 220416, 0),
    ("flajolet_martin_w48", 16384.0, 104, 0),
    ("ams_f2_w24", 9033068.157142857, 313600, 0),
    ("structured_dnf_w16", 53866.590500399325, 14955, 0),
    ("windowed_minimum_w32_k3", 13556.38196392681, 131607, 0),
    ("distributed_minimum_k4", 9774.647276773543, 230292, 0),
    // Inclusion–exclusion over two sessions' shared draws: the only service
    // rows no direct-engine row computes.
    (
        "service_intersection_minimum_w32_s4",
        13410.404783482467,
        131607,
        0,
    ),
    (
        "service_jaccard_minimum_w32_s4",
        0.683077799327186,
        131607,
        0,
    ),
];

/// ApproxMC's oracle calls without the model pool: the seed revision's
/// counts, and the chronological engine's for `approxmc_cnf_n44`. No pin may
/// exceed its baseline.
const APPROXMC_BASELINES: &[(&str, u64)] = &[
    ("approxmc_cnf_linear", 356),
    ("approxmc_cnf_galloping", 356),
    ("approxmc_cnf_blocking", 230),
    ("approxmc_cnf_n44", 1014),
];

/// `(service row, direct-engine row, sketches)`: the service row must
/// reproduce the direct row's value exactly, and its space is `sketches`
/// times the direct row's (a 3-epoch window holds one sketch per slot).
const SERVICE_ROWS: &[(&str, &str, u64)] = &[
    ("service_minimum_w32_s1", "minimum_w32", 1),
    ("service_minimum_w32_s4", "minimum_w32", 1),
    ("service_bucketing_w32_s4", "bucketing_w32", 1),
    ("service_estimation_w32_s4", "estimation_w32", 1),
    ("service_ams_f2_w24_s4", "ams_f2_w24", 1),
    ("service_structured_dnf_w16_s4", "structured_dnf_w16", 1),
    ("service_merge_minimum_w32_s4", "minimum_w32", 1),
    ("service_restore_minimum_w32_s4", "minimum_w32", 1),
    ("service_durable_minimum_w32_s2", "minimum_w32", 1),
    ("service_socket_minimum_w32_s2", "minimum_w32", 1),
    ("service_socket_minimum_w32_s2_c1", "minimum_w32", 1),
    ("service_socket_minimum_w32_s2_c8", "minimum_w32", 1),
    ("service_socket_minimum_w32_s2_c32", "minimum_w32", 1),
    (
        "service_windowed_minimum_w32_k3_s1",
        "windowed_minimum_w32_k3",
        3,
    ),
    (
        "service_windowed_minimum_w32_k3_s4",
        "windowed_minimum_w32_k3",
        3,
    ),
];

fn pin(name: &str) -> (f64, u64, u64) {
    PINS.iter()
        .find(|row| row.0 == name)
        .map(|&(_, value, space_bits, oracle_calls)| (value, space_bits, oracle_calls))
        .unwrap_or_else(|| panic!("no pin named {name}"))
}

/// Fails unless a counting row's `(value, oracle_calls)` equals its pin.
fn check_calls(name: &str, (value, oracle_calls): (f64, u64)) {
    assert_eq!((value, 0, oracle_calls), pin(name), "{name} drifted");
}

/// Fails unless a sketch row's `(estimate, space_bits)` equals its pin.
fn check_space(name: &str, (value, space_bits): (f64, u64)) {
    assert_eq!((value, space_bits, 0), pin(name), "{name} drifted");
}

/// Fails unless a service row reproduces the direct-engine row it names.
fn check_service(name: &str, (value, space_bits): (f64, u64)) {
    let &(_, direct, sketches) = SERVICE_ROWS
        .iter()
        .find(|row| row.0 == name)
        .unwrap_or_else(|| panic!("no service row named {name}"));
    let (pinned, pinned_bits, _) = pin(direct);
    assert_eq!(
        (value, space_bits),
        (pinned, sketches * pinned_bits),
        "{name} no longer reproduces {direct}"
    );
}

#[test]
fn approxmc_pins_never_exceed_their_baselines() {
    let rows: Vec<_> = PINS
        .iter()
        .filter(|row| row.0.starts_with("approxmc"))
        .collect();
    assert_eq!(rows.len(), APPROXMC_BASELINES.len());
    for &&(name, _, _, pin) in &rows {
        let &(_, baseline) = APPROXMC_BASELINES
            .iter()
            .find(|&&(row, _)| row == name)
            .unwrap_or_else(|| panic!("{name} has no baseline"));
        assert!(pin <= baseline, "{name}: pin {pin} > baseline {baseline}");
    }
}

fn seeded(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed)
}

// ---------------------------------------------------------------------------
// Counting rows.

/// ApproxMC run on an explicit SAT oracle over `f`, hashes drawn from `rng`.
fn approxmc(
    f: CnfFormula,
    config: &CountingConfig,
    search: LevelSearch,
    rng: &mut Xoshiro256StarStar,
) -> (f64, u64) {
    let n = f.num_vars();
    let input = FormulaInput::Cnf(f.clone());
    let mut oracle = SatOracle::new(f);
    let result = approx_mc_on_oracle(
        &input,
        config,
        search,
        rng,
        |rng| ToeplitzHash::sample(rng, n, n),
        Some(&mut oracle as &mut dyn SolutionOracle),
    );
    (result.estimate, result.oracle_calls)
}

/// The planted blocking CNF from the end-to-end suite: n = 12, 45 solutions,
/// one blocking clause per non-solution (~4051 clauses). This is the
/// worst-case clause-store workload for the solver.
fn blocking_cnf(n: usize, solutions: usize) -> CnfFormula {
    let mut rng = seeded(2);
    let (dnf, _) = mcf0::formula::generators::planted_dnf(&mut rng, n, solutions);
    let mut clauses = Vec::new();
    for value in 0..(1u64 << n) {
        let mut a = mcf0::gf2::BitVec::zeros(n);
        for i in 0..n {
            a.set(i, (value >> i) & 1 == 1);
        }
        if !dnf.eval(&a) {
            let lits = (0..n)
                .map(|i| {
                    if a.get(i) {
                        Literal::negative(i)
                    } else {
                        Literal::positive(i)
                    }
                })
                .collect();
            clauses.push(Clause::new(lits));
        }
    }
    CnfFormula::new(n, clauses)
}

#[test]
fn approxmc_pins() {
    // A random 3-CNF under both level-search policies.
    let cnf = random_k_cnf(&mut seeded(8), 10, 20, 3);
    let config = CountingConfig::explicit(0.8, 0.3, 40, 3);
    for (name, search) in [
        ("approxmc_cnf_linear", LevelSearch::Linear),
        ("approxmc_cnf_galloping", LevelSearch::Galloping),
    ] {
        check_calls(name, approxmc(cnf.clone(), &config, search, &mut seeded(1)));
    }

    // The blocking-clause-heavy planted CNF (the end-to-end suite's
    // dominant workload).
    let config = CountingConfig::explicit(0.8, 0.2, 150, 5);
    let f = blocking_cnf(12, 45);
    let got = approxmc(f, &config, LevelSearch::Galloping, &mut seeded(2));
    check_calls("approxmc_cnf_blocking", got);

    // n = 44: level searches reach ~26 XOR rows, cells of up to 40
    // solutions each.
    let f = mcf0_bench::large_n::approxmc_formula(44);
    let config = CountingConfig::explicit(0.8, 0.2, 40, 3);
    let mut hash_rng = mcf0_bench::large_n::approxmc_hash_rng();
    let got = approxmc(f, &config, LevelSearch::Galloping, &mut hash_rng);
    check_calls("approxmc_cnf_n44", got);
}

/// FindMin's minima count and oracle calls (the Minimum counter's pattern),
/// after checking that the minima come out strictly increasing (the
/// lexicographic contract) and that the search learned clauses.
fn findmin(f: CnfFormula, h: &ToeplitzHash, p: usize) -> (f64, u64) {
    let mut oracle = SatOracle::new(f);
    let minima = find_min_cnf(&mut oracle, h, p);
    assert!(minima.windows(2).all(|pair| pair[0] < pair[1]));
    assert!(oracle.solver_stats().learned_clauses > 0);
    (minima.len() as f64, oracle.stats().sat_calls)
}

#[test]
fn findmin_pins() {
    let mut rng = seeded(22);
    let f = random_k_cnf(&mut rng, 8, 10, 3);
    let h = ToeplitzHash::sample(&mut rng, 8, 10);
    check_calls("findmin_cnf", findmin(f, &h, 16));

    // n = 40 under a 120-bit hash and n = 48 under a 144-bit hash.
    let (f, h, p) = mcf0_bench::large_n::findmin_n40();
    check_calls("findmin_cnf_n40", findmin(f, &h, p));
    let (f, h, p) = mcf0_bench::large_n::findmin_n48();
    check_calls("findmin_cnf_n48", findmin(f, &h, p));
}

/// FindMaxRange's deepest level and oracle calls (the Estimation counter's
/// pattern).
fn findmaxrange(f: CnfFormula, h: &ToeplitzHash) -> (f64, u64) {
    let mut oracle = SatOracle::new(f);
    let max_tz = find_max_range_cnf(&mut oracle, h);
    (max_tz.map_or(-1.0, |v| v as f64), oracle.stats().sat_calls)
}

#[test]
fn findmaxrange_pins() {
    let mut rng = seeded(33);
    let f = random_k_cnf(&mut rng, 10, 12, 3);
    let h = ToeplitzHash::sample(&mut rng, 10, 10);
    check_calls("findmaxrange_cnf", findmaxrange(f, &h));

    // n = 56: ~56 rows of Gaussian state under binary search.
    let (f, h) = mcf0_bench::large_n::findmaxrange_n56();
    check_calls("findmaxrange_cnf_n56", findmaxrange(f, &h));
}

#[test]
fn counter_pins() {
    // The enumerative Estimation backend (oracle-free: it exercises the
    // solution-set cache rather than the solver).
    let dnf = bench_dnf(16, 10, 7);
    let exact = mcf0::formula::exact::count_dnf_exact(&dnf) as f64;
    let r = (exact * 2.0).log2().ceil().max(1.0) as u32;
    let config = CountingConfig::explicit(0.5, 0.2, 24, 3);
    let input = FormulaInput::Dnf(dnf);
    let result =
        approx_model_count_est(&input, &config, r, EstBackend::Enumerative, &mut seeded(3));
    check_calls(
        "est_enumerative_dnf",
        (result.estimate, result.oracle_calls),
    );

    // The Minimum counter (prefix search under a 3n-bit hash).
    let mut rng = seeded(303);
    let f = random_k_cnf(&mut rng, 9, 16, 3);
    let input = FormulaInput::Cnf(f);
    let config = CountingConfig::explicit(0.8, 0.3, 30, 5);
    let result = approx_model_count_min(&input, &config, &mut rng);
    check_calls("min_counter_cnf", (result.estimate, result.oracle_calls));
}

// ---------------------------------------------------------------------------
// Sketch rows, and the service rows that replay their seeds through the
// sharded multi-tenant service.

fn minimum_stream() -> Vec<u64> {
    planted_f0_stream(&mut seeded(21), 32, 20_000, 40_000)
}

fn bucketing_stream() -> Vec<u64> {
    planted_f0_stream(&mut seeded(11), 32, 20_000, 40_000)
}

/// The Estimation rows' stream: F0 = 4000, read back at `ESTIMATION_R`.
fn estimation_stream() -> Vec<u64> {
    planted_f0_stream(&mut seeded(31), 32, 4000, 8000)
}

/// 2^r ≈ 8·F0 sits inside the valid window 2·F0 ≤ 2^r ≤ 50·F0.
const ESTIMATION_R: u32 = 15;

fn ams_stream() -> Vec<u64> {
    skewed_stream(&mut seeded(51), 24, 1000, 6000, 0.5).0
}

fn dnf_sets() -> Vec<DnfFormula> {
    let mut rng = seeded(61);
    (0..6)
        .map(|_| random_dnf(&mut rng, 16, 5, (3, 6)))
        .collect()
}

fn minimum_spec() -> SessionSpec {
    SessionSpec::new(SketchKind::Minimum, 32, 150, 9, 22)
}

fn bucketing_spec() -> SessionSpec {
    SessionSpec::new(SketchKind::Bucketing, 32, 150, 9, 12)
}

fn estimation_spec() -> SessionSpec {
    SessionSpec {
        epsilon: 0.5,
        ..SessionSpec::new(SketchKind::Estimation, 32, 96, 7, 32)
    }
}

fn ams_spec() -> SessionSpec {
    SessionSpec::new(SketchKind::Ams, 24, 280, 7, 52)
}

fn dnf_spec() -> SessionSpec {
    SessionSpec::new(SketchKind::StructuredMinimum, 16, 60, 5, 62)
}

/// `stream` through the sketch `new` draws from `spec` and its seed.
fn direct<S: F0Sketch>(
    new: fn(usize, &F0Config, &mut Xoshiro256StarStar) -> S,
    spec: SessionSpec,
    stream: &[u64],
) -> S {
    let mut sketch = new(
        spec.universe_bits,
        &spec.f0_config(),
        &mut seeded(spec.seed),
    );
    sketch.process_stream(stream);
    sketch
}

fn readback<S: F0Sketch>(sketch: &S) -> (f64, u64) {
    (sketch.estimate(), sketch.space_bits() as u64)
}

#[test]
fn streaming_sketch_pins() {
    let sketch = direct(BucketingF0::new, bucketing_spec(), &bucketing_stream());
    check_space("bucketing_w32", readback(&sketch));
    let sketch = direct(MinimumF0::new, minimum_spec(), &minimum_stream());
    check_space("minimum_w32", readback(&sketch));
    let sketch = direct(EstimationF0::new, estimation_spec(), &estimation_stream());
    let estimate = sketch.estimate_with_r(ESTIMATION_R).expect("valid r");
    check_space("estimation_w32", (estimate, sketch.space_bits() as u64));

    let stream = planted_f0_stream(&mut seeded(41), 48, 30_000, 30_000);
    let mut sketch = FlajoletMartinF0::new(48, &mut seeded(42));
    sketch.process_stream(&stream);
    check_space("flajolet_martin_w48", readback(&sketch));

    let spec = ams_spec();
    let mut sketch = AmsF2::new(24, spec.rows, spec.columns, &mut seeded(spec.seed));
    sketch.process_stream(&ams_stream());
    check_space(
        "ams_f2_w24",
        (sketch.estimate(), sketch.space_bits() as u64),
    );
}

#[test]
fn structured_and_distributed_pins() {
    let spec = dnf_spec();
    let mut sketch = StructuredMinimumF0::new(16, &spec.counting_config(), &mut seeded(spec.seed));
    for set in dnf_sets() {
        sketch.process_item(&DnfSet::new(set));
    }
    check_space(
        "structured_dnf_w16",
        (sketch.estimate(), sketch.space_bits() as u64),
    );

    let mut rng = seeded(71);
    let f = random_dnf(&mut rng, 14, 12, (3, 6));
    let sites = partition_dnf(&mut rng, &f, 4);
    let config = CountingConfig::explicit(0.8, 0.2, 150, 9);
    let out = distributed_minimum(&sites, &config, &mut seeded(72));
    check_space(
        "distributed_minimum_k4",
        (out.estimate, out.ledger.total_bits()),
    );
}

/// The `minimum_w32` stream split across 6 caller-supplied epochs through a
/// 3-epoch ring: the fold must equal a direct sketch (same seed) fed only the
/// last 3 epochs' items, because ring rotation is pure routing, like
/// sharding. The fold value is pinned.
#[test]
fn windowed_pins() {
    let stream = minimum_stream();
    let chunk = stream.len().div_ceil(6);
    let mut ring = EpochRing::new(direct(MinimumF0::new, minimum_spec(), &[]), 3);
    for (e, batch) in stream.chunks(chunk).enumerate() {
        if e > 0 {
            ring.advance(e as u64).expect("epochs increase");
        }
        ring.current_mut().process_stream(batch);
    }
    let fold = ring.fold();
    let in_window = direct(MinimumF0::new, minimum_spec(), &stream[3 * chunk..]);
    assert_eq!(
        fold.estimate(),
        in_window.estimate(),
        "ring fold diverged from the direct in-window sketch"
    );
    check_space("windowed_minimum_w32_k3", readback(&fold));
}

/// A `shards`-shard service holding session `"t"` of `spec`.
fn service_with(shards: usize, spec: SessionSpec) -> SketchService {
    let mut service = SketchService::new(shards);
    service.create_session("t", spec).unwrap();
    service
}

fn service_readback(service: &SketchService, name: &str) -> (f64, u64) {
    (
        service.estimate(name).unwrap(),
        service.space_bits(name).unwrap() as u64,
    )
}

/// One session of `spec` fed `stream` through a `shards`-shard service.
fn service_plain(shards: usize, spec: SessionSpec, stream: &[u64]) -> (f64, u64) {
    let mut service = service_with(shards, spec);
    service.ingest("t", stream).unwrap();
    service_readback(&service, "t")
}

/// Two same-spec sessions `"a"` and `"b"` fed `a` and `b`.
fn service_pair(a: &[u64], b: &[u64]) -> SketchService {
    let mut service = SketchService::new(4);
    service.create_session("a", minimum_spec()).unwrap();
    service.create_session("b", minimum_spec()).unwrap();
    service.ingest("a", a).unwrap();
    service.ingest("b", b).unwrap();
    service
}

/// The minimum stream split across 6 caller-supplied epochs into a 3-epoch
/// windowed session: `estimate_window` must equal the direct ring fold at
/// every shard count. `space_bits` is the whole ring (one sketch per slot).
fn service_windowed_minimum(shards: usize) -> (f64, u64) {
    let stream = minimum_stream();
    let mut service = service_with(shards, minimum_spec().with_window(3));
    let chunk = stream.len().div_ceil(6);
    for (e, batch) in stream.chunks(chunk).enumerate() {
        if e > 0 {
            service.advance("t", e as u64).unwrap();
        }
        service.ingest("t", batch).unwrap();
    }
    (
        service.estimate_window("t").unwrap(),
        service.space_bits("t").unwrap() as u64,
    )
}

#[test]
fn service_pins() {
    let minimum = minimum_stream();
    for (name, shards) in [("service_minimum_w32_s1", 1), ("service_minimum_w32_s4", 4)] {
        check_service(name, service_plain(shards, minimum_spec(), &minimum));
    }
    check_service(
        "service_bucketing_w32_s4",
        service_plain(4, bucketing_spec(), &bucketing_stream()),
    );
    check_service(
        "service_ams_f2_w24_s4",
        service_plain(4, ams_spec(), &ams_stream()),
    );

    let mut service = service_with(4, estimation_spec());
    service.ingest("t", &estimation_stream()).unwrap();
    let estimate = service.estimate_with_r("t", ESTIMATION_R).unwrap();
    let got = (
        estimate.expect("valid r"),
        service.space_bits("t").unwrap() as u64,
    );
    check_service("service_estimation_w32_s4", got);

    let mut service = service_with(4, dnf_spec());
    service.ingest_structured("t", &dnf_sets()).unwrap();
    check_service(
        "service_structured_dnf_w16_s4",
        service_readback(&service, "t"),
    );

    // Alternate items into two same-spec sessions, then merge: the merged
    // estimate must equal the single-session value.
    let (even, odd): (Vec<u64>, Vec<u64>) =
        minimum.chunks(2).map(|pair| (pair[0], pair[1])).unzip();
    let mut service = service_pair(&even, &odd);
    service.merge_sessions("a", "b").unwrap();
    check_service(
        "service_merge_minimum_w32_s4",
        service_readback(&service, "a"),
    );

    // Save → restore into a fresh service: the restored session must carry
    // the exact state (byte-identical re-save).
    let mut service = service_with(4, minimum_spec());
    service.ingest("t", &minimum).unwrap();
    let saved = service.save("t").unwrap();
    let mut fresh = SketchService::new(3);
    fresh.restore(&saved).unwrap();
    assert_eq!(fresh.save("t").unwrap(), saved, "restore → save round trip");
    check_service(
        "service_restore_minimum_w32_s4",
        service_readback(&fresh, "t"),
    );

    for (name, shards) in [
        ("service_windowed_minimum_w32_k3_s1", 1),
        ("service_windowed_minimum_w32_k3_s4", 4),
    ] {
        check_service(name, service_windowed_minimum(shards));
    }

    // Overlapping two-thirds slices: the inclusion–exclusion intersection
    // and Jaccard estimates are deterministic functions of the shared draws.
    let cut = minimum.len() * 2 / 3;
    let service = service_pair(&minimum[..cut], &minimum[minimum.len() - cut..]);
    let space_bits = service.space_bits("a").unwrap() as u64;
    let intersection = service.intersection_estimate("a", "b").unwrap();
    check_space(
        "service_intersection_minimum_w32_s4",
        (intersection, space_bits),
    );
    let jaccard = service.jaccard_estimate("a", "b").unwrap();
    check_space("service_jaccard_minimum_w32_s4", (jaccard, space_bits));
}

fn ingest(items: &[u64]) -> ServiceCommand {
    ServiceCommand::Ingest {
        name: "t".into(),
        items: items.to_vec(),
    }
}

/// The minimum stream through a crash-safe durable store: every ingest batch
/// is framed, checksummed and group-commit-fsynced to the write-ahead log
/// before it reaches the shards, then the store is closed and recovered from
/// disk. The checked estimate comes from the *recovered* service.
#[test]
fn durable_service_pins() {
    let dir = std::env::temp_dir().join(format!("mcf0-pins-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DurableConfig {
        group_commit: 32,
        compact_after_bytes: None,
        ..DurableConfig::default()
    };
    let (mut durable, _) = DurableSketchService::open(&dir, 2, config).unwrap();
    let create = ServiceCommand::Create {
        name: "t".into(),
        spec: minimum_spec(),
    };
    durable.apply(&create).unwrap();
    for batch in minimum_stream().chunks(500) {
        durable.apply(&ingest(batch)).unwrap();
    }
    durable.sync().unwrap();
    drop(durable);

    let (recovered, report) = DurableSketchService::open(&dir, 2, config).unwrap();
    assert!(report.truncated.is_none(), "clean log scanned torn");
    let got = (
        recovered.estimate("t").unwrap(),
        recovered.space_bits("t").unwrap() as u64,
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    check_service("service_durable_minimum_w32_s2", got);
}

/// One loopback connection of the registered tenant; request ids count up
/// from 0.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Self {
        let writer = TcpStream::connect(handle.local_addr()).expect("connect client");
        writer.set_nodelay(true).expect("socket nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Client {
            writer,
            reader,
            next_id: 0,
        }
    }

    /// Writes every command before reading any reply, then returns the
    /// replies in order.
    fn pipeline(&mut self, commands: Vec<ServiceCommand>) -> Vec<CommandReply> {
        let first = self.next_id;
        for command in commands {
            let request = Request {
                id: self.next_id,
                token: "tok-bench".into(),
                command,
            };
            self.next_id += 1;
            self.writer
                .write_all(encode_line(&request).as_bytes())
                .expect("socket write");
        }
        (first..self.next_id)
            .map(|id| {
                let mut line = String::new();
                self.reader.read_line(&mut line).expect("socket read");
                let response =
                    serde_json::from_str::<Response>(line.trim_end()).expect("response line");
                assert_eq!(response.id, Some(id), "response out of order");
                response
                    .body
                    .unwrap_or_else(|e| panic!("socket request failed: {e}"))
            })
            .collect()
    }

    /// Session `"t"`'s `(estimate, space_bits)`, read back over the wire.
    fn readback(&mut self) -> (f64, u64) {
        let queries = vec![
            ServiceCommand::Estimate { name: "t".into() },
            ServiceCommand::SpaceBits { name: "t".into() },
        ];
        match self.pipeline(queries).as_slice() {
            [CommandReply::Estimate(x), CommandReply::SpaceBits(n)] => (*x, *n as u64),
            other => panic!("read-back replied {other:?}"),
        }
    }
}

/// A loopback server over a `shards`-shard service with one registered
/// tenant, and a client that created the minimum session over the wire.
fn socket_server(shards: usize) -> (ServerHandle, Client) {
    let mut directory = TenantDirectory::new();
    directory
        .register("bench", "tok-bench", TenantQuota::unlimited())
        .expect("register tenant");
    let handle = serve(
        "127.0.0.1:0",
        SketchService::new(shards),
        directory,
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let mut client = Client::connect(&handle);
    client.pipeline(vec![ServiceCommand::Create {
        name: "t".into(),
        spec: minimum_spec(),
    }]);
    (handle, client)
}

/// The minimum workload end to end through the TCP front-end, one request
/// in flight at a time: every command a newline-delimited JSON request,
/// every reply decoded from the wire.
fn socket_minimum(shards: usize) -> (f64, u64) {
    let (handle, mut client) = socket_server(shards);
    for batch in minimum_stream().chunks(500) {
        client.pipeline(vec![ingest(batch)]);
    }
    let got = client.readback();
    handle.shutdown();
    got
}

/// The minimum stream split round-robin across `clients` concurrent
/// connections, each pipelining its ingest batches into one shared session.
/// The sketch is a function of the distinct-item set, not of the
/// interleaving, so six passes over the stream change nothing.
fn socket_minimum_concurrent(shards: usize, clients: usize) -> (f64, u64) {
    let stream = minimum_stream();
    let (handle, mut client) = socket_server(shards);
    let mut per_client: Vec<Vec<ServiceCommand>> = vec![Vec::new(); clients];
    for pass in 0..6 {
        for (i, batch) in stream.chunks(125).enumerate() {
            per_client[(pass + i) % clients].push(ingest(batch));
        }
    }
    let joins: Vec<_> = per_client
        .into_iter()
        .map(|commands| {
            let mut client = Client::connect(&handle);
            std::thread::spawn(move || client.pipeline(commands))
        })
        .collect();
    for join in joins {
        join.join().expect("concurrent client panicked");
    }
    let got = client.readback();
    handle.shutdown();
    got
}

#[test]
fn socket_service_pins() {
    check_service("service_socket_minimum_w32_s2", socket_minimum(2));
    for (name, clients) in [
        ("service_socket_minimum_w32_s2_c1", 1),
        ("service_socket_minimum_w32_s2_c8", 8),
        ("service_socket_minimum_w32_s2_c32", 32),
    ] {
        check_service(name, socket_minimum_concurrent(2, clients));
    }
}

/// Paper-scale self-differential: the 4-shard service against the unsharded
/// reference interpreter on a wide-universe, paper-Thresh workload
/// (w = 48, Thresh = 150, 2·10^5 items), snapshot documents compared byte
/// for byte. No baked-in constants: the check is the bit-identity contract.
#[test]
#[ignore = "paper-scale: over a minute in release"]
fn service_heavy_self_differential() {
    let stream = planted_f0_stream(&mut seeded(2026), 48, 100_000, 200_000);
    for kind in [
        SketchKind::Minimum,
        SketchKind::Bucketing,
        SketchKind::Estimation,
        SketchKind::Ams,
    ] {
        let spec = SessionSpec::new(kind, 48, 150, 9, 4242);
        let mut reference = ReferenceService::new();
        let create = ServiceCommand::Create {
            name: "t".into(),
            spec,
        };
        reference.apply(&create).unwrap();
        let mut service = service_with(4, spec);
        for batch in stream.chunks(20_000) {
            service.ingest("t", batch).unwrap();
            reference.apply(&ingest(batch)).unwrap();
        }
        let expected = match reference.apply(&ServiceCommand::Save { name: "t".into() }) {
            Ok(CommandReply::Snapshot(doc)) => doc,
            other => panic!("Save replied {other:?}"),
        };
        assert!(
            service.save("t").unwrap() == expected,
            "{}: sharded snapshot diverged from the reference",
            kind.name()
        );
    }
}
